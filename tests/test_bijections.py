"""Encoders, decoders, and the jump/occurrence structure claims.

The three permutations below are worked examples reconstructed from their
jump statistics (preceding maximum, run entries, causing entries); each
was cross-checked against brute-force occurrence sets before being frozen
here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdyck import bijections, paths
from permdyck.bijections import NotInImageError
from permdyck.paths import PathError
from permdyck.perms import (
    PATTERN_312,
    PATTERN_321,
    Permutation,
    all_permutations,
    count_occurrences_fast,
    find_occurrences,
    heights_312,
    heights_321,
    left_to_right_maxima,
    tau_base,
)

# depth-2 jump, following entries (2,1), preceding maximum 9, causing (4,3)
DEPTH2_312_EXAMPLE = Permutation((5, 6, 7, 8, 9, 2, 1, 4, 3))
# depth-2 jump, following entries (6,8), preceding maximum 9, causing (4,5)
DEPTH2_321_EXAMPLE = Permutation((7, 1, 2, 3, 9, 6, 8, 4, 5))
# depth-1 jump followed by 4 down-steps; five maxima 6, 8, 10, 11, 14 with
# heights (5,5,5,4,5) and non-maximum down-steps (4,3,2,1,0) before the jump
COMPLICATED_321_EXAMPLE = Permutation((6, 1, 8, 2, 10, 3, 11, 4, 14, 7, 9, 12, 13, 5))


def _nonpeak_ups_between(path, maxima, start, end):
    """Up-steps strictly inside path[start:end] that are not the peak up-step
    of a left-to-right maximum (the up-step just before a maximum's
    down-step), by walking the path string."""
    down_idx = path[:start].count("D")
    count = 0
    for k in range(start, end):
        if path[k] == "U":
            if not (k + 1 < len(path) and path[k + 1] == "D" and down_idx + 1 in maxima):
                count += 1
        elif path[k] == "D":
            down_idx += 1
    return count


rand_perm = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(Permutation)
)


class TestEncoders:
    def test_worked_permutation(self):
        rho = Permutation((4, 3, 5, 1, 2))
        assert bijections.psi312(rho) == "UUUUDDUDJDUD"
        assert bijections.psi321(rho) == "UUUUDJJDUUUDDD"
        assert bijections.psi_avoiding(rho) == "UUUUDDUDDD"

    def test_identity_and_staircase(self):
        for n in range(6):
            ident = Permutation.identity(n)
            assert bijections.psi312(ident) == "UD" * n
            assert bijections.psi321(ident) == "UD" * n
            assert bijections.psi_avoiding(ident) == "UD" * n
        assert bijections.psi_avoiding(Permutation((2, 1))) == "UUDD"

    def test_psi321_decreasing_permutation(self):
        # exercises the ELSE branch with h_i = 0 throughout; the image is
        # pinned by the height definition, not by a transcribed path
        for n in range(2, 7):
            rho = Permutation(range(n, 0, -1))
            expected = paths.path_from_down_heights((n - 1,) + (0,) * (n - 1))
            path = bijections.psi321(rho)
            assert path == expected
            assert paths.validate(path).ok and paths.is_psi_shaped(path)

    def test_geometric_construction_agrees(self):
        for n in range(7):
            for rho in all_permutations(n):
                assert bijections.psi_avoiding(rho) == bijections.psi_avoiding_by_rotation(rho)

    def test_staircase_never_jumps_and_height_law(self):
        for n in range(7):
            for rho in all_permutations(n):
                path = bijections.psi_avoiding(rho)
                assert "J" not in path and paths.validate(path).kind == "dyck"
                # h_k = h_peak - (k - peak) for every down-step
                for d in paths.down_steps(path):
                    peak = next(e for e in paths.down_steps(path) if e.index == d.peak)
                    assert d.height == peak.height - (d.index - peak.index)

    def test_injective_and_down_step_heights(self):
        for n in range(7):
            seen312, seen321 = set(), set()
            for rho in all_permutations(n):
                p312, p321 = bijections.psi312(rho), bijections.psi321(rho)
                assert p312 not in seen312 and p321 not in seen321
                seen312.add(p312)
                seen321.add(p321)
                assert paths.down_step_heights(p312) == tuple(heights_312(rho))
                assert paths.down_step_heights(p321) == tuple(heights_321(rho))

    def test_jump_free_iff_avoider(self):
        for n in range(7):
            for rho in all_permutations(n):
                for tau, encode in (("312", bijections.psi312), ("321", bijections.psi321)):
                    path = encode(rho)
                    avoids = count_occurrences_fast(rho, tau) == 0
                    assert ("J" not in path) == avoids
                    if avoids:
                        assert path == bijections.psi_avoiding(rho)


class TestDecoders:
    def test_examples(self):
        assert bijections.decode_321_avoiding("UDUDUD") == (1, 2, 3)
        assert bijections.decode_321_avoiding("UUDD") == (2, 1)
        assert bijections.decode_312_avoiding("UDUD") == (1, 2)
        assert bijections.decode_312_avoiding("UUDD") == (2, 1)
        assert bijections.decode_psi312("UUUUDDUDJDUD") == (4, 3, 5, 1, 2)
        assert bijections.decode_psi312("UDUD") == (1, 2)

    def test_decoders_reject_jumps(self):
        assert paths.validate("UUUDJDUD").kind == "dyck-with-jumps"
        with pytest.raises(PathError):
            bijections.decode_321_avoiding("UUUDJDUD")
        with pytest.raises(PathError):
            bijections.decode_312_avoiding("UUUDJDUD")

    def test_decode_psi312_rejects_non_image(self):
        with pytest.raises(NotInImageError):
            bijections.decode_psi312("UUJD")  # jump not sandwiched
        with pytest.raises(NotInImageError):
            bijections.decode_psi312("UUUDJD")  # h_1 = 2 > n - 1 = 1

    def test_roundtrip_all_dyck_paths_n7(self):
        count = 0
        for path in paths.enumerate_paths(7, 0):
            count += 1
            for decode, tau in (
                (bijections.decode_321_avoiding, "321"),
                (bijections.decode_312_avoiding, "312"),
            ):
                rho = decode(path)
                assert count_occurrences_fast(rho, tau) == 0
                assert bijections.psi_avoiding(rho) == path
        assert count == 429  # C_7

    def test_decode_psi312_roundtrip_exhaustive(self):
        for n in range(7):
            for rho in all_permutations(n):
                assert bijections.decode_psi312(bijections.psi312(rho)) == rho


class TestJumpAnalysis:
    def test_depth2_example_312(self):
        analyses = bijections.analyze_jumps(DEPTH2_312_EXAMPLE, "312")
        assert len(analyses) == 1
        ctx, pred = analyses[0].context, analyses[0].prediction
        assert ctx.jump.depth == 2 and ctx.l == 2 and ctx.m == 1
        assert DEPTH2_312_EXAMPLE[ctx.preceding_max - 1] == 9
        post = [DEPTH2_312_EXAMPLE[i - 1] for i in ctx.post_run]
        assert post == [2, 1]
        causing = sorted(DEPTH2_312_EXAMPLE[i - 1] for i in ctx.causing)
        assert causing == [3, 4]
        assert pred.base == 4
        base_triples = {
            t for t in pred.value_triples(DEPTH2_312_EXAMPLE) if t[0] == 9
        }
        assert base_triples == {(9, 2, 4), (9, 2, 3), (9, 1, 4), (9, 1, 3)}

    def test_depth2_example_321(self):
        analyses = bijections.analyze_jumps(DEPTH2_321_EXAMPLE, "321")
        assert len(analyses) == 1
        ctx, pred = analyses[0].context, analyses[0].prediction
        assert ctx.jump.depth == 2 and ctx.l == 2
        assert DEPTH2_321_EXAMPLE[ctx.preceding_max - 1] == 9
        assert [DEPTH2_321_EXAMPLE[i - 1] for i in ctx.post_run] == [6, 8]
        assert sorted(DEPTH2_321_EXAMPLE[i - 1] for i in ctx.causing) == [4, 5]
        assert pred.base == 4
        base_triples = {t for t in pred.value_triples(DEPTH2_321_EXAMPLE) if t[0] == 9}
        assert base_triples == {(9, 6, 4), (9, 6, 5), (9, 8, 4), (9, 8, 5)}
        # the full first-jump prediction is exhaustive here
        truth = set(
            find_occurrences(DEPTH2_321_EXAMPLE, "321").value_tuples(DEPTH2_321_EXAMPLE)
        )
        assert set(pred.value_triples(DEPTH2_321_EXAMPLE)) == truth

    def test_complicated_321_example(self):
        rho = COMPLICATED_321_EXAMPLE
        analyses = bijections.analyze_jumps(rho, "321")
        assert len(analyses) == 1
        ctx, pred = analyses[0].context, analyses[0].prediction
        d, l = ctx.jump.depth, ctx.l
        assert (d, l) == (1, 4)
        assert [m.value for m in ctx.maxima_before] == [6, 8, 10, 11, 14]
        assert [m.height for m in ctx.maxima_before] == [5, 5, 5, 4, 5]
        assert [m.steps_between for m in ctx.maxima_before] == [4, 3, 2, 1, 0]
        reaches = [
            min(m.height - d - m.steps_between, l) for m in ctx.maxima_before
        ]
        assert reaches == [0, 1, 2, 2, 4]
        assert ctx.threshold_index == 2
        assert pred.total == 9
        assert set(pred.value_triples(rho)) == {
            (8, 7, 5),
            (10, 9, 5),
            (10, 7, 5),
            (11, 9, 5),
            (11, 7, 5),
            (14, 13, 5),
            (14, 12, 5),
            (14, 9, 5),
            (14, 7, 5),
        }
        assert find_occurrences(rho, "321").count == 9

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_steps_between_and_threshold_match_path_walk(self, tau):
        # (3,1,2): non-peak up-steps between down-step g and the jump, walked
        # on the string; (3,2,1): non-maximum positions in g+1..pos
        compared = 0
        for n in range(1, 8):
            for rho in all_permutations(n):
                info = paths.path_info(bijections.psi_tau(rho, tau))
                maxima = left_to_right_maxima(rho)
                analyses = bijections.analyze_jumps(rho, tau)
                for jn, (span, analysis) in enumerate(zip(info.spans, analyses)):
                    ctx, pos = analysis.context, span.position
                    if tau == "312":
                        left = [g for g in maxima if g < ctx.preceding_max]
                        downs = [i for i, ch in enumerate(info.path) if ch == "D"]
                        steps = [
                            _nonpeak_ups_between(info.path, maxima, downs[g - 1] + 1, span.start)
                            for g in left
                        ]
                        hits = [i for i, s in enumerate(steps, 1) if s < span.m]
                    else:
                        left = [g for g in maxima if g <= pos]
                        steps = [
                            sum(1 for k in range(g + 1, pos + 1) if k not in maxima)
                            for g in left
                        ]
                        hits = [
                            i
                            for i, (g, s) in enumerate(zip(left, steps), 1)
                            if info.heights[g - 1] - span.depth - s > 0 and jn == 0
                        ]
                    assert [rec.position for rec in ctx.maxima_before] == left, rho
                    assert [rec.steps_between for rec in ctx.maxima_before] == steps, rho
                    assert ctx.threshold_index == (hits[0] if hits else None), rho
                    compared += len(steps)
        assert compared > 1000

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_predictions_subset_and_exact_totals(self, tau):
        for n in range(2, 7):
            for rho in all_permutations(n):
                path = bijections.psi_tau(rho, tau)
                njumps = len(paths.jumps(path))
                if njumps == 0:
                    continue
                predicted = set(bijections.predicted_occurrences(rho, tau))
                truth = set(find_occurrences(rho, tau).positions)
                assert predicted <= truth, (rho, tau)
                if len(truth) in (1, 2):
                    assert len(predicted) == len(truth), (rho, tau)

    def test_single_occurrence_base_is_pattern(self):
        for tau in ("312", "321"):
            for n in range(3, 7):
                for rho in all_permutations(n):
                    if count_occurrences_fast(rho, tau) == 1:
                        assert tuple(tau_base(rho, tau)) == tuple(
                            PATTERN_312 if tau == "312" else PATTERN_321
                        )

    def test_single_occurrence_shape_iff(self):
        for n in range(2, 7):
            for rho in all_permutations(n):
                path = bijections.psi312(rho)
                expected = count_occurrences_fast(rho, "312") == 1
                assert bijections.is_single_occurrence_shape_312(path) == expected


class TestJumpsum:
    def test_examples(self):
        rho = Permutation((4, 3, 5, 1, 2))
        assert bijections.check_jumpsum(rho, "321")  # 2 jumps <= 2 occurrences
        assert bijections.check_jumpsum(rho, "312")  # 1 jump <= 3 occurrences
        assert bijections.psi321(rho).count("J") == 2
        assert bijections.psi312(rho).count("J") == 1

    def test_exhaustive(self):
        for n in range(7):
            for rho in all_permutations(n):
                assert bijections.check_jumpsum(rho, "312")
                assert bijections.check_jumpsum(rho, "321")


class TestRandomized:
    @settings(deadline=None, max_examples=80)
    @given(rand_perm)
    def test_encoders_random(self, rho):
        for encode, heights in (
            (bijections.psi312, heights_312),
            (bijections.psi321, heights_321),
        ):
            path = encode(rho)
            assert paths.validate(path).ok
            assert paths.is_psi_shaped(path)
            assert path.count("D") == rho.n
            assert paths.down_step_heights(path) == tuple(heights(rho))
        assert bijections.decode_psi312(bijections.psi312(rho)) == rho

    @settings(deadline=None, max_examples=40)
    @given(rand_perm)
    def test_avoider_decoders_random(self, rho):
        path = bijections.psi_avoiding(rho)
        assert paths.validate(path).kind == "dyck"
        r312 = bijections.decode_312_avoiding(path)
        r321 = bijections.decode_321_avoiding(path)
        assert bijections.psi_avoiding(r312) == path
        assert bijections.psi_avoiding(r321) == path
        assert count_occurrences_fast(r312, "312") == 0
        assert count_occurrences_fast(r321, "321") == 0
