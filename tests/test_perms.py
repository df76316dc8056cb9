"""Permutations, occurrence counting, heights, bases, and symmetries."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdyck import bijections, census, recorded, series
from permdyck.bijections import decode_psi312, psi312
from permdyck.perms import (
    PATTERN_312,
    PATTERN_321,
    HeightVector,
    PatternError,
    Permutation,
    all_permutations,
    count_occurrences,
    count_occurrences_fast,
    find_occurrences,
    heights_312,
    heights_321,
    left_to_right_maxima,
    reflect_anti_diag,
    reflect_main_diag,
    rotate_quarter,
    standardize,
    tau_base,
)

S3 = [Permutation(p) for p in itertools.permutations((1, 2, 3))]

perms_strategy = st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(Permutation)
)


class TestPermutation:
    def test_valid(self):
        assert Permutation((4, 3, 5, 1, 2)).n == 5
        assert Permutation() == ()
        assert Permutation((1,)).n == 1

    @pytest.mark.parametrize("bad", [(1, 1), (2, 3), (0, 1), (1, 2, 4)])
    def test_invalid(self, bad):
        with pytest.raises(PatternError):
            Permutation(bad)

    @pytest.mark.parametrize("bad", [(1.5, 2), (2, 1.5), (Fraction(3, 2), 1), (1, 2.000001)])
    def test_non_integral_rejected(self, bad):
        with pytest.raises(PatternError, match="non-integral"):
            Permutation(bad)

    def test_integral_values_accepted(self):
        assert Permutation([2, 1]) == (2, 1)
        assert Permutation([2.0, Fraction(1, 1)]) == (2, 1)
        assert type(Permutation([2.0, 1])[0]) is int

    def test_text_roundtrip(self):
        rho = Permutation.from_text("4,3,5,1,2")
        assert rho == (4, 3, 5, 1, 2)
        assert rho.to_text() == "4,3,5,1,2"
        assert Permutation.from_text("") == Permutation()

    def test_graph(self):
        assert Permutation((2, 1)).graph() == ((1, 2), (2, 1))


class TestStandardize:
    def test_reduction_examples(self):
        assert standardize((5, 2, 4)) == (3, 1, 2)
        assert standardize((9, 6, 4)) == (3, 2, 1)

    def test_already_reduced(self):
        assert standardize((1, 2, 3)) == (1, 2, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(PatternError):
            standardize((2, 2, 1))


def _standardising_finder(rho, k):
    """The finder that ``find_occurrences`` replaced, standardising every
    position k-subset in turn, for all patterns of length k at once:
    pattern -> its occurrence positions, in lexicographic order."""
    out = {}
    for pos in itertools.combinations(range(1, len(rho) + 1), k):
        out.setdefault(tuple(standardize([rho[i - 1] for i in pos])), []).append(pos)
    return out


class TestFindOccurrences:
    @pytest.mark.parametrize("k,n_max", [(2, 7), (3, 7), (4, 6)])
    def test_matches_standardising_finder(self, k, n_max):
        patterns = list(all_permutations(k))
        for n in range(n_max + 1):
            for rho in all_permutations(n):
                expected = _standardising_finder(rho, k)
                for tau in patterns:
                    occ = find_occurrences(rho, tau)
                    assert occ.positions == tuple(expected.get(tau, ())), (rho, tau)

    @pytest.mark.parametrize(
        "word,tau",
        [
            ((1, 1), "312"),
            ((1, 1), "21"),
            ((1, 2, 1, 3), "21"),
            ((1, 2, 1, 3), "312"),
            ((4, 1, 3, 3), "312"),
            ((2, 5, 7, 5, 1), "1234"),
            ((3, 3, 3), "4321"),
        ],
    )
    def test_repeated_entries_as_standardising_finder(self, word, tau):
        tau = Permutation(int(ch) for ch in tau)
        try:
            expected = tuple(_standardising_finder(word, tau.n).get(tau, ()))
        except PatternError as exc:
            with pytest.raises(PatternError) as got:
                find_occurrences(word, tau)
            assert str(got.value) == str(exc)
        else:
            assert find_occurrences(word, tau).positions == expected

    def test_repeated_entries_examples(self):
        assert find_occurrences((1, 1), "312").positions == ()
        with pytest.raises(PatternError, match=r"^entries must be pairwise distinct: \(1, 1\)$"):
            find_occurrences((1, 2, 1, 3), "21")
        with pytest.raises(PatternError, match=r"^entries must be pairwise distinct: \(1, 2, 1\)$"):
            find_occurrences((1, 2, 1, 3), "312")

    def test_two_occurrence_host(self):
        occ = find_occurrences(Permutation((1, 5, 2, 4, 3)), "312")
        assert occ.positions == ((2, 3, 4), (2, 3, 5))
        assert occ.count == 2

    def test_identity_avoids_decreasing(self):
        for n in range(8):
            assert find_occurrences(Permutation.identity(n), "321").count == 0

    def test_derived_example(self):
        rho = Permutation((4, 3, 5, 1, 2))
        occ = find_occurrences(rho, "321")
        assert occ.count == 2
        assert occ.value_tuples(rho) == ((4, 3, 1), (4, 3, 2))

    def test_positions_sorted_and_distinct(self):
        occ = find_occurrences(Permutation((5, 4, 3, 2, 1)), "321")
        assert list(occ.positions) == sorted(set(occ.positions))
        assert occ.count == 10

    def test_short_pattern_rejected(self):
        with pytest.raises(PatternError):
            find_occurrences(Permutation((2, 1)), Permutation((1,)))


class TestFastCount:
    def test_examples(self):
        assert count_occurrences_fast((1, 5, 2, 4, 3), "312") == 2
        assert count_occurrences_fast((3, 2, 1), "321") == 1
        assert count_occurrences_fast((4, 3, 5, 1, 2), "312") == 3

    def test_non_length3_rejected(self):
        with pytest.raises(PatternError):
            count_occurrences_fast((1, 2), Permutation((2, 1)))
        with pytest.raises(PatternError):
            count_occurrences_fast((1, 2, 3, 4), Permutation((1, 2, 3, 4)))

    def test_matches_oracle_all_patterns_s5(self):
        for rho in all_permutations(5):
            for tau in S3:
                assert count_occurrences_fast(rho, tau) == count_occurrences(rho, tau)

    def test_matches_oracle_s6_kernel_patterns(self):
        for rho in all_permutations(6):
            for tau in (PATTERN_312, PATTERN_321):
                assert count_occurrences_fast(rho, tau) == count_occurrences(rho, tau)

    @settings(deadline=None, max_examples=60)
    @given(perms_strategy)
    def test_matches_oracle_random(self, rho):
        for tau in S3:
            assert count_occurrences_fast(rho, tau) == count_occurrences(rho, tau)

    def test_words_of_distinct_values_match_oracle(self):
        for k in range(3, 6):
            for word in itertools.permutations(range(1, 8), k):
                for tau in S3:
                    expect = find_occurrences(word, tau).count
                    assert count_occurrences_fast(word, tau) == expect, (word, tau)
        assert count_occurrences_fast((5, 2, 4), "321") == 0

    @pytest.mark.parametrize("word", [(1, 1, 2), (3, 1, 2, 3), (2, 2)])
    def test_repeated_values_rejected(self, word):
        for tau in S3:
            with pytest.raises(PatternError, match="distinct"):
                count_occurrences_fast(word, tau)


class TestLeftToRightMaxima:
    def test_examples(self):
        assert left_to_right_maxima((4, 3, 5, 1, 2)) == (1, 3)
        assert left_to_right_maxima((1, 2, 3, 4)) == (1, 2, 3, 4)
        assert left_to_right_maxima((5, 4, 3, 2, 1)) == (1,)
        assert left_to_right_maxima(()) == ()


class TestHeights:
    def test_heights_312_examples(self):
        assert tuple(heights_312((4, 3, 5, 1, 2))) == (3, 2, 2, 0, 0)
        assert tuple(heights_312(Permutation.identity(5))) == (0,) * 5
        assert tuple(heights_312((5, 4, 3, 2, 1))) == (4, 3, 2, 1, 0)

    def test_heights_321_examples(self):
        assert tuple(heights_321((4, 3, 5, 1, 2))) == (3, 0, 2, 1, 0)
        assert tuple(heights_321(Permutation.identity(6))) == (0,) * 6
        # decreasing permutation: single maximum of height n-1, rest 0
        assert tuple(heights_321((5, 4, 3, 2, 1))) == (4, 0, 0, 0, 0)

    def test_heights_312_injective(self):
        for n in range(8):
            seen = set()
            for rho in all_permutations(n):
                h = tuple(heights_312(rho))
                assert h not in seen
                seen.add(h)

    @pytest.mark.parametrize("bad", [(0.5, 0), (Fraction(1, 2), 0)])
    def test_height_vector_non_integral_rejected(self, bad):
        with pytest.raises(ValueError, match="non-integral"):
            HeightVector(bad)

    def test_height_vector_invariants(self):
        with pytest.raises(ValueError):
            HeightVector((1, -1, 0))
        with pytest.raises(ValueError):
            HeightVector((0, 1))
        assert HeightVector(()) == ()


def _old_heights_312(rho):
    n = len(rho)
    return HeightVector(sum(1 for k in range(i + 1, n) if rho[k] < rho[i]) for i in range(n))


def _old_heights_321(rho):
    n = len(rho)
    maxima = set(left_to_right_maxima(rho))
    out = []
    running_max = 0
    for i in range(1, n + 1):
        v = rho[i - 1]
        if i in maxima:
            running_max = v
            out.append(sum(1 for k in range(i, n) if rho[k] < v))
        else:
            out.append(sum(1 for k in range(i, n) if v < rho[k] < running_max))
    return HeightVector(out)


class TestTrustedPaths:
    """Values built as permutations or height vectors skip the constructors'
    checks; these must equal what the checked constructors return."""

    def test_heights_match_generator_definitions(self):
        for n in range(9):
            for rho in all_permutations(n):
                for fast, slow in ((heights_312, _old_heights_312), (heights_321, _old_heights_321)):
                    got = fast(rho)
                    assert type(got) is HeightVector
                    assert got == slow(rho)

    def test_standardize_returns_checked_permutation(self):
        for word in [(), (7,), (5, 2, 4), (9, 6, 4), (-1, 10, 3, 0)]:
            got = standardize(word)
            assert type(got) is Permutation
            assert got == Permutation(got)
        with pytest.raises(PatternError):
            standardize((2, 2, 1))

    def test_all_permutations_are_checked_permutations(self):
        for n in range(8):
            perms = list(all_permutations(n))
            assert all(type(p) is Permutation for p in perms)
            assert perms == [Permutation(p) for p in itertools.permutations(range(1, n + 1))]

    def test_decode_psi312_returns_checked_permutation(self):
        for n in range(7):
            for rho in all_permutations(n):
                got = decode_psi312(psi312(rho))
                assert type(got) is Permutation
                assert got == Permutation(tuple(rho))


class TestTauBase:
    def test_two_occurrence_example(self):
        assert tau_base(Permutation((1, 5, 2, 4, 3)), "312") == (4, 1, 3, 2)

    def test_avoider_has_empty_base(self):
        assert tau_base(Permutation((1, 2, 3, 4)), "321") == Permutation()

    def test_base_is_its_own_base(self):
        assert tau_base(Permutation((4, 3, 1, 2)), "312") == (4, 3, 1, 2)

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_base_preserves_count(self, tau):
        for n in range(8):
            for rho in all_permutations(n):
                base = tau_base(rho, tau)
                assert count_occurrences_fast(base, tau) == count_occurrences_fast(rho, tau)


class TestSymmetries:
    def test_orbit_of_312(self):
        orbit = {tuple(PATTERN_312)}
        cur = PATTERN_312
        for _ in range(3):
            cur = rotate_quarter(cur)
            orbit.add(tuple(cur))
        assert rotate_quarter(cur) == PATTERN_312
        assert len(orbit) == 4
        assert (2, 3, 1) in orbit

    def test_orbit_of_321(self):
        orbit = {tuple(PATTERN_321)}
        cur = PATTERN_321
        for _ in range(3):
            cur = rotate_quarter(cur)
            orbit.add(tuple(cur))
        assert orbit == {(3, 2, 1), (1, 2, 3)}

    def test_anti_diag_involution(self):
        for rho in all_permutations(5):
            assert reflect_anti_diag(reflect_anti_diag(rho)) == rho

    def test_main_diag_is_inverse(self):
        rho = Permutation((4, 3, 5, 1, 2))
        inv = reflect_main_diag(rho)
        assert all(inv[rho[i] - 1] == i + 1 for i in range(5))

    def test_rotation_preserves_counts(self):
        # quarter rotations act simultaneously on host and pattern
        for n in range(2, 6):
            for rho in all_permutations(n):
                for tau in S3:
                    expected = count_occurrences(rho, tau)
                    r, t = rho, tau
                    for _ in range(3):
                        r, t = rotate_quarter(r), rotate_quarter(t)
                        assert count_occurrences(r, t) == expected

    def test_reflections_preserve_counts(self):
        for n in range(2, 7):
            for rho in all_permutations(n):
                for tau in (PATTERN_312, PATTERN_321):
                    c = count_occurrences_fast(rho, tau)
                    assert count_occurrences_fast(reflect_anti_diag(rho), tau) == c
                c321 = count_occurrences_fast(rho, PATTERN_321)
                assert count_occurrences_fast(reflect_main_diag(rho), PATTERN_321) == c321


class TestPatternKey:
    @pytest.mark.parametrize(
        "call",
        [
            lambda tau: bijections.psi_tau(Permutation((2, 1, 3)), tau),
            lambda tau: bijections.analyze_jumps(Permutation((2, 1, 3)), tau),
            lambda tau: series.gf(tau, 0, 10),
            lambda tau: series.count_closed_form(tau, 0, 3),
            lambda tau: census.brute_distribution(3, tau),
            lambda tau: census.bounded_distributions(3, tau, 1),
            lambda tau: census.audit_bijections(3, tau),
            lambda tau: census.enumerate_tau_bases(tau, 1),
        ],
        ids=[
            "psi_tau",
            "analyze_jumps",
            "gf",
            "count_closed_form",
            "brute_distribution",
            "bounded_distributions",
            "audit_bijections",
            "enumerate_tau_bases",
        ],
    )
    @pytest.mark.parametrize("tau", ["123", "132"])
    def test_unsupported_pattern_raises_pattern_error(self, call, tau):
        with pytest.raises(PatternError, match=r"only \(3,1,2\) and \(3,2,1\) are supported"):
            call(tau)

    # calls that check their pattern with the package's ``_pattern_key``
    # before anything else, with arguments that keep each one quick
    _KEYED = {
        "brute_distribution": lambda tau: census.brute_distribution(5, tau),
        "bounded_distributions": lambda tau: census.bounded_distributions(6, tau, 2),
        "coefficients": lambda tau: recorded.coefficients(tau, 1, 10),
        "count_closed_form": lambda tau: recorded.count_closed_form(tau, 2, 7),
        "gf": lambda tau: series.gf(tau, 1, 12).coeffs,
    }

    @pytest.mark.parametrize("call", _KEYED.values(), ids=list(_KEYED))
    @pytest.mark.parametrize("key", ["312", "321"])
    def test_every_form_of_a_pattern_gives_one_result(self, call, key):
        want = call(key)
        values = tuple(map(int, key))
        for form in (Permutation(values), values, list(values), ",".join(key), f" {key} "):
            assert call(form) == want, form

    def test_str_key_results_are_pinned(self):
        counts = ((0, 42), (1, 21), (2, 23), (3, 14), (4, 12), (5, 5), (6, 3))
        assert repr(census.brute_distribution(5, "312")) == f"DistributionTable(n=5, pattern='312', counts={counts})"
        assert census.bounded_distributions(6, "321", 2)[6] == (132, 110, 133)
        assert recorded.coefficients("312", 1, 10) == [0, 0, 0, 1, 5, 21, 84, 330, 1287, 5005, 19448]
        assert recorded.count_closed_form("321", 2, 7) == 635
        assert series.gf("321", 1, 12).x_coefficients() == (0, 0, 0, 1, 6, 27, 110)

    @pytest.mark.parametrize("call", _KEYED.values(), ids=list(_KEYED))
    @pytest.mark.parametrize(
        "tau, got",
        [
            ("123", "(1, 2, 3)"),
            ("132", "(1, 3, 2)"),
            ("213", "(2, 1, 3)"),
            ("231", "(2, 3, 1)"),
            ("4123", "(4, 1, 2, 3)"),
        ],
    )
    def test_other_patterns_raise_one_text(self, call, tau, got):
        values = tuple(map(int, tau))
        for form in (tau, ",".join(tau), Permutation(values), values):
            with pytest.raises(PatternError) as info:
                call(form)
            assert str(info.value) == f"only (3,1,2) and (3,2,1) are supported; got {got}"

    def test_str_key_loads_no_perms(self):
        """In a fresh interpreter, the str keys pass the check without it."""
        code = (
            "import sys\n"
            "from permdyck import census, recorded, series\n"
            "for key in ('312', '321'):\n"
            "    census.brute_distribution(4, key)\n"
            "    census.bounded_distributions(4, key, 1)\n"
            "    recorded.coefficients(key, 1, 5)\n"
            "    recorded.count_closed_form(key, 1, 5)\n"
            "    series.gf(key, 1, 8)\n"
            "print('permdyck.perms' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
