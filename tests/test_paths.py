"""Path representation, validation, structural queries, and the DP counter."""

import itertools
import math
import re

import pytest

from permdyck import paths
from permdyck.paths import Jump, PathError


def naive_classify(word: str) -> str:
    """Independent height simulation used to cross-check validate()."""
    h = 0
    s = 0
    for ch in word:
        if ch == "U":
            h += 1
        elif ch in "DJ":
            h -= 1
            s += ch == "J"
        else:
            return "invalid"
        if h < 0:
            return "invalid"
    if h != 0:
        return "invalid"
    return "dyck" if s == 0 else "dyck-with-jumps"


class TestValidate:
    def test_examples(self):
        assert paths.validate("UUDD").kind == "dyck"
        v = paths.validate("UUUUDDUDJDUD")
        assert v.kind == "dyck-with-jumps"
        assert paths.path_counts("UUUUDDUDJDUD") == (5, 1)
        bad = paths.validate("UDDU")
        assert bad.kind == "invalid" and bad.prefix == 3

    def test_empty(self):
        assert paths.validate("").kind == "dyck"

    def test_bad_character(self):
        with pytest.raises(PathError):
            paths.parse_path("UUXDD")
        assert paths.validate("UUXDD").kind == "invalid"

    def test_exhaustive_against_simulation(self):
        for length in range(8):
            for word in itertools.product("UDJ", repeat=length):
                w = "".join(word)
                assert paths.validate(w).kind == naive_classify(w)


class TestDownSteps:
    def test_heights_examples(self):
        assert paths.down_step_heights("UUDD") == (1, 0)
        assert paths.down_step_heights("UUUUDJJDUUUDDD") == (3, 0, 2, 1, 0)
        assert paths.down_step_heights("UUUUDDUDJDUD") == (3, 2, 2, 0, 0)

    def test_peaks(self):
        steps = paths.down_steps("UUDD")
        assert steps[0].peak == 1 and steps[1].peak == 1
        # a first down-step reached through a jump has no peak weakly left
        steps = paths.down_steps("UUJD")
        assert steps[0].peak is None

    def test_invalid_raises(self):
        with pytest.raises(PathError):
            paths.down_steps("UDD")


class TestJumps:
    def test_jump_free(self):
        assert paths.jumps("UUDDUD") == ()

    def test_examples(self):
        assert paths.jumps("UUUUDJJDUUUDDD") == (Jump(position=1, depth=2),)
        assert paths.jumps("UUUUDDUDJDUD") == (Jump(position=3, depth=1),)

    def test_psi_shaped(self):
        assert paths.is_psi_shaped("UUUUDJJDUUUDDD")
        assert paths.is_psi_shaped("UUDD")
        assert not paths.is_psi_shaped("UUJD")  # jump preceded by an up-step
        assert not paths.is_psi_shaped("UDDU")  # invalid


def naive_info(word: str):
    """Independent recomputation of ``PathInfo``: per down-step heights and
    peaks from ``running_heights``, and each jump run's
    (position, depth, m, l) from regexes for the D*J+D* runs."""
    levels = paths.running_heights(word)
    offsets = tuple(i for i, ch in enumerate(word) if ch == "D")
    heights = tuple(levels[i] for i in offsets)
    peaks = []
    for i in offsets:
        tops = [k for k, j in enumerate(offsets, 1) if j <= i and j > 0 and word[j - 1] == "U"]
        peaks.append(tops[-1] if tops else 0)
    runs = []
    for run in re.finditer(r"J+", word):
        m = len(re.search(r"D*$", word[: run.start()]).group())
        l = len(re.match(r"D*", word[run.end() :]).group())
        runs.append((word[: run.start()].count("D"), len(run.group()), m, l))
    return heights, tuple(peaks), tuple(runs)


class TestPathInfo:
    def test_exhaustive_against_independent_scan(self):
        for length in range(9):
            for letters in itertools.product("UDJ", repeat=length):
                w = "".join(letters)
                check = paths.validate(w)
                if not check.ok:
                    message = f"invalid path: {check.reason} (prefix {check.prefix})"
                    with pytest.raises(PathError, match=f"^{re.escape(message)}$"):
                        paths.path_info(w)
                    continue
                info = paths.path_info(w)
                heights, peaks, runs = naive_info(w)
                assert info.path == w
                assert (info.heights, info.peaks) == (heights, peaks)
                got = tuple((sp.position, sp.depth, sp.m, sp.l) for sp in info.spans)
                assert got == runs, w
                assert all(w[sp.start : sp.end] == "J" * sp.depth for sp in info.spans)
                sandwiched = all(m > 0 and l > 0 for _, _, m, l in runs)
                assert info.psi_shaped == paths.is_psi_shaped(w) == sandwiched

    def test_invalid_character_message(self):
        message = "invalid path: invalid step character 'X' (prefix 2)"
        with pytest.raises(PathError, match=f"^{re.escape(message)}$"):
            paths.path_info("UUXDD")

    def test_plain_values(self):
        info = paths.path_info("UUUUDJJDUUUDDD")
        assert info.heights == (3, 0, 2, 1, 0)
        assert info.peaks == (1, 1, 3, 3, 3)
        assert info.spans == ((5, 7, 1, 1, 1),)  # plain tuples compare equal
        assert info.spans[0].depth == 2 and info.spans[0].psi_shaped


class TestTranslation:
    def test_roundtrip(self):
        for heights in [(3, 2, 2, 0, 0), (3, 0, 2, 1, 0), (0,) * 4, (4, 0, 0, 0, 0)]:
            path = paths.path_from_down_heights(heights)
            assert paths.down_step_heights(path) == heights

    def test_rejects_bad_vectors(self):
        with pytest.raises(PathError):
            paths.path_from_down_heights((0, 2))  # does not return to 0
        with pytest.raises(PathError):
            paths.path_from_down_heights((-1,))


class TestWeight:
    def test_examples(self):
        assert paths.weight_exponent("UUDD") == 4
        assert paths.weight_exponent("UUUUDDUDJDUD") == 11  # n=5, s=1
        assert paths.weight_exponent("") == 0


class TestCountPaths:
    def test_catalan_column(self):
        assert paths.count_paths(3, 0) == 5
        assert paths.count_paths(0, 0) == 1
        for n in range(21):
            assert paths.count_paths(n, 0) == math.comb(2 * n, n) // (n + 1)

    def test_against_exhaustive_generation(self):
        # the explicit generator is the oracle for the DP
        for n in range(7):
            for s in range(4):
                assert paths.count_paths(n, s) == sum(1 for _ in paths.enumerate_paths(n, s))

    def test_frozen_oracle_value(self):
        assert paths.count_paths(5, 1) == 792  # computed by exhaustive generation

    def test_generated_paths_are_valid(self):
        for n in range(4):
            for s in range(3):
                for p in paths.enumerate_paths(n, s):
                    assert paths.validate(p).ok
                    assert p.count("D") == n and p.count("J") == s
                    assert p.count("U") == n + s

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            paths.count_paths(-1, 0)
