"""Equivalence of the compiled and pure-Python kernels: occurrence counting
and the encoder primitives."""

import importlib.util
import itertools
import math
import os
import shutil
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdyck import _purecount, bijections, census, kernels, paths
from permdyck.perms import Permutation, all_permutations, find_occurrences

SOURCE = Path(__file__).resolve().parents[1] / "src" / "permdyck" / "_fastcount.c"


def _perms_up_to(max_n):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


rand_perm = _perms_up_to(12)


@pytest.fixture(scope="module")
def fastcount(tmp_path_factory):
    """The compiled kernel, whichever backend ``kernels`` selected: the
    in-place build when importable, else the C source compiled into a
    temporary directory and loaded from there."""
    try:
        from permdyck import _fastcount

        return _fastcount
    except ImportError:
        pass
    # the compiler setuptools would run: $CC, else the one Python was built with
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc!r} not found) to build permdyck._fastcount")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("fastcount")
    cmd = build_ext(
        Distribution({"ext_modules": [Extension("permdyck._fastcount", [str(SOURCE)])]})
    )
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "permdyck._fastcount", cmd.get_ext_fullpath("permdyck._fastcount")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backend_reported():
    assert kernels.BACKEND in ("c", "python")


def test_compiled_histograms_match_pure(fastcount):
    for n in range(9):
        assert fastcount.histogram_pair(n) == _purecount.histogram_pair(n)


def test_compiled_prefix_histograms_match_pure(fastcount):
    # every prefix of every length; lengths n - 1 and n reach the walk's
    # one-value leaf and its empty walk
    for n in range(8):
        for q in range(n + 1):
            for prefix in itertools.permutations(range(1, n + 1), q):
                assert fastcount.histogram_pair(n, prefix) == _purecount.histogram_pair(n, prefix)


def test_compiled_sweep_of_s11_matches_bounded_census(fastcount):
    for key, hist in zip(("312", "321"), fastcount.histogram_pair(11)):
        assert sum(hist) == math.factorial(11)
        assert tuple(hist[:5]) == census.bounded_distributions(11, key, 4)[11]


@settings(deadline=None, max_examples=200)
@given(_perms_up_to(20))
def test_compiled_count_pair_matches_pure(fastcount, p):
    assert fastcount.count_pair(p) == _purecount.count_pair(p)


@pytest.mark.parametrize("n, prefix", [(5, (2, 2)), (5, (0,)), (5, (6,)), (2, (1, 2, 1)), (-1, ()), (21, ())])
def test_bad_arguments_rejected_by_both(fastcount, n, prefix):
    for backend in (fastcount, _purecount):
        with pytest.raises(ValueError):
            backend.histogram_pair(n, prefix)


@pytest.mark.parametrize("prefix", [(1.0,), 5, [1, "a"], (0,), (1, 1), (True,)])
def test_prefix_checked_alike_by_both(fastcount, prefix):
    # a tuple or list of distinct ints in 1..n (bool is an int) is swept,
    # anything else raises the same ValueError
    assert _outcome(fastcount.histogram_pair, 4, prefix) == _outcome(_purecount.histogram_pair, 4, prefix)


def test_compiled_size_limit(fastcount):
    assert fastcount.MAXN == _purecount.MAXN == 20
    for backend in (fastcount, _purecount):
        assert backend.count_pair(tuple(range(20, 0, -1))) == (0, 1140)
        assert backend.count_pair((20,) + tuple(range(1, 20))) == (171, 0)
    with pytest.raises(ValueError):
        fastcount.histogram_pair(21)
    assert fastcount.count_pair(tuple(range(1, 22))) is None
    assert kernels.count_pair(tuple(range(21, 0, -1))) == (0, 1330)


_PER_INPUT = ("count_pair", "heights_312", "heights_321", "scan_path", "path_from_heights", "perm_from_heights")
_LONG = tuple(range(21, 0, -1))[::2] + tuple(range(21, 0, -1))[1::2]  # length MAXN + 1


@pytest.mark.parametrize("name", _PER_INPUT)
@pytest.mark.parametrize(
    "value", [_LONG, (2, 2, 1), (0, 1), (1, 3), (2**70, 1), (1.0,), [3, 1, 2, 4, 4], 5, None, {1: 1}, (-1, 0)]
)
def test_compiled_primitives_hand_over(fastcount, on_each_backend, name, value):
    # one contract: None, never an exception, for an input the compiled
    # kernel does not handle, and ``kernels`` returns the pure outcome
    assert getattr(fastcount, name)(value) is None
    expect = _outcome(getattr(_purecount, name), value)
    assert on_each_backend(getattr(kernels, name), value) == [expect, expect]


def test_count_pair_matches_oracle_exhaustive():
    for n in range(7):
        for rho in all_permutations(n):
            expect = (
                find_occurrences(rho, "312").count if n >= 3 else 0,
                find_occurrences(rho, "321").count if n >= 3 else 0,
            )
            assert tuple(kernels.count_pair(tuple(rho))) == expect
            assert tuple(_purecount.count_pair(tuple(rho))) == expect


def test_compiled_count_pair_matches_oracle_exhaustive(fastcount):
    for n in range(7):
        for rho in all_permutations(n):
            expect = (
                find_occurrences(rho, "312").count if n >= 3 else 0,
                find_occurrences(rho, "321").count if n >= 3 else 0,
            )
            assert fastcount.count_pair(tuple(rho)) == expect


@settings(deadline=None, max_examples=80)
@given(rand_perm)
def test_backends_agree_random(p):
    assert tuple(kernels.count_pair(p)) == tuple(_purecount.count_pair(p))


def test_histograms_agree():
    for n in range(7):
        assert kernels.histogram_pair(n) == _purecount.histogram_pair(n)


def test_histogram_prefix_partition():
    n = 6
    full312, full321 = kernels.histogram_pair(n)
    acc312 = [0] * len(full312)
    acc321 = [0] * len(full321)
    for first in itertools.permutations(range(1, n + 1), 2):
        h312, h321 = kernels.histogram_pair(n, first)
        for i, v in enumerate(h312):
            acc312[i] += v
        for i, v in enumerate(h321):
            acc321[i] += v
    assert acc312 == list(full312) and acc321 == list(full321)


def test_histogram_prefix_agrees_across_backends():
    assert kernels.histogram_pair(5, (3,)) == _purecount.histogram_pair(5, (3,))


def test_tiny_sizes():
    for n in (0, 1, 2):
        h312, h321 = kernels.histogram_pair(n)
        assert sum(h312) == math.factorial(n)
        assert sum(h321) == math.factorial(n)


# -- bounded census ---------------------------------------------------------


@pytest.mark.parametrize("tau", ["312", "321"])
@pytest.mark.parametrize("r_max", range(5))
def test_compiled_census_matches_pure(fastcount, tau, r_max):
    # one pure pass at n_max = 14 serves every smaller n_max
    expect = _purecount.bounded_census(14, tau, r_max, None)
    for n_max in range(15):
        assert fastcount.bounded_census(n_max, tau, r_max, None) == expect[: n_max + 1], n_max


@pytest.mark.parametrize("tau", ["312", "321"])
@pytest.mark.parametrize("r_max", range(5))
def test_compiled_census_layers_as_pure(fastcount, tau, r_max):
    # a bound one below each new largest layer trips at that layer on both
    # backends, so the compiled layers hold as many states as the pure ones
    sizes = [len(layer) for layer in _purecount.census_layers(10, tau, r_max, None)]
    for k in range(1, 11):
        if sizes[k] > max(sizes[1:k], default=0):
            for backend in (fastcount, _purecount):
                assert backend.bounded_census(10, tau, r_max, sizes[k] - 1) == k
    largest = max(sizes[1:])
    assert fastcount.bounded_census(10, tau, r_max, largest) == _purecount.bounded_census(10, tau, r_max, None)


def test_compiled_census_past_64_bits(fastcount):
    # the (3,2,1) count at n = 34, r = 3, from the pure census: above 2**64
    count = 19188792325382167600
    assert count > 2**64
    assert fastcount.bounded_census(34, "321", 3, None)[34][3] == count


@pytest.mark.parametrize(
    "args", [(35, "312", 0, None), (35, "321", 0, None), (6, "321", 2, 5.0), (6, "321", 2, "5"), (6, "21", 2, None)]
)
def test_compiled_census_hands_over(fastcount, on_each_backend, args):
    # n_max above 34 (34! < 2**128), or a limit or key it does not take
    assert fastcount.bounded_census(*args) is None
    expect = _outcome(_purecount.bounded_census, *args)
    assert on_each_backend(kernels.bounded_census, *args) == [expect, expect]


def test_census_guard_alike_on_both_backends(on_each_backend, monkeypatch):
    monkeypatch.setattr(census, "MAX_STATES", 400)
    text = "layer 4 of the bounded census (n <= 9, r <= 3) holds more than 400 states; lift the state bound to proceed"
    assert on_each_backend(census.bounded_distributions, 9, "312", 3) == [(census.ResourceGuardError, text)] * 2
    monkeypatch.setattr(census, "MAX_STATES", 2**70)
    expect = _purecount.bounded_census(9, "312", 3, None)
    assert on_each_backend(census.bounded_distributions, 9, "312", 3) == [expect, expect]


# -- encoder primitives ----------------------------------------------------


def _outcome(fn, *args):
    """What a call gives: its value, or its exception's type and text."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


@pytest.fixture
def on_each_backend(fastcount, monkeypatch):
    """``run(fn, *args)``: the outcomes of ``fn(*args)`` with the compiled
    and then the pure kernel behind ``kernels``."""

    def run(fn, *args):
        outcomes = []
        for impl in (fastcount, _purecount):
            monkeypatch.setattr(kernels, "_impl", impl)
            outcomes.append(_outcome(fn, *args))
        return outcomes

    return run


def test_compiled_heights_match_pure_on_s0_to_s8(fastcount):
    for n in range(9):
        for rho in itertools.permutations(range(1, n + 1)):
            assert fastcount.heights_312(rho) == _purecount.heights_312(rho)
            assert fastcount.heights_321(rho) == _purecount.heights_321(rho)


@settings(deadline=None, max_examples=200)
@given(_perms_up_to(20))
def test_compiled_heights_match_pure_random(fastcount, p):
    assert fastcount.heights_312(p) == _purecount.heights_312(p)
    assert fastcount.heights_321(p) == _purecount.heights_321(p)


def test_heights_beyond_compiled_size_take_pure_path(fastcount, on_each_backend):
    for n in range(21, 26):
        rho = tuple(range(n, 0, -1))[::2] + tuple(range(n, 0, -1))[1::2]
        for name in ("heights_312", "heights_321"):
            assert getattr(fastcount, name)(rho) is None
            expect = getattr(_purecount, name)(rho)
            assert on_each_backend(getattr(kernels, name), rho) == [expect, expect]


@pytest.mark.parametrize("values", [(2, 2, 1), (0, 1), (1, 3), (2**70, 1), (1.0,), [3, 1, 2, 4, 4]])
def test_heights_of_non_permutations_as_pure(fastcount, on_each_backend, values):
    # the compiled kernel maps only permutations of 1..n and passes the rest on
    for name in ("heights_312", "heights_321"):
        assert getattr(fastcount, name)(values) is None
        expect = getattr(_purecount, name)(values)
        assert on_each_backend(getattr(kernels, name), values) == [expect, expect]
    assert fastcount.heights_321([2, 1]) == (1, 0)


def test_heights_of_an_iterator_as_of_its_tuple(on_each_backend):
    rho = (4, 3, 5, 1, 2)
    for name in ("heights_312", "heights_321", "count_pair"):
        fn = getattr(kernels, name)
        assert on_each_backend(lambda: fn(iter(rho))) == [fn(rho)] * 2


def test_path_parse_matches_pure_on_every_short_word(on_each_backend):
    def parse(word):
        return paths.validate(word), _outcome(paths.path_info, word)

    for length in range(9):
        for letters in itertools.product("UDJx", repeat=length):
            word = "".join(letters)
            compiled, pure = on_each_backend(parse, word)
            assert compiled == pure, word


def test_path_parse_of_non_str_as_pure(fastcount, on_each_backend):
    assert fastcount.scan_path(["U", "D"]) is None
    compiled, pure = on_each_backend(paths.path_info, ["U", "D"])
    assert compiled == pure and compiled.heights == (0,)


def test_compiled_path_build_matches_pure_on_s8_images(fastcount):
    for rho in itertools.permutations(range(1, 9)):
        for heights in (_purecount.heights_312(rho), _purecount.heights_321(rho)):
            assert fastcount.path_from_heights(heights) == _purecount.path_from_heights(heights)
    assert fastcount.path_from_heights(()) == "" and fastcount.path_from_heights([0]) == "UD"


@pytest.mark.parametrize("heights", [(-1,), (0, 2), (1, -1, 0), (2, 1), (0, 0, 1), (1.0, 0), (2**70, 0), 5])
def test_path_build_rejects_as_pure(fastcount, on_each_backend, heights):
    assert fastcount.path_from_heights(heights) is None
    compiled, pure = on_each_backend(paths.path_from_down_heights, heights)
    assert compiled == pure
    if heights in ((-1,), (0, 2), (1, -1, 0), (2, 1), (0, 0, 1)):
        assert compiled[0] is paths.PathError


# -- decoder primitive ------------------------------------------------------


def test_compiled_decoder_matches_pure_on_s0_to_s7(fastcount):
    for n in range(8):
        for rho in itertools.permutations(range(1, n + 1)):
            h = _purecount.heights_312(rho)
            assert fastcount.perm_from_heights(h) == _purecount.perm_from_heights(h) == rho
    assert fastcount.perm_from_heights([2, 0, 0]) == (3, 1, 2)


@pytest.mark.parametrize(
    "heights, text",
    [
        ((0, 1), "height 1 at entry 2 exceeds n - i = 0"),
        ([3, 0, 0], "height 3 at entry 1 exceeds n - i = 2"),
        ((1, -1, 0), "negative height -1 at entry 2"),
    ],
)
def test_pure_decoder_names_the_fault(heights, text):
    with pytest.raises(_purecount.Rejected) as exc:
        _purecount.perm_from_heights(heights)
    assert str(exc.value) == text


@pytest.mark.parametrize(
    "path, text",
    [
        ("UUUDJD", "height 2 at entry 1 exceeds n - i = 1"),
        ("UDUUUDJD", "height 2 at entry 2 exceeds n - i = 1"),
        ("UUJD", "jumps must be sandwiched between down-steps"),
    ],
)
def test_decode_psi312_rejects_as_before(on_each_backend, path, text):
    assert on_each_backend(bijections.decode_psi312, path) == [(bijections.NotInImageError, text)] * 2


def test_decode_psi312_inverts_psi312_on_s8():
    for rho in all_permutations(8):
        assert bijections.decode_psi312(bijections.psi312(rho)) == rho
