"""Equivalence of the compiled and pure-Python kernels: occurrence counting,
the encoder and decoder primitives, the jump predictions and the bounded
census, and the compiled bijection audit against the audit's loop."""

import hashlib
import importlib.util
import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdyck import _purecount, audit, bijections, census, kernels, paths, perms
from permdyck.perms import PatternError, Permutation, all_permutations, find_occurrences


def _perms_up_to(max_n):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


rand_perm = _perms_up_to(12)


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
    n21 = tuple(range(1, 22))
    assert _compiled(fastcount, "count_pair", n21, handed_over=1) == _purecount.count_pair(n21) == (0, 0)
    assert kernels.count_pair(tuple(range(21, 0, -1))) == (0, 1330)


# each per-input primitive, with the arguments that follow the input
_PER_INPUT = {
    "count_pair": (),
    "heights_321": (),
    "scan_path": (),
    "path_from_heights": (),
    "encode_path": ("312",),
    "is_permutation": (),
    "decode_psi312": (),
}
_LONG = tuple(range(21, 0, -1))[::2] + tuple(range(21, 0, -1))[1::2]  # length MAXN + 1


def _checked_by_pure(value):
    """A tuple or list of more than MAXN ints, none of them a bool: the only
    inputs the compiled ``is_permutation`` hands over."""
    return isinstance(value, (tuple, list)) and len(value) > 20 and all(type(v) is int for v in value)


@pytest.mark.parametrize("name", _PER_INPUT)
@pytest.mark.parametrize(
    "value", [_LONG, (2, 2, 1), (0, 1), (1, 3), (2**70, 1), (1.0,), [3, 1, 2, 4, 4], 5, None, {1: 1}, (-1, 0)]
)
def test_compiled_primitives_hand_over(fastcount, on_each_backend, name, value):
    # one contract: the compiled kernel hands an input it does not handle
    # to the pure one, once, and gives the pure outcome, value or exception;
    # ``is_permutation`` answers False itself for every value here but _LONG
    args = (value, *_PER_INPUT[name])
    expect = _outcome(getattr(_purecount, name), *args)
    if name == "is_permutation" and not _checked_by_pure(value):
        assert _compiled(fastcount, name, *args, handed_over=0) is expect is False
    else:
        assert _compiled(fastcount, name, *args, handed_over=1) == expect
    assert on_each_backend(getattr(kernels, name), *args) == [expect, expect]


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
    expect = _outcome(_purecount.bounded_census, *args)
    assert _compiled(fastcount, "bounded_census", *args, handed_over=1) == expect
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


def _compiled(fastcount, name, *args, handed_over):
    """The outcome of the compiled ``name(*args)``, which must hand its input
    to the pure kernel ``handed_over`` times (0 or 1)."""
    before = fastcount.hand_overs()
    got = _outcome(getattr(fastcount, name), *args)
    assert fastcount.hand_overs() - before == handed_over
    return got


def _bound(fastcount):
    """The functions ``kernels`` binds from the selected backend: every
    function of the compiled kernel but its hand-over counter."""
    return [name for name, value in vars(fastcount).items() if callable(value) and name != "hand_overs"]


@pytest.fixture
def on_each_backend(fastcount, monkeypatch):
    """``run(fn, *args)``: the outcomes of ``fn(*args)`` with the compiled
    and then the pure kernel's functions bound in ``kernels``."""

    def run(fn, *args):
        outcomes = []
        for impl in (fastcount, _purecount):
            for name in _bound(fastcount):
                monkeypatch.setattr(kernels, name, getattr(impl, name))
            outcomes.append(_outcome(fn, *args))
        return outcomes

    return run


@pytest.mark.parametrize("no_ext", [False, True])
def test_kernels_bind_the_backend_functions_themselves(fastcount, monkeypatch, no_ext):
    # a fresh ``kernels``, imported as a process would with that
    # environment: each name is the backend's own function, no wrapper; a
    # compiled function with no binding or no pure twin fails here
    monkeypatch.setitem(sys.modules, "permdyck._fastcount", fastcount)
    if no_ext:
        monkeypatch.setenv("PERMDYCK_NO_EXT", "1")
    else:
        monkeypatch.delenv("PERMDYCK_NO_EXT", raising=False)
    spec = importlib.util.find_spec("permdyck.kernels")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert (fresh.BACKEND, fresh._impl) == (("python", _purecount) if no_ext else ("c", fastcount))
    bound = _bound(fastcount)
    assert len(bound) == 11
    for name in bound:
        assert callable(getattr(_purecount, name)), name
        for module in (fresh, kernels):
            assert getattr(module, name) is getattr(module._impl, name), name
    assert fresh.Rejected is _purecount.Rejected


def test_hand_over_finds_the_pure_function_at_call_time(fastcount, monkeypatch):
    # the compiled kernel looks the pure function up per call, passes the
    # arguments as given and returns or raises what it does
    calls = []

    def pure(*args):
        calls.append(args)
        if args[0] == "raise":
            raise _purecount.Rejected("named fault")
        return "pure"

    handed = [("count_pair", ((1, 1),)), ("encode_path", ((1, 1), "312")), ("bounded_census", (35, "312", 0, None))]
    for name, args in handed:
        monkeypatch.setattr(_purecount, name, pure)
        del calls[:]
        assert _compiled(fastcount, name, *args, handed_over=1) == "pure"
        assert calls == [args]
    monkeypatch.setattr(_purecount, "scan_path", pure)
    assert _compiled(fastcount, "scan_path", "raise", handed_over=1) == (_purecount.Rejected, "named fault")


def test_compiled_heights_match_pure_on_s0_to_s8(fastcount):
    # the compiled (3,2,1) heights are derived from the (3,1,2) ones, whose
    # C body the (3,1,2) encoder also runs
    for n in range(9):
        for rho in itertools.permutations(range(1, n + 1)):
            assert fastcount.heights_321(rho) == _purecount.heights_321(rho)


@settings(deadline=None, max_examples=200)
@given(_perms_up_to(20))
def test_compiled_heights_match_pure_random(fastcount, p):
    assert fastcount.heights_321(p) == _purecount.heights_321(p)
    assert fastcount.encode_path(p, "312") == _purecount.encode_path(p, "312")


def test_heights_beyond_compiled_size_take_pure_path(fastcount, on_each_backend):
    for n in range(21, 26):
        rho = tuple(range(n, 0, -1))[::2] + tuple(range(n, 0, -1))[1::2]
        expect = _purecount.heights_321(rho)
        assert _compiled(fastcount, "heights_321", rho, handed_over=1) == expect
        assert on_each_backend(kernels.heights_321, rho) == [expect, expect]


@pytest.mark.parametrize("values", [(2, 2, 1), (0, 1), (1, 3), (2**70, 1), (1.0,), [3, 1, 2, 4, 4]])
def test_heights_of_non_permutations_as_pure(fastcount, on_each_backend, values):
    # the compiled kernel maps only permutations of 1..n and passes the rest on
    expect = _outcome(_purecount.heights_321, values)
    assert _compiled(fastcount, "heights_321", values, handed_over=1) == expect
    assert on_each_backend(kernels.heights_321, values) == [expect, expect]
    assert fastcount.heights_321([2, 1]) == (1, 0)


def test_heights_of_an_iterator_as_of_its_tuple(on_each_backend):
    rho = (4, 3, 5, 1, 2)
    for name in ("heights_321", "count_pair"):
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
    assert _compiled(fastcount, "scan_path", ["U", "D"], handed_over=1) == _purecount.scan_path(["U", "D"])
    compiled, pure = on_each_backend(paths.path_info, ["U", "D"])
    assert compiled == pure and compiled.heights == (0,)


def test_compiled_path_build_matches_pure_on_s8_images(fastcount):
    for rho in itertools.permutations(range(1, 9)):
        for heights in (_purecount.heights_312(rho), _purecount.heights_321(rho)):
            assert fastcount.path_from_heights(heights) == _purecount.path_from_heights(heights)
    assert fastcount.path_from_heights(()) == "" and fastcount.path_from_heights([0]) == "UD"


@pytest.mark.parametrize("heights", [(-1,), (0, 2), (1, -1, 0), (2, 1), (0, 0, 1), (1.0, 0), (2**70, 0), 5])
def test_path_build_rejects_as_pure(fastcount, on_each_backend, heights):
    expect = _outcome(_purecount.path_from_heights, heights)
    assert _compiled(fastcount, "path_from_heights", heights, handed_over=1) == expect
    compiled, pure = on_each_backend(paths.path_from_down_heights, heights)
    assert compiled == pure
    if heights in ((-1,), (0, 2), (1, -1, 0), (2, 1), (0, 0, 1)):
        assert compiled[0] is paths.PathError


# -- one-call encoder and the permutation check -----------------------------


def test_compiled_encoder_and_check_match_pure_on_s0_to_s8(fastcount):
    for n in range(9):
        for rho in itertools.permutations(range(1, n + 1)):
            for key in ("312", "321"):
                assert fastcount.encode_path(rho, key) == _purecount.encode_path(rho, key), (rho, key)
            assert fastcount.is_permutation(rho) is _purecount.is_permutation(rho) is True
    assert fastcount.encode_path([4, 3, 5, 1, 2], "321") == "UUUUDJJDUUUDDD"
    assert fastcount.is_permutation([2, 1]) is True


def test_compiled_check_matches_pure_on_every_short_word(fastcount):
    # every word over 0..n + 1 of length n <= 5, permutation or not
    for n in range(6):
        for word in itertools.product(range(n + 2), repeat=n):
            assert fastcount.is_permutation(word) is _purecount.is_permutation(word), word


# inputs that the compiled encoder and check hand over, or answer False for,
# as factories: a generator is read once
_HANDED_OVER = {
    "n21": lambda: _LONG,
    "bool": lambda: (True, 2),
    "one bool": lambda: [True],
    "float": lambda: (1.0, 2),
    "digits": lambda: ["1", "2"],
    "repeat": lambda: (1, 1),
    "zero": lambda: (0, 1),
    "range": lambda: range(1, 4),
    "generator": lambda: (v for v in (2, 3, 1)),
    "letter": lambda: ("a",),
    "str": lambda: "abc",
}


@pytest.mark.parametrize("case", _HANDED_OVER)
def test_encoder_and_check_hand_over_as_pure(fastcount, on_each_backend, case):
    make = _HANDED_OVER[case]
    calls = [("is_permutation",)] + [("encode_path", key) for key in ("312", "321")]
    for name, *rest in calls:
        expect = _outcome(getattr(_purecount, name), make(), *rest)
        if name == "is_permutation":
            # it hands over only more than MAXN exact ints
            handed_over = int(_checked_by_pure(make()))
            assert _compiled(fastcount, name, make(), *rest, handed_over=handed_over) is expect is (case == "n21")
        elif name == "encode_path" and case in ("bool", "one bool"):
            # the encoder reads a bool as its int, as heights_321 does
            assert _compiled(fastcount, name, make(), *rest, handed_over=0) == expect
        else:
            assert _compiled(fastcount, name, make(), *rest, handed_over=1) == expect
        assert on_each_backend(lambda: getattr(kernels, name)(make(), *rest)) == [expect, expect]


def _made(value):
    """A constructed value as its type, its items and their types."""
    return type(value).__name__, tuple(value), tuple(type(v).__name__ for v in value)


# ``Permutation`` of each input of ``_HANDED_OVER``: the values, item types
# and exception texts of the check before the kernel took part in it
_PERMUTATION_OF = {
    "n21": _made(Permutation._of(_LONG)),
    "bool": ("Permutation", (1, 2), ("int", "int")),
    "one bool": ("Permutation", (1,), ("int",)),
    "float": ("Permutation", (1, 2), ("int", "int")),
    "digits": ("Permutation", (1, 2), ("int", "int")),
    "repeat": (PatternError, "not a permutation of 1..2: (1, 1)"),
    "zero": (PatternError, "not a permutation of 1..2: (0, 1)"),
    "range": ("Permutation", (1, 2, 3), ("int", "int", "int")),
    "generator": ("Permutation", (2, 3, 1), ("int", "int", "int")),
    "letter": (ValueError, "invalid literal for int() with base 10: 'a'"),
    "str": (ValueError, "invalid literal for int() with base 10: 'a'"),
}


@pytest.mark.parametrize("case", _HANDED_OVER)
def test_permutation_check_as_before(on_each_backend, case):
    make = _HANDED_OVER[case]
    want = _PERMUTATION_OF[case]
    assert on_each_backend(lambda: _made(Permutation(make()))) == [want, want]


@pytest.mark.parametrize("case", _HANDED_OVER)
def test_encoders_as_path_of_heights(on_each_backend, case):
    # exceptions included: a str entry fails the (3,2,1) heights' comparison
    make = _HANDED_OVER[case]
    for encode, heights in ((bijections.psi312, perms.heights_312), (bijections.psi321, perms.heights_321)):
        want = _outcome(lambda: paths.path_from_down_heights(heights(make())))
        assert on_each_backend(lambda: _outcome(encode, make())) == [want, want]


# -- decoder primitive ------------------------------------------------------


def test_compiled_decoder_matches_pure_on_s0_to_s7(fastcount):
    for n in range(8):
        for rho in itertools.permutations(range(1, n + 1)):
            path = _purecount.path_from_heights(_purecount.heights_312(rho))
            assert fastcount.decode_psi312(path) == _purecount.decode_psi312(path) == rho
    assert fastcount.decode_psi312("UUUDJDUD") == (3, 1, 2)


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


_N21 = "UD" * 19 + "UUUDJD"  # 21 down-steps; h_20 = 2 exceeds n - 20 = 1


@pytest.mark.parametrize(
    "path, text",
    [
        ("UUUDJD", "height 2 at entry 1 exceeds n - i = 1"),
        ("UDUUUDJD", "height 2 at entry 2 exceeds n - i = 1"),
        ("UUJD", "jumps must be sandwiched between down-steps"),
        ("UUDJUD", "jumps must be sandwiched between down-steps"),
        ("UUDJ", "jumps must be sandwiched between down-steps"),
        (_N21, "height 2 at entry 20 exceeds n - i = 1"),
    ],
)
def test_decode_psi312_rejects_as_before(fastcount, on_each_backend, path, text):
    # the compiled decoder hands a rejected path over, and the pure
    # one names its fault as the sandwich check and the table did
    assert _compiled(fastcount, "decode_psi312", path, handed_over=1) == (_purecount.Rejected, text)
    assert on_each_backend(bijections.decode_psi312, path) == [(bijections.NotInImageError, text)] * 2


@pytest.mark.parametrize(
    "path, text",
    [
        ("UDDU", "invalid path: path goes below the horizontal axis (prefix 3)"),
        ("UxD", "invalid path: invalid step character 'x' (prefix 1)"),
        ("UUD", "invalid path: path ends at height 1, not 0 (prefix 3)"),
    ],
)
def test_decode_psi312_path_faults_as_before(fastcount, on_each_backend, path, text):
    expect = _outcome(_purecount.decode_psi312, path)
    assert _compiled(fastcount, "decode_psi312", path, handed_over=1) == expect
    assert expect[0] is _purecount.Rejected
    assert on_each_backend(bijections.decode_psi312, path) == [(paths.PathError, text)] * 2


def test_decode_psi312_inverts_psi312_on_s8():
    for rho in all_permutations(8):
        assert bijections.decode_psi312(bijections.psi312(rho)) == rho


def test_one_pass_decoder_inverts_psi312_on_s8_on_each_backend(on_each_backend):
    images = [(rho, bijections.psi312(rho)) for rho in all_permutations(8)]

    def all_invert():
        return all(bijections.decode_psi312(path) == rho for rho, path in images)

    assert on_each_backend(all_invert) == [True, True]


def test_one_pass_decoder_hands_over_n21(fastcount, on_each_backend):
    rho = Permutation(_LONG)
    path = bijections.psi312(rho)
    assert _compiled(fastcount, "decode_psi312", path, handed_over=1) == rho
    assert on_each_backend(bijections.decode_psi312, path) == [rho, rho]


# -- jump predictions -------------------------------------------------------


def _image(rho, key):
    """The heights and jump runs of ``rho``'s image under the encoder for
    ``key``, as ``scan_path`` gives them."""
    heights = (_purecount.heights_312 if key == "312" else _purecount.heights_321)(rho)
    scanned = _purecount.scan_path(_purecount.path_from_heights(heights))
    return scanned[0], scanned[2]


def test_compiled_predictions_match_pure_on_s0_to_s7(fastcount):
    hosts = 0
    for n in range(8):
        for rho in itertools.permutations(range(1, n + 1)):
            for key in ("312", "321"):
                heights, spans = _image(rho, key)
                if spans:
                    hosts += 1
                    got = fastcount.predicted_triples(rho, key, heights, spans)
                    assert got == _purecount.predicted_triples(rho, key, heights, spans), (rho, key)
    # every image but an avoider's has a jump: 5,914 permutations, 626 avoiders
    assert hosts == 2 * (5914 - 626)


@settings(deadline=None, max_examples=200)
@given(_perms_up_to(20), st.sampled_from(["312", "321"]))
def test_compiled_predictions_match_pure_random(fastcount, p, key):
    heights, spans = _image(p, key)
    assert fastcount.predicted_triples(p, key, heights, spans) == _purecount.predicted_triples(p, key, heights, spans)


_HOST = (4, 3, 5, 1, 2)  # psi312: one jump, at position 3 with m = l = 1


@pytest.mark.parametrize(
    "args",
    [
        (_LONG, "312", *_image(_LONG, "312")),  # n = 21 > MAXN
        (_LONG, "321", *_image(_LONG, "321")),
        (_HOST, "213", *_image(_HOST, "312")),  # a key other than "312" or "321"
        (_HOST, 312, *_image(_HOST, "312")),
        (_HOST, "312", (3, 2, 2, 0, 0), ((8, 9, 3, 1, 3),)),  # a run past n: 3 + 3 > 5
        (_HOST, "312", (3, 2, 2, 0, 0), ((8, 9, 5, 1, 0),)),  # position n
        (_HOST, "312", (3, 2, 2, 0, 0), ((8, 9, 0, 0, 1),)),  # position 0
        (_HOST, "312", (3, 2, 2, 0, 0), ((8, 9, 1, 2, 1),)),  # m > position
        (_HOST, "312", (3, 2, 2, 0), ((8, 9, 3, 1, 1),)),  # heights not n long
        (_HOST, "312", (3, 2, 2, 0, -1), ((8, 9, 3, 1, 1),)),  # a negative height
        (_HOST, "312", (3, 2, 2, 0, 2**31), ((8, 9, 3, 1, 1),)),  # a height above 2**30
        (_HOST, "312", (3, 2, 2, 0, 0), ((8, 9, 3, 1),)),  # a run of four fields
        (_HOST, "312", (3, 2, 2, 0, 0), ((8, 9, 3, 1, 1.0),)),
        (_HOST, "312", (3, 2, 2, 0, 0), 5),
        ((4, 3, 5, 1, 1), "312", (3, 2, 2, 0, 0), ((8, 9, 3, 1, 1),)),  # not a permutation
    ],
)
def test_compiled_predictions_hand_over(fastcount, on_each_backend, args):
    # the predictor's hand-over cases; it takes four arguments, so the
    # one-argument cases of ``test_compiled_primitives_hand_over`` do not fit it
    expect = _outcome(_purecount.predicted_triples, *args)
    assert _compiled(fastcount, "predicted_triples", *args, handed_over=1) == expect
    assert on_each_backend(kernels.predicted_triples, *args) == [expect, expect]


def test_compiled_predictions_of_a_known_host(fastcount):
    heights, spans = _image(_HOST, "312")
    assert (heights, spans) == ((3, 2, 2, 0, 0), ((8, 9, 3, 1, 1),))
    # the base triple and the down-run's, both (3, 4, 5), once; and the
    # earlier maximum 4's (1, 4, 5), sorted first
    expect = ((1, 4, 5), (3, 4, 5))
    for backend in (fastcount, _purecount):
        assert backend.predicted_triples(_HOST, "312", heights, spans) == expect
        assert backend.predicted_triples(list(_HOST), "312", list(heights), list(map(list, spans))) == expect


# analyze_jumps and predicted_occurrences over S_0..S_7, as the sha256 of
# their reprs in order: the digests of the code that kept the rule in
# ``bijections`` and predicted in Python
_JUMP_DIGESTS = {
    "312": (
        "042e0ed20beee522fbc3e5ceb938b94e80216d3a6b357063c24aa88c7003a7a8",
        "a51cae37413bc84ea8175606358dc70f86dcc2772e457eb2142be4c1a9c3443e",
    ),
    "321": (
        "801a6edaab4d63c4573b9cb99ad8a1407c46b5e42c0c82923e192b0377ae015a",
        "8c1a4d34458d48284fcdf219a9c12c306e79ac7ea5240835348240706307d078",
    ),
}


@pytest.mark.parametrize("tau", ["312", "321"])
def test_jump_analyses_and_predictions_as_before(tau):
    analyses, predictions = hashlib.sha256(), hashlib.sha256()
    for n in range(8):
        for rho in all_permutations(n):
            analyses.update(repr(bijections.analyze_jumps(rho, tau)).encode())
            predictions.update(repr(bijections.predicted_occurrences(rho, tau)).encode())
    assert (analyses.hexdigest(), predictions.hexdigest()) == _JUMP_DIGESTS[tau]


# -- the bijection audit ----------------------------------------------------


def _images(n, key):
    return [bijections.psi_tau(rho, key) for rho in all_permutations(n)]


def _drop_last(path, step):
    i = path.rfind(step)
    return path[:i] + path[i + 1 :]


def _edited(edit):
    return lambda n, key: [edit(path) for path in _images(n, key)]


# the images of faulty encoders: each permutation given its successor's
# image (the last the first's), the staircase map's jump-free image, and
# the encoder's image with one down-step too many, with its last step cut
# off (not a path), with a jump's down-run moved before it, with one
# up-step and one down-step too few, or, where it ends in a peak, with a
# jump between that peak's up-step and down-step (the same heights, the
# jump not sandwiched)
_FAULTY = {
    "rotated": lambda n, key: _images(n, key)[1:] + _images(n, key)[:1],
    "staircase": lambda n, key: [bijections.psi_avoiding(rho) for rho in all_permutations(n)],
    "append UD": _edited(lambda path: path + "UD"),
    "cut last step": _edited(lambda path: path[:-1]),
    "down-step before jump": _edited(lambda path: path.replace("JD", "DJ", 1)),
    "drop last U and D": _edited(lambda path: _drop_last(_drop_last(path, "U"), "D")),
    "jump in last peak": _edited(lambda path: path[:-2] + "UUJD" if path.endswith("UD") else path),
}


@pytest.mark.parametrize("key", ["312", "321"])
@pytest.mark.parametrize("faulty", _FAULTY)
def test_compiled_audit_names_the_loops_first_failures(fastcount, on_each_backend, key, faulty):
    images = _FAULTY[faulty](5, key)
    got = _compiled(fastcount, "audit_images", 5, key, images, handed_over=0)
    assert got[0]
    hosts = list(all_permutations(5))
    loop = on_each_backend(lambda: audit._audit_loop(hosts, images, audit._image_checks(key)))
    assert loop == [got, got]


@pytest.mark.parametrize(
    "args",
    [
        (3, "312", _images(3, "312")[:-1] + [b"UUUDDD"]),  # an image that is not a str
        (3, "321", _images(3, "321")[:-1]),  # n! - 1 images
        (13, "312", []),  # n above 12
        (3, "213", _images(3, "312")),  # no encoder for the key
        (2, "312", ["UUJDUD", "UUDD"]),  # a compared jump run at position 0
        (13, "321"),  # the walk: n above 12
        (3, "213"),  # the walk: no encoder for the key
    ],
)
def test_compiled_audit_hands_over(fastcount, args):
    # None, the pure answer, sends the audit down its next route
    assert _compiled(fastcount, "audit_images", *args, handed_over=1) is None


@pytest.mark.parametrize("key", ["312", "321"])
def test_walk_answers_as_on_the_encoders_images(fastcount, key):
    # the walk writes each image as ``encode_path`` does; its answer names
    # hosts as tuples and images as str, in rank order
    for n in range(8):
        walked = _compiled(fastcount, "audit_images", n, key, handed_over=0)
        assert walked == _compiled(fastcount, "audit_images", n, key, _images(n, key), handed_over=0)
        failed, avoiders, singles = walked
        assert failed == {}
        assert len(avoiders) == perms.catalan_number(n)
        assert all(type(rho) is tuple for rho, _ in avoiders)
        assert [path for _, path in avoiders] == [bijections.psi_tau(rho, key) for rho, _ in avoiders]
        assert list(singles) == [tuple(r) for r in all_permutations(n) if kernels.count_pair(r)[key == "321"] == 1]


def test_audit_images_takes_two_or_three_arguments(fastcount):
    for args in ((3,), (3, "312", [], None)):
        with pytest.raises(TypeError, match="2 or 3 arguments"):
            fastcount.audit_images(*args)
