"""The recorded rows and their integer expansion, against the ``Series``
oracle ``series.gf``."""

import ast
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import pytest

import permdyck
from permdyck import recorded, series
from permdyck.perms import PatternError

ROWS = sorted(recorded.GF_PQ) + [("312", 0)]


@pytest.fixture
def patched_row(monkeypatch):
    """Replace one row of ``GF_PQ`` for the test, and the same row of the
    integer table ``coefficients`` reads, with ``gf``'s cache clear on both
    sides of it."""

    def patch(row, p, q):
        monkeypatch.setitem(recorded.GF_PQ, row, (p, q))
        den = lcm(*(Fraction(v).denominator for poly in (p, q) for v in poly.values()))
        ints = ({i: int(v * den) for i, v in poly.items()} for poly in (p, q))
        monkeypatch.setitem(recorded._ROWS, row, (den, *ints))

    series._gf_cached.cache_clear()
    yield patch
    series._gf_cached.cache_clear()


class TestMovedNames:
    @pytest.mark.parametrize("name", ["GF_PQ", "CONJECTURAL", "count_closed_form"])
    def test_series_reexports_the_same_object(self, name):
        assert getattr(series, name) is getattr(recorded, name)

    def test_series_denominator_follows_the_rule(self):
        for key, r in ROWS:
            c, e, m = recorded.denominator(key, r)
            d, label = series._denominator(key, r, 40)
            want = series.monomial(2 * e, 40, c) * series.sqrt_one_minus_4x(40) ** m
            assert d.coeffs == want.coeffs, (key, r)
            assert label == (f"sqrt(1-4x)^{m}" if m else f"{c} x^{e}")


class TestCoefficients:
    @pytest.mark.parametrize("row", ROWS, ids="{0[0]}-r{0[1]}".format)
    def test_equals_series_gf_to_n400(self, row):
        key, r = row
        assert recorded.coefficients(key, r, 400) == list(series.gf(key, r, 800).x_coefficients())

    @pytest.mark.parametrize("n_max", [0, 1, 2, 7])
    def test_short_prefixes(self, n_max):
        for key, r in ROWS:
            got = recorded.coefficients(key, r, n_max)
            assert got == recorded.coefficients(key, r, 40)[: n_max + 1], (key, r)

    @pytest.mark.parametrize("m", range(-4, 6))
    def test_binomial_series(self, m):
        # (1-4x)^(-m/2) = sqrt(1-4x)^(-m), by series arithmetic
        s = series.sqrt_one_minus_4x(60)
        want = s ** -m if m <= 0 else series.one(60) / s**m
        assert recorded._binomial_series(m, 30) == list(want.x_coefficients())
        if m == 1:
            assert recorded._binomial_series(m, 30) == [comb(2 * k, k) for k in range(31)]

    @pytest.mark.parametrize(
        "tau,r,text",
        [
            ("321", 5, r"no generating function recorded for \(321, r=5\)"),
            ("312", 3, r"no generating function recorded for \(312, r=3\)"),
            ("321", -1, r"no generating function recorded for \(321, r=-1\)"),
        ],
    )
    def test_missing_row(self, tau, r, text):
        with pytest.raises(ValueError, match=text):
            recorded.coefficients(tau, r, 10)
        with pytest.raises(ValueError, match=text):
            series.gf(tau, r, 20)

    def test_bad_arguments(self):
        with pytest.raises(PatternError):
            recorded.coefficients("132", 1, 10)
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            recorded.coefficients("321", 1, -1)

    def test_flipped_sqrt_sign_is_not_a_power_series(self, patched_row):
        # the opposite sign of the sqrt part of (3,2,1), r = 4
        p, q = recorded.GF_PQ[("321", 4)]
        patched_row(("321", 4), p, {i: -v for i, v in q.items()})
        text = "dividend valuation below divisor valuation 18: quotient is not a power series"
        with pytest.raises(ValueError) as got:
            recorded.coefficients("321", 4, 20)
        with pytest.raises(ValueError) as want:
            series.gf("321", 4, 40)
        assert str(got.value) == str(want.value) == text

    def test_odd_numerator_is_not_an_integer(self, patched_row):
        # P's x^3 coefficient of (3,2,1), r = 1, off by one: the numerator's
        # x^3 coefficient turns odd, and F's constant term becomes 1/2
        p, q = recorded.GF_PQ[("321", 1)]
        patched_row(("321", 1), {**p, 3: p[3] + 1}, q)
        with pytest.raises(AssertionError) as got:
            recorded.coefficients("321", 1, 20)
        with pytest.raises(AssertionError) as want:
            series.gf("321", 1, 40)
        assert str(got.value) == str(want.value) == "gf(321,1) has a bad x^0 coefficient: 1/2"

    def test_negative_coefficient(self, patched_row):
        patched_row(("321", 1), {3: -2}, {0: 0})
        with pytest.raises(AssertionError) as got:
            recorded.coefficients("321", 1, 20)
        with pytest.raises(AssertionError) as want:
            series.gf("321", 1, 40)
        assert str(got.value) == str(want.value) == "gf(321,1) has a bad x^0 coefficient: -1"

    def test_half_integer_312_row_keeps_its_scale(self, patched_row):
        # halving every entry of the (3,1,2), r = 1 row halves F: x^3 gives 1/2
        p, q = recorded.GF_PQ[("312", 1)]
        patched_row(("312", 1), {i: v / 2 for i, v in p.items()}, {i: v / 2 for i, v in q.items()})
        with pytest.raises(AssertionError) as got:
            recorded.coefficients("312", 1, 10)
        with pytest.raises(AssertionError) as want:
            series.gf("312", 1, 20)
        assert str(got.value) == str(want.value) == "gf(312,1) has a bad x^3 coefficient: 1/2"


def test_inexact_closed_form_raises(monkeypatch):
    # with every binomial read as 1, 3 C(8, 1) / 4 turns into 3/4
    monkeypatch.setattr(recorded, "comb", lambda a, b: 1)
    with pytest.raises(AssertionError) as got:
        recorded.count_closed_form("321", 1, 4)
    assert got.value.args == (("321", 1, 4, Fraction(3, 4)),)


def test_no_assert_statement_in_the_package():
    """``python -O`` strips ``assert``: every check in the package raises."""
    root = Path(permdyck.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found
