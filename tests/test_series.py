"""Exact series arithmetic, closed forms, assemblies, and general form."""

import random
import re
from fractions import Fraction
from itertools import chain, count
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdyck import series
from permdyck.perms import catalan_number
from permdyck.series import Series, from_x_poly, monomial, one

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)
SEQ_312_1 = (0, 0, 0, 1, 5, 21, 84, 330, 1287, 5005, 19448, 75582, 293930)
SEQ_312_2 = (0, 0, 0, 0, 4, 23, 107, 464, 1950, 8063, 33033, 134576, 546312)
SEQ_321_1 = (0, 0, 0, 1, 6, 27, 110, 429, 1638, 6188, 23256, 87210, 326876)
SEQ_321_2 = (0, 0, 0, 0, 3, 24, 133, 635, 2807, 11864, 48756, 196707, 783750)

small_polys = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8).map(
    lambda cs: Series(cs + [0] * (24 - len(cs)) if len(cs) < 24 else cs[:24])
)

small_fraction_polys = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=7), min_size=1, max_size=6
)


class TestArithmetic:
    def test_sqrt_one_minus_4x(self):
        s = series.sqrt_one_minus_4x(16)
        assert s.x_coefficients()[:4] == (1, -2, -2, -4)
        assert (s * s).first_mismatch(from_x_poly({0: 1, 1: -4}, 16)) is None

    def test_reciprocal(self):
        f = from_x_poly({0: 1, 1: -4}, 20)
        assert (f * (one(20) / f)).first_mismatch(one(20)) is None

    def test_shift(self):
        c = series.catalan(10)
        xc = c.shift(2)
        assert xc.valuation() == 2
        assert xc.shift(-2).first_mismatch(c) is None
        with pytest.raises(ValueError):
            c.shift(-1)

    def test_division_valuation_guard(self):
        t2 = monomial(2, 10)
        with pytest.raises(ValueError):
            one(10) / t2
        assert (t2 / t2).coeff(0) == 1
        with pytest.raises(ZeroDivisionError):
            one(10) / series.zero(10)

    def test_sqrt_requires_unit_constant(self):
        with pytest.raises(ValueError):
            from_x_poly({0: 2}, 8).sqrt()

    def test_coeff_bounds(self):
        c = series.catalan(10)
        with pytest.raises(IndexError):
            c.coeff(11)

    def test_lives_in_x(self):
        assert series.catalan(12).lives_in_x()
        assert not monomial(1, 4).lives_in_x()
        with pytest.raises(ValueError):
            monomial(1, 4).x_coefficients()

    @settings(deadline=None, max_examples=60)
    @given(small_polys, small_polys)
    def test_ring_properties(self, f, g):
        assert (f + g).first_mismatch(g + f) is None
        assert (f * g).first_mismatch(g * f) is None
        assert ((f + g) - g).first_mismatch(f) is None

    @settings(deadline=None, max_examples=60)
    @given(small_polys)
    def test_division_roundtrip(self, g):
        if g.is_zero():
            return
        f = series.catalan(g.order)
        assert ((f * g) / g).first_mismatch(f.truncate((f * g).order - g.valuation())) is None

    def test_product_against_schoolbook(self):
        rng = random.Random(20261018)
        for _ in range(300):
            f = random_series(rng, rng.randint(0, 40))
            g = random_series(rng, rng.randint(0, 40))
            want = schoolbook_product(f, g)
            for got in (f * g, g * f):
                assert got.coeffs == want.coeffs
                assert types(got) == types(want)
        # series in x: every odd t-coefficient is zero
        c, s = series.catalan(61), series.sqrt_one_minus_4x(50)
        assert (c * s).coeffs == schoolbook_product(c, s).coeffs

    @settings(deadline=None, max_examples=40)
    @given(small_polys)
    def test_sqrt_squares_back(self, f):
        h = one(f.order) + f.shift(1).truncate(f.order)  # constant term 1
        assert (h.sqrt() * h.sqrt()).first_mismatch(h) is None


def schoolbook_quotient(f: Series, g: Series) -> Series:
    """Long division with every j <= k, zero or not: after shifting both
    operands down by the divisor's valuation v, q_k = (a_k - sum_{j=1}^{k}
    b_j q_{k-j}) / b_0, each divided as a Fraction."""
    v = g.valuation()
    a, b = f.coeffs[v:], g.coeffs[v:]
    q: list = []
    for k in range(min(len(a), len(b))):
        acc = a[k]
        for j in range(1, k + 1):
            acc -= b[j] * q[k - j]
        q.append(Fraction(acc) / b[0])
    return Series(q)


def schoolbook_sqrt(f: Series) -> Series:
    """s_0 = 1 and s_k = (a_k - sum_{i=1}^{k-1} s_i s_{k-i}) / 2, every pair
    of the sum multiplied, each halving a Fraction."""
    out: list = [1]
    for k in range(1, f.order + 1):
        acc = f.coeffs[k]
        for i in range(1, k):
            acc -= out[i] * out[k - i]
        out.append(Fraction(acc) / 2)
    return Series(out)


coefficients = st.one_of(
    st.just(0),
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)
nonzero_coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]),
    st.integers(min_value=-30, max_value=30).filter(bool),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
)


@st.composite
def series_values(draw, head=coefficients, valuation=0, in_x=False, max_size=30):
    """A series of valuation at least ``valuation`` whose first coefficient
    past it is drawn from ``head``; ``in_x`` zeroes every odd
    t-coefficient (``valuation`` must then be even)."""
    cs = [draw(head)] + draw(st.lists(coefficients, max_size=max_size))
    if in_x:
        cs = [c for pair in zip(cs, [0] * len(cs)) for c in pair]
    return Series([0] * valuation + cs)


@st.composite
def quotient_operands(draw):
    """A dividend and a divisor of the same valuation v (even when both live
    in x); the dividend may vanish to a higher order."""
    in_x = draw(st.booleans())
    v = draw(st.integers(min_value=0, max_value=4)) * (2 if in_x else 1)
    g = draw(series_values(head=nonzero_coefficients, valuation=v, in_x=in_x))
    f = draw(series_values(valuation=v, in_x=in_x))
    return f, g


class TestAgainstSchoolbook:
    """Division and square root skip zero coefficients and divide ints
    exactly; these compare them, coefficient and type, with the loops that
    multiply every pair and divide every coefficient as a Fraction."""

    @settings(deadline=None, max_examples=300)
    @given(quotient_operands())
    def test_division(self, operands):
        f, g = operands
        got, want = f / g, schoolbook_quotient(f, g)
        assert got.coeffs == want.coeffs
        assert types(got) == types(want)

    @settings(deadline=None, max_examples=200)
    @given(st.booleans(), st.data())
    def test_sqrt(self, in_x, data):
        tail = data.draw(series_values(valuation=2 if in_x else 1, in_x=in_x))
        f = one(tail.order) + tail
        got, want = f.sqrt(), schoolbook_sqrt(f)
        assert got.coeffs == want.coeffs
        assert types(got) == types(want)

    def test_recorded_denominators(self):
        # the kinds of division ``gf`` and the assemblies run: by a monomial
        # and by the x-series 1 - cx
        s = series.sqrt_one_minus_4x(70)
        num = from_x_poly({0: 1, 1: -5, 2: 3}, 70) + from_x_poly({0: -1, 1: 3}, 70) * s
        cx = series.catalan(70) * from_x_poly({1: 1}, 70)
        for f, den in ((num.shift(10), monomial(10, 80, 2)), (num, one(70) - cx)):
            assert (f / den).coeffs == schoolbook_quotient(f, den).coeffs
        assert s.coeffs == schoolbook_sqrt(from_x_poly({0: 1, 1: -4}, 70)).coeffs

    def test_error_texts(self):
        below = "^dividend valuation below divisor valuation 2: quotient is not a power series$"
        with pytest.raises(ValueError, match=below):
            monomial(1, 6) / monomial(2, 6)
        with pytest.raises(ValueError, match="^dividend truncated below divisor valuation 3$"):
            Series([0, 0]) / monomial(3, 6)
        with pytest.raises(ZeroDivisionError, match="^division by the zero series$"):
            one(4) / series.zero(4)
        for f in (Series([2, 1]), Series([Fraction(1, 2)]), Series([0, 1])):
            with pytest.raises(ValueError, match="^sqrt requires constant term 1$"):
                f.sqrt()


def schoolbook_product(f: Series, g: Series) -> Series:
    """The truncated convolution, every coefficient pair multiplied."""
    m = min(f.order, g.order)
    return Series(sum(f.coeffs[i] * g.coeffs[k - i] for i in range(k + 1)) for k in range(m + 1))


def random_series(rng: random.Random, order: int) -> Series:
    """Runs of zeros between negative and positive ints and Fractions."""
    cs: list = []
    while len(cs) <= order:
        kind = rng.randrange(4)
        if kind == 0:
            cs.extend([0] * rng.randint(1, 6))
        elif kind == 1:
            cs.append(rng.randint(-10**6, 10**6))
        elif kind == 2:
            cs.append(Fraction(rng.randint(-50, 50), rng.randint(1, 12)))
        else:
            cs.extend(rng.choice((0, rng.randint(-9, 9))) for _ in range(rng.randint(1, 4)))
    return Series(cs[: order + 1])


def types(f: Series) -> list[type]:
    return [type(c) for c in f.coeffs]


class TestCoefficientTypes:
    """Ints stay int, integral Fractions become int, proper fractions stay
    Fraction, whichever operation made the series."""

    def test_constructor(self):
        f = Series([3, Fraction(4, 2), Fraction(1, 3), Fraction(0, 5)])
        assert f.coeffs == (3, 2, Fraction(1, 3), 0)
        assert types(f) == [int, int, Fraction, int]

    def test_bools_become_ints(self):
        f = Series([True, 0, 2, False])
        assert f.coeffs == (1, 0, 2, 0)
        assert types(f) == [int] * 4
        assert repr(f) == "Series([1, 0, 2, 0]; order=3)"
        assert types(Series([Fraction(1, 2), True])) == [Fraction, int]

    @pytest.mark.parametrize("cs", [[0.1], [1, 0.5], [Fraction(1, 3), 2.0]])
    def test_floats_are_refused(self, cs):
        bad = next(c for c in cs if isinstance(c, float))
        with pytest.raises(TypeError, match=f"float {bad!r}"):
            Series(cs)

    @pytest.mark.parametrize(
        "op, text",
        [
            (lambda f: f * 0.5, "*: 'Series' and 'float'"),
            (lambda f: f + 0.5, "+: 'Series' and 'float'"),
            (lambda f: f - 0.5, "-: 'Series' and 'float'"),
            (lambda f: f / 0.5, "/: 'Series' and 'float'"),
            (lambda f: 0.5 * f, "*: 'float' and 'Series'"),
            (lambda f: 0.5 - f, "-: 'float' and 'Series'"),
            (lambda f: f - "1", "-: 'Series' and 'str'"),
        ],
    )
    def test_other_operands_are_unsupported(self, op, text):
        # an operand that is neither an int, a Fraction nor a Series gets
        # Python's TypeError for the operator, as a float coefficient does
        with pytest.raises(TypeError, match=re.escape(f"unsupported operand type(s) for {text}")):
            op(Series([1, 2]))

    def test_scalar_add(self):
        f = Series([Fraction(1, 2), 1])
        assert types(f + Fraction(1, 2)) == [int, int]
        assert types(f + 1) == [Fraction, int]
        assert types(Fraction(1, 2) - f) == [int, int]
        assert types(Series([1, 1]) + 2) == [int, int]

    def test_scalar_mul(self):
        f = Series([1, Fraction(1, 2), Fraction(1, 3)])
        assert (f * 2).coeffs == (2, 1, Fraction(2, 3))
        assert types(f * 2) == [int, int, Fraction]
        assert types(6 * f) == [int, int, int]

    def test_scalar_div(self):
        f = Series([2, 3, Fraction(1, 2)])
        assert (f / 2).coeffs == (1, Fraction(3, 2), Fraction(1, 4))
        assert types(f / 2) == [int, Fraction, Fraction]
        assert types(f / Fraction(1, 2)) == [int, int, int]

    def test_series_division(self):
        q = Series([2, 1, 0, 0]) / Series([2, 0, 0, 0])
        assert q.coeffs == (1, Fraction(1, 2), 0, 0)
        assert types(q) == [int, Fraction, int, int]
        assert types(one(8) / Series([1, -1] + [0] * 7)) == [int] * 9

    def test_sqrt(self):
        assert types(from_x_poly({0: 1, 1: -4}, 12).sqrt()) == [int] * 13
        h = Series([1, 1, 0, 0]).sqrt()
        assert h.coeffs == (1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16))
        assert types(h) == [int, Fraction, Fraction, Fraction]

    def test_shift_and_truncate(self):
        f = Series([1, Fraction(1, 2), 3])
        assert types(f.shift(2)) == [int, int, int, Fraction, int]
        assert types(f.shift(2).shift(-2)) == [int, Fraction, int]
        assert types(f.truncate(1)) == [int, Fraction]

    @pytest.mark.parametrize("order", [-1, -2, -3])
    def test_truncate_below_the_constant(self, order):
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            Series([1, 2, 3, 4, 5]).truncate(order)


class TestCatalan:
    def test_sequence(self):
        c = series.catalan(24)
        assert c.x_coefficients() == CATALAN
        assert c.x_coeff(12) == 208012

    def test_functional_equation(self):
        c = series.catalan(30)
        x = from_x_poly({1: 1}, 30)
        assert (one(30) + x * c * c).first_mismatch(c) is None
        assert (one(30) / c).first_mismatch(one(30) - x * c) is None

    def test_catalan_number(self):
        assert [series.catalan_number(n) for n in range(10)] == list(CATALAN[:10])


class TestGeneratingFunctions:
    @pytest.mark.parametrize(
        "tau,r,expected",
        [
            ("312", 0, CATALAN),
            ("321", 0, CATALAN),
            ("312", 1, SEQ_312_1),
            ("312", 2, SEQ_312_2),
            ("321", 1, SEQ_321_1),
            ("321", 2, SEQ_321_2),
        ],
    )
    def test_reference_sequences(self, tau, r, expected):
        g = series.gf(tau, r, 2 * len(expected))
        assert g.x_coefficients()[: len(expected)] == expected

    def test_spot_values(self):
        g = series.gf("321", 2, 16)
        assert (g.x_coeff(4), g.x_coeff(5), g.x_coeff(6)) == (3, 24, 133)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            series.gf("312", 3, 10)

    @pytest.mark.parametrize("tau,r", [("312", 0), ("312", 1), ("312", 2), ("321", 1), ("321", 2)])
    def test_gf_matches_closed_form_counts(self, tau, r):
        g = series.gf(tau, r, 80)
        for n in range(41):
            assert g.x_coeff(n) == series.count_closed_form(tau, r, n), (tau, r, n)

    @pytest.mark.parametrize("order", [-1, -2, -3])
    def test_negative_order_raises_for_every_row(self, order):
        # gf truncates from a padded working order, which a negative
        # order must not slice from the end
        for key, r in sorted(series.GF_PQ) + [("312", 0)]:
            with pytest.raises(ValueError, match="at least the constant coefficient"):
                series.gf(key, r, order)

    @pytest.mark.parametrize("order", [0, 1, 20, 81])
    def test_every_row_reaches_the_order(self, order):
        for key, r in series.GF_PQ:
            assert series.gf(key, r, order).order == order, (key, r)

    def test_deep_monomial_denominator_reaches_the_order(self, monkeypatch):
        # D = 2 x^13 takes 26 t-orders, more than any recorded row's D
        monkeypatch.setitem(series.GF_PQ, ("321", 6), ({13: 2}, {0: 0}))
        series._gf_cached.cache_clear()
        try:
            g = series.gf("321", 6, 40)
        finally:
            series._gf_cached.cache_clear()
        assert g.order == 40
        assert g.coeffs == (1,) + (0,) * 40

    def test_conjectural_flags(self):
        assert ("321", 3) in series.CONJECTURAL
        assert ("321", 4) in series.CONJECTURAL
        assert ("312", 1) not in series.CONJECTURAL


class TestClosedFormCounts:
    @pytest.mark.parametrize(
        "tau,r,expected",
        [
            ("312", 0, CATALAN),
            ("312", 1, SEQ_312_1),
            ("312", 2, SEQ_312_2),
            ("321", 1, SEQ_321_1),
            ("321", 2, SEQ_321_2),
        ],
    )
    def test_sequences(self, tau, r, expected):
        assert [series.count_closed_form(tau, r, n) for n in range(13)] == list(expected)

    def test_conventions(self):
        for tau in ("312", "321"):
            for r in (1, 2):
                assert series.count_closed_form(tau, r, 0) == 0
                assert series.count_closed_form(tau, r, 1) == 0
            assert series.count_closed_form(tau, 0, 0) == 1
            assert series.count_closed_form(tau, 0, 1) == 1

    def test_spot_formula_values(self):
        assert series.count_closed_form("321", 2, 4) == 3
        assert series.count_closed_form("312", 2, 4) == 4


def climb_oracle(l: int, m: int) -> int:
    """Paths from height 0 to height l, never below 0, with m down-steps."""
    f = {0: 1}
    for _ in range(2 * m + l):
        g: dict[int, int] = {}
        for h, c in f.items():
            g[h + 1] = g.get(h + 1, 0) + c
            if h > 0:
                g[h - 1] = g.get(h - 1, 0) + c
        f = g
    return f.get(l, 0)


def between_oracle(k: int, l: int, m: int) -> int:
    """Paths from height k to height l, never below 0, with m down-steps."""
    f = {k: 1}
    for _ in range(2 * m + l - k):
        g: dict[int, int] = {}
        for h, c in f.items():
            g[h + 1] = g.get(h + 1, 0) + c
            if h > 0:
                g[h - 1] = g.get(h - 1, 0) + c
        f = g
    return f.get(l, 0)


class TestClimbSegments:
    def test_climb_is_c_power(self):
        w = 30
        c5x2 = (series.catalan(w) ** 5).shift(4)
        assert series.climb_segment(4, w).first_mismatch(c5x2) is None

    def test_single_term_sum(self):
        for l in range(4):
            assert (
                series.between_heights(0, l, 20)
                .first_mismatch(series.climb_segment(l, 20))
                is None
            )

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_climb_coefficients_against_dp(self, l):
        cs = series.climb_segment(l, 30)
        for m in range(8):
            assert cs.coeff(2 * m + l) == climb_oracle(l, m)

    @pytest.mark.parametrize("k,l", [(0, 0), (1, 1), (1, 3), (2, 4)])
    def test_between_heights_against_dp(self, k, l):
        cs = series.between_heights(k, l, 30)
        for m in range(7):
            assert cs.coeff(2 * m + l - k) == between_oracle(k, l, m)

    @pytest.mark.parametrize("order", [0, 1, 2, 10, 41, 62, 82, 121])
    def test_power_table(self, order):
        c = series.catalan(order)
        power = one(order)
        for k in range(71):
            table = series._cpow(k, order)
            assert table.coeffs == power.coeffs, k
            assert types(table) == [int] * (order + 1)
            power = power * c

    def test_power_table_refuses_negative_orders(self):
        for k in (0, 1, 5):
            with pytest.raises(ValueError, match="at least the constant coefficient"):
                series._cpow(k, -1)

    def test_climb_far_past_the_order(self):
        # c**1501 shifted by t**1500 vanishes to order 10; the power table
        # must reach k = 1501 without recursing through smaller powers
        assert series.climb_segment(1500, 10).is_zero()
        # [x^n] c^k = k/(2n+k) C(2n+k, n)
        assert series._cpow(1501, 10).x_coefficients() == tuple(
            1501 * comb(2 * n + 1501, n) // (2 * n + 1501) for n in range(6)
        )

    def test_truncated_sum(self):
        built = []

        def terms():
            for e in range(1, 100):
                built.append(e)
                yield e, Series([e, 1, 0, 0, 0, 0])

        got = series._tsum(4, terms())
        assert got.coeffs == (0, 1, 3, 4, 5)
        assert types(got) == [int] * 5
        assert built == [1, 2, 3, 4, 5]  # stops at the first exponent past t^4
        with pytest.raises(ValueError, match="not exact"):
            series._tsum(6, [(2, Series([1, 1]))])


class MutatedPower:
    """A workbench whose c**e is c**(e+1) for one exponent e."""

    def __init__(self, w: series._Workbench, exponent: int):
        self._w, self._exponent = w, exponent

    def __getattr__(self, name):
        return getattr(self._w, name)

    def cpow(self, k: int) -> Series:
        return self._w.cpow(k + 1 if k == self._exponent else k)


def count_products(monkeypatch) -> list:
    """Record the second operand of every ``Series`` product from now on."""
    products = []
    original = Series.__mul__

    def mul(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(Series, "__mul__", mul)
    monkeypatch.setattr(Series, "__rmul__", mul)
    return products


# Each sum as the paper writes it: every term a full product with the
# shared factor 1/((1-cx)(1-x)) or 1/(1-x), against the factored form
def _occ1_321_per_term(w):
    base = w.inv_1_cx * w.inv_1_x * w.cpow(2)
    terms = ((2 * l + 6, w.cpow(l + 2) * base) for l in count(1))
    return series._tsum(w.N, chain([(6, w.c * base)], terms))


def _S321_2_2_per_term(w):
    base = w.inv_1_cx * w.inv_1_x * w.cpow(3)
    terms = ((2 * l + 8, w.cpow(l + 2) * base) for l in count(2))
    return series._tsum(w.N, chain([(10, w.c * base), (12, w.cpow(3) * base)], terms))


def _inner_sum_per_term(w, offset, cexp, tail, l):
    terms = ((2 * k + offset + l + tail, w.inv_1_x * w.cpow(k + cexp)) for k in count())
    return series._tsum(w.N, terms)


PER_TERM = {
    "occ1-321": (series._occ1_321_sum, _occ1_321_per_term),
    "S321-2-2": (series._S321_2_2_sum, _S321_2_2_per_term),
    "inner-c2-l0": (
        lambda w: series._inner_sum(w, 5, 2, 1, 0),
        lambda w: _inner_sum_per_term(w, 5, 2, 1, 0),
    ),
    "inner-c3-l4": (
        lambda w: series._inner_sum(w, 4, 3, 2, 4),
        lambda w: _inner_sum_per_term(w, 4, 3, 2, 4),
    ),
}


class TestAssemblies:
    def test_order_40_all_pass(self):
        report = series.check_assemblies(40)
        failures = [str(c) for c in report.checks if not c.passed]
        assert report.passed, failures
        names = {c.name for c in report.checks}
        assert "312.r1.sum-equals-closed-form" in names
        assert "321.r2.together-equals-gf" in names
        assert "312.r2.two-jumps.sum-equals-closed-form" in names

    def test_one_workbench_per_check(self, monkeypatch):
        built = []

        class Counting(series._Workbench):
            def __init__(self, order):
                built.append(order)
                super().__init__(order)

        monkeypatch.setattr(series, "_Workbench", Counting)
        assert series.check_assemblies(12).passed
        assert built == [14]

    @pytest.mark.parametrize("order", [12, 41, 62])
    def test_two_jump_sum_needs_no_products(self, monkeypatch, order):
        w = series._Workbench(order)

        # the pieces c^{a+b+2} c_{a,b} t^{a+b+10} (twice when a < b), each
        # built as a product with c_{a,b} and summed from t^{2b+10} on
        def pieces():
            for b in range(1, order):
                for a in range(1, b + 1):
                    piece = w.cpow(a + b + 2) * series.between_heights(a, b, order).shift(a - b)
                    yield 2 * b + 10, piece
                    if a < b:
                        yield 2 * b + 10, piece

        expect = series._tsum(order, pieces())
        products = count_products(monkeypatch)
        total = series._S312_2_11_sum(w)
        assert not any(isinstance(other, Series) for other in products)
        assert total.coeffs == expect.coeffs
        assert total.first_mismatch(series.closed_form_S312_2_11(w)) is None

    @pytest.mark.parametrize("order", [12, 41, 62])
    @pytest.mark.parametrize("name", sorted(PER_TERM))
    def test_factored_sum_needs_one_product(self, monkeypatch, order, name):
        w = series._Workbench(order)
        factored, per_term = PER_TERM[name]
        expect = per_term(w)
        products = count_products(monkeypatch)
        total = factored(w)
        assert len(products) == 1
        assert total.coeffs == expect.coeffs
        assert types(total) == types(expect)

    def test_order_60_needs_at_most_300_products(self, monkeypatch):
        for cached in (series._gf_cached, series.catalan, series.sqrt_one_minus_4x):
            cached.cache_clear()
        products = count_products(monkeypatch)
        assert series.check_assemblies(60).passed
        assert len(products) <= 300
        assert sum(isinstance(other, Series) for other in products) == 60

    @pytest.mark.parametrize(
        "name", ["closed_form_S321_2_11", "_together_312_cform", "_together_321_cform"]
    )
    def test_closed_forms_shift_by_powers_of_x(self, monkeypatch, name):
        # a power x^j = t^(2j), j >= 1, is a t-shift by 2j, never a product
        # operand: no operand is a lone 1 at an even t-power past t^0
        def is_x_power(f):
            v = f.valuation() if isinstance(f, Series) else None
            return bool(v) and v % 2 == 0 and f.coeffs[v] == 1 and not any(f.coeffs[v + 1 :])

        w = series._Workbench(62)
        expect = getattr(series, name)(w)
        products = count_products(monkeypatch)
        got = getattr(series, name)(w)
        assert products and not any(map(is_x_power, products))
        assert got.coeffs == expect.coeffs

    @pytest.mark.parametrize(
        "function, args, exponent, check",
        [
            ("_occ1_321_sum", (), 3, "321.r1.sum-equals-closed-form"),
            ("_occ1_321_sum", (), 9, "321.r1.sum-equals-closed-form"),
            ("_S321_2_2_sum", (), 6, "321.r2.depth2.sum-equals-closed-form"),
            ("_S321_2_2_sum", (), 10, "321.r2.depth2.sum-equals-closed-form"),
            ("_inner_sum", (5, 2, 1, 0), 4, "inner-sum(c^2, l=0)"),
            ("_inner_sum", (4, 3, 2, 4), 9, "inner-sum(c^3, l=4)"),
        ],
    )
    def test_changed_power_fails_its_check(self, monkeypatch, function, args, exponent, check):
        # one summand of one sum gets c^{e+1} in place of c^e
        original = getattr(series, function)

        def mutated(w, *a):
            return original(MutatedPower(w, exponent) if a == args else w, *a)

        monkeypatch.setattr(series, function, mutated)
        report = series.check_assemblies(40)
        assert [c.name for c in report.checks if not c.passed] == [check]


class TestGeneralForm:
    def test_312_odd_sqrt_denominators(self):
        for r in (1, 2):
            rep = series.check_general_form("312", r, 80)
            assert rep.passed and not rep.conjectural
            assert rep.denominator == f"sqrt(1-4x)^{2 * r - 1}"

    def test_312_r1_polynomials(self):
        rep = series.check_general_form("312", 1, 80)
        assert rep.p_coeffs == (Fraction(1, 2), Fraction(-3, 2))
        assert rep.q_coeffs == (Fraction(-1, 2), Fraction(1, 2))

    @pytest.mark.parametrize(
        "r,p,q",
        [
            (0, (1,), (-1,)),
            (1, (1, -6, 9, -2), (-1, 4, -3)),
            (2, (1, -8, 20, -17, 7, -5), (-1, 6, -10, 5, -3, 1)),
            (3, (1, -10, 33, -32, -31, 70, -35, 0, 2), (-1, 8, -19, 6, 27, -28, 7, 2)),
            (
                4,
                (1, -12, 50, -65, -107, 437, -588, 492, -314, 108, -3),
                (-1, 10, -32, 17, 107, -245, 256, -192, 102, -18, -1),
            ),
        ],
    )
    def test_321_polynomial_recovery(self, r, p, q):
        rep = series.check_general_form("321", r, 80)
        assert rep.passed
        assert rep.conjectural == (r >= 3)
        assert tuple(int(c) for c in rep.p_coeffs) == p
        assert tuple(int(c) for c in rep.q_coeffs) == q

    @pytest.mark.parametrize("row", sorted(series.GF_PQ) + [("312", 0)], ids="{0[0]}-r{0[1]}".format)
    def test_every_row_is_recovered(self, row):
        # the recorded P and Q are what the solver finds in gf's coefficients;
        # gf(312, 0) reads the (321, 0) row
        key, r = row
        p, q = series.GF_PQ[row if r else ("321", 0)]
        rep = series.check_general_form(key, r, 80)

        def dense(poly):
            return tuple(poly.get(i, 0) for i in range(max(poly) + 1))

        assert rep.passed and rep.conjectural == (row in series.CONJECTURAL)
        assert (rep.p_coeffs, rep.q_coeffs) == (dense(p), dense(q))


def fraction_elimination(rows, rhs):
    """The general-form solver's reference: Gauss-Jordan elimination over
    Fractions, first nonzero pivot, None unless the system is consistent
    with full column rank."""
    m = len(rows)
    if m == 0:
        return None
    ncols = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pr is None:
            return None
        aug[r], aug[pr] = aug[pr], aug[r]
        pivot = aug[r][col]
        aug[r] = [v / pivot for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, m):
        if aug[i][ncols] != 0:
            return None
    return [aug[i][ncols] for i in range(ncols)]


def random_entry(rng: random.Random, fractions: bool):
    if fractions and rng.random() < 0.4:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    return rng.choice((0, rng.randint(-5, 5), rng.randint(-10**9, 10**9)))


def random_system(rng: random.Random, kind: str):
    """(rows, rhs, expect, x): a system of one kind, with rhs = rows * x
    unless the kind is "inconsistent"; ``expect`` is False where no
    solution can exist, else None (the outcome is left to chance)."""
    fractions = rng.random() < 0.5
    n = rng.randint(1, 8)
    m = max(n, rng.randint(1, 12))
    if kind == "wide":
        m = rng.randint(1, 6)
        n = m + rng.randint(1, 3)
    elif kind == "one-row":
        m, n = 1, rng.randint(1, 2)
    elif kind == "inconsistent":
        m = n + rng.randint(1, 4)
    rows = [[random_entry(rng, fractions) for _ in range(n)] for _ in range(m)]
    if kind == "zero-column":
        col = rng.randrange(n)
        for row in rows:
            row[col] = 0
    elif kind == "rank-deficient" and n >= 2:
        a, b = rng.sample(range(n), 2)
        k = random_entry(rng, fractions)
        for row in rows:
            row[b] = k * row[a]
    x = [random_entry(rng, fractions) for _ in range(n)]
    rhs = [sum(v * xi for v, xi in zip(row, x)) for row in rows]
    if kind == "inconsistent":
        rhs[rng.randrange(m)] += rng.choice((1, -1, Fraction(1, 3)))
    expect = {"zero-column": False, "wide": False}.get(kind)
    if kind == "rank-deficient" and n >= 2:
        expect = False
    return rows, rhs, expect, x


class TestSolver:
    KINDS = ("consistent", "inconsistent", "rank-deficient", "zero-column", "wide", "one-row")

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_fraction_elimination(self, kind):
        rng = random.Random(f"solver-{kind}")
        solved = 0
        for _ in range(150):
            rows, rhs, expect, x = random_system(rng, kind)
            frozen = ([list(row) for row in rows], list(rhs))
            got = series._solve_exact(rows, rhs)
            want = fraction_elimination(rows, rhs)
            assert got == want
            assert (rows, rhs) == frozen  # the inputs are left as they were
            if expect is False:
                assert got is None
            if got is not None:
                solved += 1
                assert all(type(v) is Fraction for v in got)
                if kind != "inconsistent":
                    assert got == x  # the one solution of a full-rank system
        if kind == "consistent":
            assert solved > 100  # random square-or-taller systems are mostly full rank
        if kind == "inconsistent":
            assert solved < 15  # a perturbed taller system is mostly inconsistent

    def test_edges(self):
        assert series._solve_exact([], []) is None
        assert series._solve_exact([[]], [0]) == [] == fraction_elimination([[]], [0])
        assert series._solve_exact([[]], [1]) is None
        assert series._solve_exact([[2]], [1]) == [Fraction(1, 2)]
        assert series._solve_exact([[0, 1], [1, 0], [1, 1]], [3, 2, 5]) == [2, 3]
        assert series._solve_exact([[0, 1], [1, 0], [1, 1]], [3, 2, 6]) is None

    @pytest.mark.parametrize("order", [80, 160])
    def test_general_form_reports_unchanged(self, order, monkeypatch):
        rows = sorted(series.GF_PQ)
        got = [series.check_general_form(key, r, order) for key, r in rows]
        monkeypatch.setattr(series, "_solve_exact", fraction_elimination)
        want = [series.check_general_form(key, r, order) for key, r in rows]
        assert got == want
        for rep in got:
            assert rep.passed
            assert all(type(v) is Fraction for v in rep.p_coeffs + rep.q_coeffs)


def bareiss_determinant(rows) -> int:
    """The determinant of a square integer matrix, by fraction-free
    elimination."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pr = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pr is None:
            return 0
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def decompose_by_full_system(g: Series, d: int):
    """``_decompose_p_plus_sq`` as one overdetermined solve of every
    equation n > d, the reference for the square block and its check."""
    if not g.lives_in_x():
        return None
    gx = g.x_coefficients()
    sx = series.sqrt_one_minus_4x(g.order).x_coefficients()
    rows = [[sx[n - i] for i in range(d + 1)] for n in range(d + 1, len(gx))]
    q = series._solve_exact(rows, gx[d + 1 :])
    if q is None:
        return None
    p = [Fraction(gx[n]) - sum(sx[n - i] * q[i] for i in range(n + 1)) for n in range(d + 1)]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    return p, q


def general_form_input(key: str, r: int, order: int) -> tuple[Series, int]:
    """D * gf(key, r) and the degree bound, as ``check_general_form`` builds them."""
    d = series._denominator(key, r, order)[0]
    return d * series.gf(key, r, order), 2 * r + 6


class TestDecomposition:
    @pytest.mark.parametrize("d", range(31))
    def test_square_block_is_never_singular(self, d):
        # the block of equations n = d+1..2d+1: columns reversed, it is -2
        # times the Catalan Hankel matrix, of determinant 1
        sx = series.sqrt_one_minus_4x(2 * (2 * d + 1)).x_coefficients()
        block = [[sx[n - i] for i in range(d + 1)] for n in range(d + 1, 2 * d + 2)]
        assert abs(bareiss_determinant(block)) == 2 ** (d + 1)
        hankel = [[catalan_number(a + b) for b in range(d + 1)] for a in range(d + 1)]
        assert block == [[-2 * v for v in reversed(row)] for row in hankel]

    @pytest.mark.parametrize("order", [80, 160])
    @pytest.mark.parametrize("row", sorted(series.GF_PQ), ids="{0[0]}-r{0[1]}".format)
    def test_square_block_equals_full_system(self, order, row):
        g, bound = general_form_input(*row, order)
        got = series._decompose_p_plus_sq(g, bound)
        assert got is not None
        assert got == decompose_by_full_system(g, bound)
        assert all(type(c) is Fraction for c in got[0] + got[1])

    def test_short_series_equal_full_system(self):
        # too few coefficients for the block leave Q undetermined: None
        g, d = general_form_input("321", 2, 80)
        for order in range(0, 4 * d + 8, 2):
            short = g.truncate(order)
            got = series._decompose_p_plus_sq(short, d)
            assert got == decompose_by_full_system(short, d)
            assert (got is None) == (order // 2 < 2 * d + 1)

    @pytest.mark.parametrize("row", sorted(series.GF_PQ), ids="{0[0]}-r{0[1]}".format)
    def test_changed_coefficient_past_the_block(self, row):
        g, d = general_form_input(*row, 80)
        last = g.order // 2
        for n, delta in ((2 * d + 2, 1), (last, -1), ((2 * d + 2 + last) // 2, Fraction(1, 3))):
            cs = list(g.coeffs)
            cs[2 * n] += delta
            changed = Series(cs)
            assert series._decompose_p_plus_sq(changed, d) is None
            assert decompose_by_full_system(changed, d) is None

    @settings(max_examples=25, deadline=None)
    @given(small_fraction_polys, small_fraction_polys)
    def test_recovers_exact_pairs(self, p, q):
        order = 60
        g = from_x_poly(p, order) + from_x_poly(q, order) * series.sqrt_one_minus_4x(order)

        def trimmed(cs):
            cs = list(cs)
            while len(cs) > 1 and cs[-1] == 0:
                cs.pop()
            return cs

        got = series._decompose_p_plus_sq(g, 5)
        assert got is not None
        assert got == (trimmed(p), trimmed(q))
        assert all(type(c) is Fraction for c in got[0] + got[1])

    def test_no_decomposition(self):
        # 1/(1-x) is not P + sqrt(1-4x) Q for polynomials P, Q
        order = 80
        g = one(order) / (one(order) - from_x_poly({1: 1}, order))
        assert series._decompose_p_plus_sq(g, 5) is None
        # t * c has odd t-coefficients: it is not a series in x at all
        assert series._decompose_p_plus_sq(series.catalan(order).shift(1), 5) is None

    def test_order_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            series.check_general_form("321", 2, 40)
