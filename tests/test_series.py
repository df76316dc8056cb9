"""Exact series arithmetic, closed forms, assemblies, and general form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdyck import series
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

    @settings(deadline=None, max_examples=40)
    @given(small_polys)
    def test_sqrt_squares_back(self, f):
        h = one(f.order) + f.shift(1).truncate(f.order)  # constant term 1
        assert (h.sqrt() * h.sqrt()).first_mismatch(h) is None


def types(f: Series) -> list[type]:
    return [type(c) for c in f.coeffs]


class TestCoefficientTypes:
    """Ints stay int, integral Fractions become int, proper fractions stay
    Fraction, whichever operation made the series."""

    def test_constructor(self):
        f = Series([3, Fraction(4, 2), Fraction(1, 3), Fraction(0, 5)])
        assert f.coeffs == (3, 2, Fraction(1, 3), 0)
        assert types(f) == [int, int, Fraction, int]

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

    @pytest.mark.parametrize("order", [10, 41, 82])
    def test_power_table(self, order):
        c = series.catalan(order)
        power = one(order)
        for k in range(13):
            table = series._cpow(k, order)
            assert table.coeffs == power.coeffs
            assert types(table) == [int] * (order + 1)
            power = power * c

    def test_climb_far_past_the_order(self):
        # c**1501 shifted by t**1500 vanishes to order 10; the power table
        # must reach k = 1501 without recursing through smaller powers
        assert series.climb_segment(1500, 10).is_zero()

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
    def test_two_jump_sum_builds_each_between_heights_once(self, monkeypatch, order):
        original = series.between_heights
        calls = []

        def counted(k, l, order):
            calls.append((k, l))
            return original(k, l, order)

        monkeypatch.setattr(series, "between_heights", counted)
        total = series._S312_2_11_sum(series._Workbench(order))
        assert len(calls) == len(set(calls))
        # every c_{a,b} whose piece starts at t^{2b+10} <= t^order is used
        assert {(a, b) for a, b in calls if 2 * b + 10 <= order} == {
            (a, b) for b in range(1, order) for a in range(1, b + 1) if 2 * b + 10 <= order
        }
        assert total.first_mismatch(series.closed_form_S312_2_11(series._Workbench(order))) is None


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


class TestDecomposition:
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


class TestDump:
    def test_strings(self):
        got = series.coefficients_as_strings(series.gf("312", 1, 16))
        assert got[:5] == ["0", "0", "0", "1", "5"]
