"""Exact truncated formal power series and the closed-form counting results.

Series live in the variable t with x = t**2, so the half-integer powers of
x that appear in path weights (sqrt(x) per up/down step) and in the
climbing-segment generating functions are ordinary t-shifts.  Coefficients
are exact rationals (plain ints wherever possible, ``fractions.Fraction``
otherwise); nothing here is floating point.

A series "lives in x" when all odd t-coefficients vanish; the public
counting series all do, and ``x_coefficients`` checks it.

The module provides:

- the Catalan series c = (1 - sqrt(1-4x)) / (2x) and sqrt(1-4x) itself;
- ``GF_PQ``: the one table of recorded generating functions, each as the
  polynomials P, Q of F = (P(x) + sqrt(1-4x) Q(x)) / D, where
  D = sqrt(1-4x)^(2r-1) for (3,1,2) with r >= 1 and D = 2 x^(2r+1)
  otherwise; rows exist for tau in {(3,1,2), (3,2,1)} and r = 0, 1, 2, plus
  the conjectured r = 3, 4 forms for (3,2,1) (the pairs in ``CONJECTURAL``);
- ``gf(tau, r, order)``: the generating function of the number of
  n-permutations with exactly r occurrences of tau, built from its row;
- ``count_closed_form(tau, r, n)``: the matching binomial formulas;
- the climbing-segment series and the piecewise assembly identities that
  re-derive the r = 1, 2 generating functions from path decompositions
  (``check_assemblies``);
- ``check_general_form``: reconstruction of the polynomials P, Q of a row
  directly from the coefficients of ``gf``.

Every ``tau`` argument is checked by ``perms._pattern_key``: a pattern
other than (3,1,2) and (3,2,1) raises ``PatternError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import comb
from typing import Iterable, Optional, Sequence, Union

from permdyck.perms import _pattern_key

__all__ = [
    "DEFAULT_ORDER",
    "Series",
    "zero",
    "one",
    "monomial",
    "from_x_poly",
    "sqrt_one_minus_4x",
    "inv_sqrt_one_minus_4x",
    "catalan",
    "catalan_number",
    "gf",
    "GF_PQ",
    "CONJECTURAL",
    "count_closed_form",
    "climb_segment",
    "between_heights",
    "AssemblyCheck",
    "AssemblyReport",
    "check_assemblies",
    "GeneralFormReport",
    "check_general_form",
    "coefficients_as_strings",
]

DEFAULT_ORDER = 80  # in t, i.e. 40 x-coefficients

Coef = Union[int, Fraction]


def _norm(v) -> Coef:
    """The stored form of a coefficient: a plain int is returned as is, an
    integral Fraction collapses to int (to keep arithmetic fast), and any
    other non-int becomes a Fraction."""
    if type(v) is int:
        return v
    if not isinstance(v, (int, Fraction)):
        v = Fraction(v)
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


class Series:
    """A power series in t, exact up to and including t**order.

    Binary operations truncate to the smaller operand order.  Instances are
    immutable and safe to share.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coef]):
        cs = tuple(map(_norm, coeffs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Coef:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient t^{k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def x_coeff(self, n: int) -> Coef:
        return self.coeff(2 * n)

    def lives_in_x(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def x_coefficients(self, strict: bool = True) -> tuple[Coef, ...]:
        if strict and not self.lives_in_x():
            k = next(i for i in range(1, len(self.coeffs), 2) if self.coeffs[i] != 0)
            raise ValueError(f"series does not live in x: t^{k} coefficient is {self.coeffs[k]}")
        return self.coeffs[::2]

    def valuation(self) -> Optional[int]:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.coeffs[: order + 1])

    def first_mismatch(self, other: "Series") -> Optional[int]:
        m = min(self.order, other.order)
        for k in range(m + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return k
        return None

    def agrees_with(self, other: "Series") -> bool:
        return self.first_mismatch(other) is None

    # -- arithmetic ---------------------------------------------------------

    def _pair(self, other: "Series") -> tuple[tuple[Coef, ...], tuple[Coef, ...], int]:
        m = min(self.order, other.order)
        return self.coeffs[: m + 1], other.coeffs[: m + 1], m

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return Series(cs)
        a, b, _ = self._pair(other)
        return Series(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Series(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series(c * other for c in self.coeffs)
        a, b, m = self._pair(other)
        out = [0] * (m + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(m + 1 - i):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return Series(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: divide explicitly")
        result = one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1, 1) / other
            return Series(c * inv for c in self.coeffs)
        v = other.valuation()
        if v is None:
            raise ZeroDivisionError("division by the zero series")
        if any(c != 0 for c in self.coeffs[:v]):
            raise ValueError(
                f"dividend valuation below divisor valuation {v}: quotient is not a power series"
            )
        if self.order < v:
            raise ValueError(f"dividend truncated below divisor valuation {v}")
        a = self.coeffs[v:]
        b = other.coeffs[v:]
        m = min(len(a), len(b)) - 1
        b0 = b[0]
        invb0 = None if b0 in (1, -1) else Fraction(1, 1) / b0
        q: list[Coef] = []
        for k in range(m + 1):
            acc = a[k] if k < len(a) else 0
            for j in range(1, k + 1):
                bj = b[j] if j < len(b) else 0
                if bj != 0:
                    acc -= bj * q[k - j]
            if invb0 is None:
                q.append(_norm(acc) if b0 == 1 else _norm(-acc))
            else:
                q.append(_norm(acc * invb0))
        return Series(q)

    def shift(self, k: int) -> "Series":
        """Multiply by t**k.  Negative k requires valuation >= |k|."""
        if k >= 0:
            return Series((0,) * k + self.coeffs)
        if any(c != 0 for c in self.coeffs[:-k]):
            raise ValueError(f"cannot shift by t^{k}: valuation is too small")
        return Series(self.coeffs[-k:])

    def sqrt(self) -> "Series":
        """The square root with constant term 1 (requires a_0 = 1)."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        out: list[Coef] = [1]
        for k in range(1, self.order + 1):
            acc = self.coeffs[k]
            for i in range(1, k):
                acc -= out[i] * out[k - i]
            out.append(_norm(Fraction(acc, 2) if isinstance(acc, int) else acc / 2))
        return Series(out)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{head}{tail}]; order={self.order})"


def zero(order: int = DEFAULT_ORDER) -> Series:
    return Series((0,) * (order + 1))


def one(order: int = DEFAULT_ORDER) -> Series:
    return Series((1,) + (0,) * order)


def monomial(k: int, order: int = DEFAULT_ORDER, coeff: Coef = 1) -> Series:
    """coeff * t**k."""
    if not 0 <= k <= order:
        raise ValueError(f"monomial exponent {k} outside [0, {order}]")
    cs = [0] * (order + 1)
    cs[k] = coeff
    return Series(cs)


def from_x_poly(coeffs_by_xdeg: dict[int, Coef] | Sequence[Coef], order: int = DEFAULT_ORDER) -> Series:
    """Build a polynomial in x = t**2 as a t-series."""
    if isinstance(coeffs_by_xdeg, dict):
        items = coeffs_by_xdeg.items()
    else:
        items = enumerate(coeffs_by_xdeg)
    cs = [0] * (order + 1)
    for deg, c in items:
        if 2 * deg <= order:
            cs[2 * deg] = c
    return Series(cs)


@lru_cache(maxsize=32)
def sqrt_one_minus_4x(order: int = DEFAULT_ORDER) -> Series:
    return from_x_poly({0: 1, 1: -4}, order).sqrt()


@lru_cache(maxsize=32)
def inv_sqrt_one_minus_4x(order: int = DEFAULT_ORDER) -> Series:
    return one(order) / sqrt_one_minus_4x(order)


@lru_cache(maxsize=32)
def catalan(order: int = DEFAULT_ORDER) -> Series:
    """The Catalan series c = (1 - sqrt(1 - 4x)) / (2x); it satisfies
    c = 1 + x c**2, and its x-coefficients are 1, 1, 2, 5, 14, ...

    >>> catalan(12).x_coefficients()
    (1, 1, 2, 5, 14, 42, 132)
    """
    work = order + 2
    num = one(work) - sqrt_one_minus_4x(work)
    return (num.shift(-2) / 2).truncate(order)


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# closed forms

# (pattern, r) -> (P, Q), each {x-degree: coefficient}, with
# F = (P(x) + sqrt(1-4x) Q(x)) / D and D from ``_denominator``.  r = 0 is
# recorded once, as (3,2,1): both patterns have the Catalan series there.
GF_PQ: dict[tuple[str, int], tuple[dict[int, Coef], dict[int, Coef]]] = {
    ("312", 1): ({0: Fraction(1, 2), 1: Fraction(-3, 2)}, {0: Fraction(-1, 2), 1: Fraction(1, 2)}),
    ("312", 2): (
        {0: 1, 1: Fraction(-15, 2), 2: Fraction(29, 2), 3: -2, 4: 1},
        {0: -1, 1: Fraction(11, 2), 2: Fraction(-11, 2), 3: -2},
    ),
    ("321", 0): ({0: 1}, {0: -1}),
    ("321", 1): ({0: 1, 1: -6, 2: 9, 3: -2}, {0: -1, 1: 4, 2: -3}),
    ("321", 2): (
        {0: 1, 1: -8, 2: 20, 3: -17, 4: 7, 5: -5},
        {0: -1, 1: 6, 2: -10, 3: 5, 4: -3, 5: 1},
    ),
    ("321", 3): (
        {0: 1, 1: -10, 2: 33, 3: -32, 4: -31, 5: 70, 6: -35, 8: 2},
        {0: -1, 1: 8, 2: -19, 3: 6, 4: 27, 5: -28, 6: 7, 7: 2},
    ),
    # The sign of the sqrt part of the r = 4 form is pinned by brute force:
    # the variant below reproduces the counts 1, 9, 74, 507, 3008, 16151 at
    # n = 4..9 exactly, and the opposite sign does not even give a power
    # series (the numerator would have a nonzero constant term).
    ("321", 4): (
        {0: 1, 1: -12, 2: 50, 3: -65, 4: -107, 5: 437, 6: -588, 7: 492, 8: -314, 9: 108, 10: -3},
        {0: -1, 1: 10, 2: -32, 3: 17, 4: 107, 5: -245, 6: 256, 7: -192, 8: 102, 9: -18, 10: -1},
    ),
}

CONJECTURAL = frozenset((("321", 3), ("321", 4)))


def _denominator(key: str, r: int, order: int) -> tuple[Series, str]:
    """The denominator D of gf(key, r) to t**order, and its label:
    sqrt(1-4x)^(2r-1) for (3,1,2) with r >= 1, else 2 x^(2r+1)."""
    if key == "312" and r >= 1:
        return sqrt_one_minus_4x(order) ** (2 * r - 1), f"sqrt(1-4x)^{2 * r - 1}"
    return monomial(4 * r + 2, order, 2), f"2 x^{2 * r + 1}"


def gf(tau, r: int, order: int = DEFAULT_ORDER) -> Series:
    """The generating function sum_n #S_n(tau, r) x**n as a t-series.

    Supported: the rows of ``GF_PQ``, that is r = 0, 1, 2 for both patterns
    (proven formulas) and the conjectured r = 3, 4 for (3,2,1).  The result
    lives in x with nonnegative integer coefficients; this is asserted.

    >>> gf("312", 1, 20).x_coefficients()[:8]
    (0, 0, 0, 1, 5, 21, 84, 330)
    """
    return _gf_cached(_pattern_key(tau), r, order)


@lru_cache(maxsize=64)
def _gf_cached(key: str, r: int, order: int) -> Series:
    row = GF_PQ.get((key, r) if r else ("321", 0))
    if row is None:
        raise ValueError(f"no generating function recorded for ({key}, r={r})")
    work = order + 24
    p, q = (from_x_poly(poly, work) for poly in row)
    num = p + q * sqrt_one_minus_4x(work)
    out = (num / _denominator(key, r, work)[0]).truncate(order)
    for n, c in enumerate(out.x_coefficients()):
        if not isinstance(c, int) or c < 0:
            raise AssertionError(f"gf({key},{r}) has a bad x^{n} coefficient: {c}")
    return out


def count_closed_form(tau, r: int, n: int) -> int:
    """The exact count #S_n(tau, r) from the binomial formulas, with the
    conventions for n = 0, 1 and vanishing binomials handled exactly.

    >>> [count_closed_form("321", 1, n) for n in range(8)]
    [0, 0, 0, 1, 6, 27, 110, 429]
    """
    key = _pattern_key(tau)
    if n < 0:
        raise ValueError("n must be nonnegative")

    def comb0(a: int, b: int) -> int:
        if b < 0 or a < 0 or b > a:
            return 0
        return comb(a, b)

    if n <= 1:
        return 1 if r == 0 else 0
    if r == 0:
        return catalan_number(n)
    if key == "312" and r == 1:
        return comb0(2 * n - 3, n - 3)
    if key == "312" and r == 2:
        val = Fraction(comb0(2 * n - 6, n - 4)) * Fraction(
            n**3 + 17 * n**2 - 80 * n + 80, 2 * n * (n - 1)
        )
    elif key == "321" and r == 1:
        val = Fraction(3, n) * comb0(2 * n, n - 3)
    elif key == "321" and r == 2:
        val = Fraction(59 * n**2 + 117 * n + 100, 2 * n * (2 * n - 1) * (n + 5)) * comb0(
            2 * n, n - 4
        )
    else:
        raise ValueError(f"no closed-form count recorded for ({key}, r={r})")
    assert val.denominator == 1, (key, r, n, val)
    return int(val)


# ---------------------------------------------------------------------------
# climbing segments and assembly identities


@lru_cache(maxsize=1024)
def _cpow(k: int, order: int) -> Series:
    """c**k at the given order: the one place a power of c is built."""
    return catalan(order) ** k


def _tsum(order: int, terms: Iterable[tuple[int, Series]]) -> Series:
    """The sum of f * t**e over the (e, f) pairs of ``terms``, exact to
    t**order.  The exponents must not decrease: the sum stops at the first
    e past the order, so ``terms`` may be endless.  Each f must be exact to
    t**(order - e)."""
    out: list[Coef] = [0] * (order + 1)
    for e, f in terms:
        if e > order:
            break
        if f.order < order - e:
            raise ValueError(f"term t^{e} * (order-{f.order} series) is not exact to t^{order}")
        for i, v in enumerate(f.coeffs[: order + 1 - e], e):
            out[i] += v
    return Series(out)


def climb_segment(l: int, order: int = DEFAULT_ORDER) -> Series:
    """Generating function of nonnegative lattice paths climbing from height
    0 to height l: c**(l+1) * x**(l/2), i.e. c**(l+1) * t**l."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    return _tsum(order, [(l, _cpow(l + 1, order))])


def between_heights(k: int, l: int, order: int = DEFAULT_ORDER) -> Series:
    """Generating function c_{k,l} of nonnegative paths from height k to
    height l >= k: sum_{h=0}^{k} x**((l-k+2h)/2) c**(l-k+2h+1), i.e. the
    powers c**(e+1) * t**e for e = l-k, l-k+2, ..., l+k, summed up to the
    first e past the order.

    The closed form ((c^2 x)^{k+1} - 1) c^{l-k+1} x^{(l-k)/2} / (c^2 x - 1)
    is checked against this sum in ``check_assemblies``.
    """
    if k < 0 or l < k:
        raise ValueError("need 0 <= k <= l")
    return _tsum(order, ((e, _cpow(e + 1, order)) for e in range(l - k, l + k + 1, 2)))


@dataclass(frozen=True)
class AssemblyCheck:
    name: str
    passed: bool
    first_mismatch: Optional[int] = None

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: ok"
        return f"{self.name}: MISMATCH at t^{self.first_mismatch}"


@dataclass(frozen=True)
class AssemblyReport:
    order: int
    checks: tuple[AssemblyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Workbench:
    """Shared building blocks for the assembly identities at one order."""

    def __init__(self, order: int):
        self.N = order
        self.c = catalan(order)
        self.x = from_x_poly({1: 1}, order)
        self.one = one(order)
        self.cx = self.c * self.x
        self.c2x = self.c * self.cx
        self.inv_1_c2x = self.one / (self.one - self.c2x)
        self.inv_1_cx = self.one / (self.one - self.cx)
        self.inv_1_x = self.one / (self.one - self.x)

    def cpow(self, k: int) -> Series:
        return _cpow(k, self.N)


def _occ1_312_sum(w: _Workbench) -> Series:
    # (1/sqrt x) * sum_{l>=1} (c^{l+1} t^l)^2 t^5 = sum_{l>=1} c^{2l+2} t^{2l+4}
    return _tsum(w.N, ((2 * l + 4, w.cpow(2 * l + 2)) for l in count(1)))


def _occ1_321_sum(w: _Workbench) -> Series:
    # (1/sqrt x) * ( c * c^2 t^7 / ((1-cx)(1-x))
    #              + sum_{l>=1} c^{l+2} t^{l+1} * c^2 t^{l+6} / ((1-cx)(1-x)) )
    # (the l = 0 piece carries t^7, outside the t^{l+6} pattern of l >= 1;
    # the 1/sqrt x lowers every exponent by one)
    base = w.inv_1_cx * w.inv_1_x * w.cpow(2)
    terms = ((2 * l + 6, w.cpow(l + 2) * base) for l in count(1))
    return _tsum(w.N, chain([(6, w.c * base)], terms))


def _S312_2_2_sum(w: _Workbench) -> Series:
    # sum_{l>=1} (c^{l+1} t^l) t^7 (c^{l+2} t^{l+1}) = sum_{l>=1} c^{2l+3} t^{2l+8}
    return _tsum(w.N, ((2 * l + 8, w.cpow(2 * l + 3)) for l in count(1)))


def _S312_2_11_sum(w: _Workbench) -> Series:
    # sum_{l>=1} c^{l+1} t^{l} t^5 ( sum_{k=1}^{l} c_{k,l} t^5 c^{k+1} t^k
    #                              + sum_{k>l} c_{l,k} t^5 c^{k+1} t^k )
    # With a = min(k, l) and b = max(k, l), the (l, k) piece is
    # c^{a+b+2} c_{a,b} t^{a+b+10}, the same for (k, l); c_{a,b} has
    # valuation b - a, so the piece starts at t^{2b+10}.  The pieces are
    # summed in the order of b, each with its valuation moved into e.
    def pieces():
        for b in count(1):
            for a in range(1, b + 1):
                piece = w.cpow(a + b + 2) * between_heights(a, b, w.N).shift(a - b)
                yield 2 * b + 10, piece
                if a < b:
                    yield 2 * b + 10, piece

    return _tsum(w.N, pieces())


def _S321_2_2_sum(w: _Workbench) -> Series:
    # c * c^3 t^10 / ((1-cx)(1-x)) + c^3 t^3 * c^3 t^9 / ((1-cx)(1-x))
    #   + sum_{l>=2} c^{l+2} t^{l+1} t * c^3 t^{l+6} / ((1-cx)(1-x))
    base = w.inv_1_cx * w.inv_1_x * w.cpow(3)
    terms = ((2 * l + 8, w.cpow(l + 2) * base) for l in count(2))
    return _tsum(w.N, chain([(10, w.c * base), (12, w.cpow(3) * base)], terms))


def _inner_sum_check(w: _Workbench, offset: int, cexp: int, tail: int, l: int) -> AssemblyCheck:
    """sum_k t^{k+offset+l}/(1-x) * c^{k+cexp} * t^{k+tail}
    == c^cexp t^{l+offset+tail} / ((1-cx)(1-x))."""
    terms = ((2 * k + offset + l + tail, w.inv_1_x * w.cpow(k + cexp)) for k in count())
    total = _tsum(w.N, terms)
    rhs = (w.cpow(cexp) * w.inv_1_cx * w.inv_1_x).shift(l + offset + tail).truncate(w.N)
    mism = total.first_mismatch(rhs)
    return AssemblyCheck(
        name=f"inner-sum(c^{cexp}, l={l})", passed=mism is None, first_mismatch=mism
    )


def closed_form_312_1(w: _Workbench) -> Series:
    """c^4 x^3 / (1 - c^2 x)."""
    return (w.cpow(4) * w.inv_1_c2x).shift(6).truncate(w.N)


def closed_form_321_1(w: _Workbench) -> Series:
    """c^3 x^3 (c^2 x - c x + 1) / ((1-x)(1-cx)^2)."""
    num = w.cpow(3) * (w.c2x - w.cx + w.one)
    den = (w.one - w.x) * (w.one - w.cx) ** 2
    return (num / den).shift(6).truncate(w.N)


def closed_form_S312_2_2(w: _Workbench) -> Series:
    """c^5 x^5 / (1 - c^2 x)."""
    return (w.cpow(5) * w.inv_1_c2x).shift(10).truncate(w.N)


def closed_form_S312_2_11(w: _Workbench) -> Series:
    """c^5 x^6 (1 + c^2 x - c^4 x^2) / (1 - c^2 x)^3."""
    num = w.cpow(5) * (w.one + w.c2x - w.c2x * w.c2x)
    return (num * w.inv_1_c2x**3).shift(12).truncate(w.N)


def closed_form_S321_2_2(w: _Workbench) -> Series:
    """c^4 x^5 (1 - cx + c^2 x + c^3 x - c^3 x^2) / ((1-x)(1-cx)^2)."""
    c3x = w.cpow(3) * w.x
    num = w.cpow(4) * (w.one - w.cx + w.c2x + c3x - c3x * w.x)
    den = (w.one - w.x) * (w.one - w.cx) ** 2
    return (num / den).shift(10).truncate(w.N)


def closed_form_S321_2_11(w: _Workbench) -> Series:
    """c^3 x^6 (1 - cx + c^2 x) (2 - x - 2cx + c^2 x + c x^2 + c^3 x^2
    + c^4 x^2 - c^3 x^3 - 2 c^4 x^3 + c^4 x^4) / ((1-x)^3 (1-cx)^4)."""
    c, cp, x = w.c, w.cpow, w.x
    big = (
        2 * w.one
        - x
        - 2 * c * x
        + cp(2) * x
        + c * x**2
        + cp(3) * x**2
        + cp(4) * x**2
        - cp(3) * x**3
        - 2 * cp(4) * x**3
        + cp(4) * x**4
    )
    num = w.cpow(3) * (w.one - w.cx + w.c2x) * big
    den = (w.one - x) ** 3 * (w.one - w.cx) ** 4
    return (num / den).shift(12).truncate(w.N)


def _together_312_cform(w: _Workbench) -> Series:
    """c^4 x^4 / (1-c^2x)^3 * (2 + 2c + cx - 4c^2x - 4c^3x + c^3x^2
    + 2c^4x^2 + 2c^5x^2 - c^5x^3)."""
    c, cp, x = w.c, w.cpow, w.x
    poly = (
        2 * w.one
        + 2 * c
        + c * x
        - 4 * cp(2) * x
        - 4 * cp(3) * x
        + cp(3) * x**2
        + 2 * cp(4) * x**2
        + 2 * cp(5) * x**2
        - cp(5) * x**3
    )
    return (w.cpow(4) * poly * w.inv_1_c2x**3).shift(8).truncate(w.N)


def _together_321_cform(w: _Workbench) -> Series:
    """c^3 x^4 / ((1-x)^3 (1-cx)^4) times the 26-term polynomial in c, x."""
    c, cp, x = w.c, w.cpow, w.x
    poly = (
        w.one
        + 2 * c
        - 7 * c * x
        - 5 * cp(2) * x
        + 2 * cp(3) * x
        + 2 * cp(4) * x
        + 4 * c * x**2
        + 16 * cp(2) * x**2
        - 10 * cp(4) * x**2
        - 4 * cp(5) * x**2
        - c * x**3
        - 10 * cp(2) * x**3
        - 9 * cp(3) * x**3
        + 15 * cp(4) * x**3
        + 14 * cp(5) * x**3
        + 2 * cp(6) * x**3
        + 2 * cp(2) * x**4
        + 6 * cp(3) * x**4
        - 7 * cp(4) * x**4
        - 16 * cp(5) * x**4
        - 5 * cp(6) * x**4
        - cp(3) * x**5
        + cp(4) * x**5
        + 7 * cp(5) * x**5
        + 4 * cp(6) * x**5
        - cp(5) * x**6
        - cp(6) * x**6
    )
    den = (w.one - x) ** 3 * (w.one - w.cx) ** 4
    return (w.cpow(3) * poly / den).shift(8).truncate(w.N)


def check_assemblies(order: int = 40) -> AssemblyReport:
    """Verify, to the given t-order, that the piecewise path decompositions
    reproduce the closed-form generating functions:

    - climbing-segment sums equal their closed forms;
    - the one-occurrence constructions reproduce gf(tau, 1);
    - the two-occurrence pieces (one depth-2 jump / one depth-1 jump /
      two depth-1 jumps) combine, with their 1/sqrt(x) weights, to
      gf(tau, 2), matching their combined closed forms;
    - the sqrt(1-4x)-forms and the c-forms agree coefficient-wise.
    """
    pad = order + 2
    w = _Workbench(pad)
    checks: list[AssemblyCheck] = []

    def record(name: str, lhs: Series, rhs: Series) -> None:
        mism = lhs.truncate(order).first_mismatch(rhs.truncate(order))
        checks.append(AssemblyCheck(name=name, passed=mism is None, first_mismatch=mism))

    # Catalan basics
    record("catalan.functional-equation", w.c, w.one + w.c2x)
    record("catalan.reciprocal", w.one / w.c, w.one - w.cx)
    record("catalan.sqrt-form", w.c, catalan(order))

    # climbing segments against their closed forms
    for k, l in ((0, 0), (0, 3), (1, 2), (2, 2), (2, 5), (3, 4)):
        summed = between_heights(k, l, pad)
        num = (w.c2x ** (k + 1) - w.one) * w.cpow(l - k + 1)
        closed = (num / (w.c2x - w.one)).shift(l - k)
        record(f"between-heights({k},{l}).closed-form", summed, closed)

    # r = 1 assemblies
    f1_312 = closed_form_312_1(w)
    record("312.r1.sum-equals-closed-form", _occ1_312_sum(w), f1_312)
    record("312.r1.closed-form-equals-gf", f1_312, gf("312", 1, order))
    f1_321 = closed_form_321_1(w)
    record("321.r1.sum-equals-closed-form", _occ1_321_sum(w), f1_321)
    record("321.r1.closed-form-equals-gf", f1_321, gf("321", 1, order))
    for l in range(0, 5):
        checks.append(_inner_sum_check(w, offset=5, cexp=2, tail=1, l=l))
    for l in range(0, 5):
        checks.append(_inner_sum_check(w, offset=4, cexp=3, tail=2, l=l))

    # r = 2 pieces
    s312_22 = closed_form_S312_2_2(w)
    record("312.r2.depth2.sum-equals-closed-form", _S312_2_2_sum(w), s312_22)
    s312_211 = closed_form_S312_2_11(w)
    record("312.r2.two-jumps.sum-equals-closed-form", _S312_2_11_sum(w), s312_211)
    s321_22 = closed_form_S321_2_2(w)
    record("321.r2.depth2.sum-equals-closed-form", _S321_2_2_sum(w), s321_22)
    s321_211 = closed_form_S321_2_11(w)

    # "all together": weighted sums of the pieces give gf(tau, 2)
    lhs312 = (w.x * f1_312) * 2 + (s312_22 * 2).shift(-2) + s312_211.shift(-2)
    record("312.r2.together-equals-gf", lhs312, gf("312", 2, order))
    record("312.r2.together-c-form", lhs312, _together_312_cform(w))
    lhs321 = s321_211.shift(-2) + (s321_22 * 2).shift(-2) + w.x * f1_321
    record("321.r2.together-equals-gf", lhs321, gf("321", 2, order))
    record("321.r2.together-c-form", lhs321, _together_321_cform(w))

    return AssemblyReport(order=order, checks=tuple(checks))


# ---------------------------------------------------------------------------
# general form of the generating functions


def _solve_exact(rows: list[list[Coef]], rhs: Sequence[Coef]) -> Optional[list[Fraction]]:
    """Solve an overdetermined exact linear system; None unless it is
    consistent with full column rank."""
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


@dataclass(frozen=True)
class GeneralFormReport:
    """Result of decomposing a generating function as
    (P(x) + sqrt(1-4x) Q(x)) / denominator with polynomial P, Q."""

    pattern: str
    r: int
    passed: bool
    denominator: str
    p_coeffs: tuple[Fraction, ...]
    q_coeffs: tuple[Fraction, ...]
    conjectural: bool
    detail: str = ""

    @property
    def p_degree(self) -> int:
        return len(self.p_coeffs) - 1

    @property
    def q_degree(self) -> int:
        return len(self.q_coeffs) - 1


def _decompose_p_plus_sq(g: Series, degree_bound: int) -> Optional[tuple[list[Fraction], list[Fraction]]]:
    """Find polynomials P, Q (degree <= degree_bound) with G = P + sqrt(1-4x) Q,
    verified against every available coefficient of G.

    P has no x-coefficient past degree_bound, so those coefficients of G fix
    Q through sqrt(1-4x) Q alone: Q solves that exact overdetermined system
    (None unless it is consistent with a unique solution), and P is the low
    part of G - sqrt(1-4x) Q."""
    if not g.lives_in_x():
        return None
    gx = g.x_coefficients()
    sx = sqrt_one_minus_4x(g.order).x_coefficients()
    d = degree_bound
    rows = [[sx[n - i] for i in range(d + 1)] for n in range(d + 1, len(gx))]
    q = _solve_exact(rows, gx[d + 1 :])
    if q is None:
        return None
    p = [Fraction(gx[n]) - sum(sx[n - i] * q[i] for i in range(n + 1)) for n in range(d + 1)]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    return p, q


def check_general_form(tau, r: int, order: int = DEFAULT_ORDER) -> GeneralFormReport:
    """Check the shape of gf(tau, r) directly from its coefficients: D * gf,
    with D the denominator of its ``GF_PQ`` row, must equal
    P(x) + sqrt(1-4x) Q(x) with polynomial P, Q, which are recovered exactly.

    D is sqrt(1-4x)^{2r-1} for (3,1,2) with r >= 1; that power is the
    denominator in smallest terms, which P(1/4) != 0 certifies.  Every other
    row, r = 0 included, has D = 2 x^{2r+1}.
    """
    key = _pattern_key(tau)
    conjectural = (key, r) in CONJECTURAL
    f = gf(key, r, order)
    bound = 2 * r + 6
    if 2 * bound + 2 > order // 2 + 1:
        raise ValueError(
            f"order {order} too small to resolve degree-{bound} polynomials; "
            f"need at least {2 * (2 * bound + 1)}"
        )
    d, denominator = _denominator(key, r, order)
    result = _decompose_p_plus_sq(d * f, bound)
    p, q = result or ((), ())
    detail = ""
    if result is None:
        detail = "no polynomial decomposition found"
    elif denominator.startswith("sqrt") and sum(c / 4**i for i, c in enumerate(p)) == 0:
        detail = "denominator not in smallest terms: P divisible by (1-4x)"
    return GeneralFormReport(
        key, r, not detail, denominator, tuple(p), tuple(q), conjectural, detail
    )


def coefficients_as_strings(series: Series) -> list[str]:
    """The x-coefficients as exact decimal strings (CLI dump format)."""
    return [str(c) for c in series.x_coefficients()]
