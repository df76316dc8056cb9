"""Exact truncated formal power series, and the derivations of the
recorded counting results.

Series live in the variable t with x = t**2, so the half-integer powers of
x that appear in path weights (sqrt(x) per up/down step) and in the
climbing-segment generating functions are ordinary t-shifts.  Coefficients
are exact rationals (plain ints wherever possible, ``fractions.Fraction``
otherwise); nothing here is floating point, and a float coefficient raises
``TypeError``.

A series "lives in x" when all odd t-coefficients vanish; the public
counting series all do, and ``x_coefficients`` checks it.

The module provides:

- the Catalan series c = (1 - sqrt(1-4x)) / (2x) and sqrt(1-4x) itself;
- ``gf(tau, r, order)``: the generating function of the number of
  n-permutations with exactly r occurrences of tau, built with series
  arithmetic from its row of ``GF_PQ``, the independent oracle of
  ``recorded.coefficients``;
- the climbing-segment series and the piecewise assembly identities that
  re-derive the r = 1, 2 generating functions from path decompositions
  (``check_assemblies``);
- ``check_general_form``: reconstruction of the polynomials P, Q of a row
  directly from the coefficients of ``gf``.

``GF_PQ``, ``CONJECTURAL`` and ``count_closed_form`` live in
``permdyck.recorded``, with the rule for a row's denominator D; they are
re-exported here as the same objects.

Every ``tau`` argument is checked by the package's ``_pattern_key``: a
pattern other than (3,1,2) and (3,2,1) raises ``PatternError``.  The str
``"312"`` or ``"321"`` passes that check without loading ``perms``, so
``verify --assemblies`` and ``verify --general-form`` load neither it nor
a kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import comb, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from permdyck import _pattern_key, catalan_number
from permdyck.recorded import CONJECTURAL, GF_PQ, count_closed_form, denominator

__all__ = [
    "DEFAULT_ORDER",
    "Series",
    "zero",
    "one",
    "monomial",
    "from_x_poly",
    "sqrt_one_minus_4x",
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
]

DEFAULT_ORDER = 80  # in t, i.e. 40 x-coefficients

Coef = Union[int, Fraction]


def _norm(v) -> Coef:
    """The stored form of a coefficient: a plain int is returned as is, an
    integral value of any other exact type (a bool, an integral Fraction)
    becomes an int (to keep arithmetic fast), and any other becomes a
    Fraction.  A float raises ``TypeError``: its binary fraction is not the
    decimal it prints as."""
    if type(v) is int:
        return v
    if isinstance(v, float):
        raise TypeError(f"series coefficients are exact: got the float {v!r}")
    if not isinstance(v, Fraction):
        v = Fraction(v)
    if v.denominator == 1:
        return int(v)
    return v


_INT = {int}

# the exact scalars a series combines with; any other operand that is not a
# ``Series`` (a float, say) gets NotImplemented, and Python's TypeError
_SCALARS = (int, Fraction)


class Series:
    """A power series in t, exact up to and including t**order.

    Binary operations truncate to the smaller operand order.  Instances are
    immutable and safe to share.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coef]):
        cs = tuple(coeffs)
        if set(map(type, cs)) != _INT:
            cs = tuple(map(_norm, cs))
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
        if order < 0:
            raise ValueError("a series needs at least the constant coefficient")
        if order >= self.order:
            return self
        return Series(self.coeffs[: order + 1])

    def first_mismatch(self, other: "Series") -> Optional[int]:
        m = min(self.order, other.order)
        for k in range(m + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return k
        return None

    # -- arithmetic ---------------------------------------------------------

    def _pair(self, other: "Series") -> tuple[tuple[Coef, ...], tuple[Coef, ...], int]:
        m = min(self.order, other.order)
        return self.coeffs[: m + 1], other.coeffs[: m + 1], m

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return Series(cs)
        if not isinstance(other, Series):
            return NotImplemented
        a, b, _ = self._pair(other)
        return Series(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Series(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, (*_SCALARS, Series)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        """The product, truncated to the smaller operand order.  The
        convolution loops over nonzero coefficients only: the nonzero
        (j, b_j) of the second operand are listed once, and each row stops
        at the first j past the order.  A series in x has every odd
        t-coefficient zero, so this skips at least half of each operand.
        ``__truediv__`` and ``sqrt`` run the same loop over their own
        nonzero coefficients."""
        if isinstance(other, _SCALARS):
            return Series(c * other for c in self.coeffs)
        if not isinstance(other, Series):
            return NotImplemented
        a, b, m = self._pair(other)
        nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj != 0]
        out = [0] * (m + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            last = m - i
            for j, bj in nonzero_b:
                if j > last:
                    break
                out[i + j] += ai * bj
        return Series(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: divide explicitly")
        if k == 0:
            return one(self.order)
        # the first factor starts the product, not a product with 1
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, other):
        """The quotient, exact to the smaller operand order less the
        divisor's valuation v (both are shifted down by t**v first).

        Each quotient coefficient q_k, once known, is subtracted times the
        divisor's nonzero coefficients b_j from the remainders k + j ahead,
        as ``__mul__`` convolves: zero q_k and zero b_j cost nothing, so a
        monomial divisor (``gf``'s 2 x^(2r+1)) divides in linear time.  An int
        remainder over an int b_0 is divided exactly, and a ``Fraction`` is
        built only for a quotient coefficient that is not an integer."""
        if isinstance(other, _SCALARS):
            inv = Fraction(1, 1) / other
            return Series(c * inv for c in self.coeffs)
        if not isinstance(other, Series):
            return NotImplemented
        v = other.valuation()
        if v is None:
            raise ZeroDivisionError("division by the zero series")
        if any(c != 0 for c in self.coeffs[:v]):
            raise ValueError(
                f"dividend valuation below divisor valuation {v}: quotient is not a power series"
            )
        if self.order < v:
            raise ValueError(f"dividend truncated below divisor valuation {v}")
        m = min(self.order, other.order) - v
        rem = list(self.coeffs[v : v + m + 1])
        b = other.coeffs[v : v + m + 1]
        nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj != 0][1:]
        b0 = b[0]
        exact = type(b0) is int
        q: list[Coef] = []
        for k in range(m + 1):
            acc = rem[k]
            if exact and type(acc) is int:
                qk = acc // b0 if acc % b0 == 0 else Fraction(acc, b0)
            else:
                qk = _norm(acc / b0)
            q.append(qk)
            if qk == 0:
                continue
            last = m - k
            for j, bj in nonzero_b:
                if j > last:
                    break
                rem[k + j] -= bj * qk
        return Series(q)

    def shift(self, k: int) -> "Series":
        """Multiply by t**k.  Negative k requires valuation >= |k|."""
        if k >= 0:
            return Series((0,) * k + self.coeffs)
        if any(c != 0 for c in self.coeffs[:-k]):
            raise ValueError(f"cannot shift by t^{k}: valuation is too small")
        return Series(self.coeffs[-k:])

    def sqrt(self) -> "Series":
        """The square root with constant term 1 (requires a_0 = 1).

        With s_0 = 1, each s_k = (a_k - 2 P_k - s_{k/2}**2) / 2, where P_k
        sums s_i s_{k-i} over the pairs 0 < i < k - i, and the square term
        is there only for even k.  Each pair is summed once, when its larger
        index becomes known, over nonzero entries only, into P at their
        index sum; an even int is halved without a ``Fraction``."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        m = self.order
        out: list[Coef] = [1]
        pairs: list[Coef] = [0] * (m + 1)
        nonzero: list[int] = []
        for k in range(1, m + 1):
            acc = self.coeffs[k] - 2 * pairs[k]
            if k % 2 == 0:
                acc -= out[k // 2] ** 2
            if type(acc) is int:
                sk = acc >> 1 if acc % 2 == 0 else Fraction(acc, 2)
            else:
                sk = _norm(acc / 2)
            out.append(sk)
            if sk == 0:
                continue
            for i in nonzero:
                if i + k > m:
                    break
                pairs[i + k] += out[i] * sk
            nonzero.append(k)
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
def catalan(order: int = DEFAULT_ORDER) -> Series:
    """The Catalan series c = (1 - sqrt(1 - 4x)) / (2x); it satisfies
    c = 1 + x c**2, and its x-coefficients are 1, 1, 2, 5, 14, ...

    >>> catalan(12).x_coefficients()
    (1, 1, 2, 5, 14, 42, 132)
    """
    work = order + 2
    num = one(work) - sqrt_one_minus_4x(work)
    return (num.shift(-2) / 2).truncate(order)


# ---------------------------------------------------------------------------
# generating functions of the recorded rows


def _denominator(key: str, r: int, order: int) -> tuple[Series, str]:
    """The denominator D of gf(key, r) to t**order, and its label, by the
    rule of ``recorded.denominator``."""
    c, e, m = denominator(key, r)
    if m:
        return sqrt_one_minus_4x(order) ** m, f"sqrt(1-4x)^{m}"
    return monomial(2 * e, order, c), f"{c} x^{e}"


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
    # dividing by D loses as many t-orders as D's valuation, which is at
    # most 4r+2 (that of 2 x^(2r+1); a power of sqrt(1-4x) has 0)
    work = max(order, 0) + 4 * r + 2
    p, q = (from_x_poly(poly, work) for poly in row)
    num = p + q * sqrt_one_minus_4x(work)
    out = (num / _denominator(key, r, work)[0]).truncate(order)
    for n, c in enumerate(out.x_coefficients()):
        if not isinstance(c, int) or c < 0:
            raise AssertionError(f"gf({key},{r}) has a bad x^{n} coefficient: {c}")
    return out


# ---------------------------------------------------------------------------
# climbing segments and assembly identities


@lru_cache(maxsize=1024)
def _cpow(k: int, order: int) -> Series:
    """c**k at the given order: the one place a power of c is built.

    No series is multiplied: the x-coefficients are the ballot numbers
    [x^n] c^k = k/(2n+k) * C(2n+k, n) for k >= 1 (Lagrange inversion of
    c = 1 + x c^2), and c**0 is 1.  A negative order raises ``ValueError``.
    """
    if order < 0:
        raise ValueError("a series needs at least the constant coefficient")
    cs: list[Coef] = [0] * (order + 1)
    cs[0] = 1
    if k:
        for n in range(1, order // 2 + 1):
            cs[2 * n] = k * comb(2 * n + k, n) // (2 * n + k)
    return Series(cs)


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


class AssemblyCheck(NamedTuple):
    name: str
    passed: bool
    first_mismatch: Optional[int] = None

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: ok"
        return f"{self.name}: MISMATCH at t^{self.first_mismatch}"


class AssemblyReport(NamedTuple):
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
        # a factor x is the t-shift by 2, not a product
        self.cx = self.c.shift(2).truncate(order)
        self.c2x = self.c * self.cx
        self.inv_1_c2x = self.one / (self.one - self.c2x)
        self.inv_1_cx = self.one / (self.one - self.cx)
        self.inv_1_x = self.one / (self.one - self.x)
        # the factor 1/((1-cx)(1-x)) that every (3,2,1) segment sum shares
        self.inv_1_cx_1_x = self.inv_1_cx * self.inv_1_x
        # the denominators of the (3,2,1) closed forms, each shared by two
        self.den_321 = (self.one - self.x) * (self.one - self.cx) ** 2
        self.den_321_cubed = (self.one - self.x) ** 3 * (self.one - self.cx) ** 4

    def cpow(self, k: int) -> Series:
        return _cpow(k, self.N)


def _occ1_312_sum(w: _Workbench) -> Series:
    # (1/sqrt x) * sum_{l>=1} (c^{l+1} t^l)^2 t^5 = sum_{l>=1} c^{2l+2} t^{2l+4}
    return _tsum(w.N, ((2 * l + 4, w.cpow(2 * l + 2)) for l in count(1)))


def _occ1_321_sum(w: _Workbench) -> Series:
    # (1/sqrt x) * ( c * c^2 t^7 / ((1-cx)(1-x))
    #              + sum_{l>=1} c^{l+2} t^{l+1} * c^2 t^{l+6} / ((1-cx)(1-x)) )
    # (the l = 0 piece carries t^7, outside the t^{l+6} pattern of l >= 1;
    # the 1/sqrt x lowers every exponent by one).  Every term shares the
    # factor 1/((1-cx)(1-x)), so the powers c^3 t^6 and c^{l+4} t^{2l+6} are
    # summed first and the factor multiplies the sum once.
    terms = ((2 * l + 6, w.cpow(l + 4)) for l in count(1))
    return _tsum(w.N, chain([(6, w.cpow(3))], terms)) * w.inv_1_cx_1_x


def _S312_2_2_sum(w: _Workbench) -> Series:
    # sum_{l>=1} (c^{l+1} t^l) t^7 (c^{l+2} t^{l+1}) = sum_{l>=1} c^{2l+3} t^{2l+8}
    return _tsum(w.N, ((2 * l + 8, w.cpow(2 * l + 3)) for l in count(1)))


def _S312_2_11_sum(w: _Workbench) -> Series:
    # sum_{l>=1} c^{l+1} t^{l} t^5 ( sum_{k=1}^{l} c_{k,l} t^5 c^{k+1} t^k
    #                              + sum_{k>l} c_{l,k} t^5 c^{k+1} t^k )
    # With a = min(k, l) and b = max(k, l), the (l, k) piece is
    # c^{a+b+2} c_{a,b} t^{a+b+10}, the same for (k, l).  By the sum that
    # defines c_{a,b} (``between_heights``), the piece is
    # sum_{h=0}^{a} c^{2(b+h)+3} t^{2(b+h)+10}: a sum of powers of c, which
    # needs no product.  weight[s] counts the (b, a, h) with b + h = s, twice
    # when a < b; every s up to ``top`` keeps t^{2s+10} within the order.
    top = (w.N - 10) // 2
    weight = [0] * (top + 1)
    for b in range(1, top + 1):
        for a in range(1, b + 1):
            for h in range(min(a, top - b) + 1):
                weight[b + h] += 1 if a == b else 2
    return _tsum(w.N, ((2 * s + 10, weight[s] * w.cpow(2 * s + 3)) for s in range(1, top + 1)))


def _S321_2_2_sum(w: _Workbench) -> Series:
    # c * c^3 t^10 / ((1-cx)(1-x)) + c^3 t^3 * c^3 t^9 / ((1-cx)(1-x))
    #   + sum_{l>=2} c^{l+2} t^{l+1} t * c^3 t^{l+6} / ((1-cx)(1-x))
    # The powers c^4 t^10, c^6 t^12 and c^{l+5} t^{2l+8} are summed first,
    # and their shared factor 1/((1-cx)(1-x)) multiplies the sum once.
    terms = ((2 * l + 8, w.cpow(l + 5)) for l in count(2))
    return _tsum(w.N, chain([(10, w.cpow(4)), (12, w.cpow(6))], terms)) * w.inv_1_cx_1_x


def _inner_sum(w: _Workbench, offset: int, cexp: int, tail: int, l: int) -> Series:
    # sum_k t^{k+offset+l}/(1-x) * c^{k+cexp} * t^{k+tail}: the powers
    # c^{k+cexp} t^{2k+offset+l+tail} are summed first, and their shared
    # factor 1/(1-x) multiplies the sum once
    terms = ((2 * k + offset + l + tail, w.cpow(k + cexp)) for k in count())
    return _tsum(w.N, terms) * w.inv_1_x


def _inner_sum_check(w: _Workbench, offset: int, cexp: int, tail: int, l: int, closed: Series) -> AssemblyCheck:
    """sum_k t^{k+offset+l}/(1-x) * c^{k+cexp} * t^{k+tail}
    == c^cexp t^{l+offset+tail} / ((1-cx)(1-x)), given ``closed`` =
    c^cexp / ((1-cx)(1-x))."""
    total = _inner_sum(w, offset, cexp, tail, l)
    rhs = closed.shift(l + offset + tail).truncate(w.N)
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
    return (num / w.den_321).shift(6).truncate(w.N)


def closed_form_S312_2_2(w: _Workbench) -> Series:
    """c^5 x^5 / (1 - c^2 x)."""
    return (w.cpow(5) * w.inv_1_c2x).shift(10).truncate(w.N)


def closed_form_S312_2_11(w: _Workbench) -> Series:
    """c^5 x^6 (1 + c^2 x - c^4 x^2) / (1 - c^2 x)^3."""
    num = w.cpow(5) * (w.one + w.c2x - w.c2x * w.c2x)
    return (num * w.inv_1_c2x**3).shift(12).truncate(w.N)


def closed_form_S321_2_2(w: _Workbench) -> Series:
    """c^4 x^5 (1 - cx + c^2 x + c^3 x - c^3 x^2) / ((1-x)(1-cx)^2)."""
    c3 = w.cpow(3)
    # a factor x**j is the t-shift by 2j, not a product
    num = w.cpow(4) * (w.one - w.cx + w.c2x + c3.shift(2) - c3.shift(4))
    return (num / w.den_321).shift(10).truncate(w.N)


def closed_form_S321_2_11(w: _Workbench) -> Series:
    """c^3 x^6 (1 - cx + c^2 x) (2 - x - 2cx + c^2 x + c x^2 + c^3 x^2
    + c^4 x^2 - c^3 x^3 - 2 c^4 x^3 + c^4 x^4) / ((1-x)^3 (1-cx)^4)."""
    c, cp, x = w.c, w.cpow, w.x
    # a factor x**j is the t-shift by 2j, not a product
    big = (
        2 * w.one
        - x
        - 2 * c.shift(2)
        + cp(2).shift(2)
        + c.shift(4)
        + cp(3).shift(4)
        + cp(4).shift(4)
        - cp(3).shift(6)
        - 2 * cp(4).shift(6)
        + cp(4).shift(8)
    )
    num = w.cpow(3) * (w.one - w.cx + w.c2x) * big
    return (num / w.den_321_cubed).shift(12).truncate(w.N)


def _together_312_cform(w: _Workbench) -> Series:
    """c^4 x^4 / (1-c^2x)^3 * (2 + 2c + cx - 4c^2x - 4c^3x + c^3x^2
    + 2c^4x^2 + 2c^5x^2 - c^5x^3)."""
    c, cp = w.c, w.cpow
    # a factor x**j is the t-shift by 2j, not a product
    poly = (
        2 * w.one
        + 2 * c
        + c.shift(2)
        - 4 * cp(2).shift(2)
        - 4 * cp(3).shift(2)
        + cp(3).shift(4)
        + 2 * cp(4).shift(4)
        + 2 * cp(5).shift(4)
        - cp(5).shift(6)
    )
    return (w.cpow(4) * poly * w.inv_1_c2x**3).shift(8).truncate(w.N)


def _together_321_cform(w: _Workbench) -> Series:
    """c^3 x^4 / ((1-x)^3 (1-cx)^4) times the 26-term polynomial in c, x."""
    c, cp = w.c, w.cpow
    # a factor x**j is the t-shift by 2j, not a product
    poly = (
        w.one
        + 2 * c
        - 7 * c.shift(2)
        - 5 * cp(2).shift(2)
        + 2 * cp(3).shift(2)
        + 2 * cp(4).shift(2)
        + 4 * c.shift(4)
        + 16 * cp(2).shift(4)
        - 10 * cp(4).shift(4)
        - 4 * cp(5).shift(4)
        - c.shift(6)
        - 10 * cp(2).shift(6)
        - 9 * cp(3).shift(6)
        + 15 * cp(4).shift(6)
        + 14 * cp(5).shift(6)
        + 2 * cp(6).shift(6)
        + 2 * cp(2).shift(8)
        + 6 * cp(3).shift(8)
        - 7 * cp(4).shift(8)
        - 16 * cp(5).shift(8)
        - 5 * cp(6).shift(8)
        - cp(3).shift(10)
        + cp(4).shift(10)
        + 7 * cp(5).shift(10)
        + 4 * cp(6).shift(10)
        - cp(5).shift(12)
        - cp(6).shift(12)
    )
    return (w.cpow(3) * poly / w.den_321_cubed).shift(8).truncate(w.N)


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

    # Catalan basics; w.c is the sqrt(1-4x) construction, _cpow(1, .) the
    # ballot numbers, built without it
    record("catalan.functional-equation", w.c, w.one + w.c2x)
    record("catalan.reciprocal", w.one / w.c, w.one - w.cx)
    record("catalan.sqrt-form", w.c, _cpow(1, order))

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
    for offset, cexp, tail in ((5, 2, 1), (4, 3, 2)):
        closed = w.cpow(cexp) * w.inv_1_cx_1_x
        for l in range(0, 5):
            checks.append(_inner_sum_check(w, offset, cexp, tail, l, closed))

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
    consistent with full column rank, else the unique solution as Fractions.

    The elimination is fraction-free (Bareiss): each row, with its
    right-hand side, is scaled to integers by the lcm of its denominators,
    and a step with pivot p, after a previous pivot p', replaces every
    entry a below the pivot row by (p a - f b) / p', where f is the row's
    entry under the pivot and b the pivot row's entry; that division is
    exact, so every entry stays an integer.  The pivot of each column is
    its first nonzero entry at or below the current row.
    Back-substitution is the only step that builds Fractions."""
    aug: list[list[int]] = []
    for row, b in zip(rows, rhs):
        vals = [*row, b]
        den = lcm(*(v.denominator for v in vals))
        aug.append([v.numerator * (den // v.denominator) for v in vals])
    m = len(aug)
    if m == 0:
        return None
    ncols = len(aug[0]) - 1
    prev = 1
    for r in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][r] != 0), None)
        if pr is None:
            return None
        aug[r], aug[pr] = aug[pr], aug[r]
        pivot_tail = aug[r][r + 1 :]
        pivot = aug[r][r]
        # columns up to r are not read again in the rows below the pivot
        for i in range(r + 1, m):
            row = aug[i]
            f = row[r]
            if f:
                row[r + 1 :] = [(pivot * a - f * b) // prev for a, b in zip(row[r + 1 :], pivot_tail)]
            else:
                row[r + 1 :] = [pivot * a // prev for a in row[r + 1 :]]
        prev = pivot
    if any(aug[i][ncols] != 0 for i in range(ncols, m)):
        return None
    x: list[Fraction] = [Fraction(0)] * ncols
    for j in reversed(range(ncols)):
        row = aug[j]
        acc = Fraction(row[ncols]) - sum(row[k] * x[k] for k in range(j + 1, ncols))
        x[j] = acc / row[j]
    return x


class GeneralFormReport(NamedTuple):
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

    P has no x-coefficient past d = degree_bound, so those coefficients of G
    fix Q through sqrt(1-4x) Q alone: [x^n] G = sum_i s_{n-i} q_i for n > d,
    with s_k the x-coefficients of sqrt(1-4x).  The d + 1 equations
    n = d+1, ..., 2d+1 determine Q: for k >= 1, s_k = -2 C_{k-1} (C the
    Catalan numbers), so this square block with its columns reversed is -2
    times the Hankel matrix (C_{a+b}), a, b = 0..d, whose determinant is 1;
    the block's determinant is +-2^(d+1), never 0.  Q solves the block
    exactly, and every later equation is then checked in integers, with Q
    scaled by the lcm of its denominators; the first that fails gives None,
    as does too short a G.  That is the answer of the whole overdetermined
    system (a consistent one has the block's solution as its only one).  P
    is the low part of G - sqrt(1-4x) Q."""
    if not g.lives_in_x():
        return None
    gx = g.x_coefficients()
    sx = sqrt_one_minus_4x(g.order).x_coefficients()
    d = degree_bound
    block = range(d + 1, min(2 * d + 2, len(gx)))
    q = _solve_exact([[sx[n - i] for i in range(d + 1)] for n in block], [gx[n] for n in block])
    if q is None:
        return None
    scale = lcm(*(v.denominator for v in q))
    q_scaled = [v.numerator * (scale // v.denominator) for v in q]
    for n in range(2 * d + 2, len(gx)):
        if sum(sx[n - i] * qi for i, qi in enumerate(q_scaled)) != gx[n] * scale:
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
