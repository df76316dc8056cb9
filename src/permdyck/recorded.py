"""The recorded counting results, and their exact expansion in integers.

- ``GF_PQ``: the one table of recorded generating functions, each as the
  polynomials P, Q of F = (P(x) + sqrt(1-4x) Q(x)) / D, with D from
  ``denominator``; rows exist for tau in {(3,1,2), (3,2,1)} and r = 0, 1,
  2, plus the conjectured r = 3, 4 forms for (3,2,1) (the pairs in
  ``CONJECTURAL``).  The rows are kept as integers over one denominator
  each, and ``GF_PQ``, with its ``Fraction`` coefficients, is built from
  them on first access;
- ``denominator(key, r)``: the rule for D, sqrt(1-4x)^(2r-1) for (3,1,2)
  with r >= 1, else 2 x^(2r+1);
- ``coefficients(tau, r, n_max)``: the x-coefficients of a row's F, by
  integer convolution in O(n_max * (deg P + deg Q)) ints;
- ``count_closed_form(tau, r, n)``: the binomial formulas for r <= 2.

No ``Series`` is built here: ``permdyck.series`` re-exports these names as
the same objects, and its ``gf`` expands each row with exact series
arithmetic, the oracle ``coefficients`` is tested against.  Every ``tau``
argument is checked by the package's ``_pattern_key``: a pattern other than
(3,1,2) and (3,2,1) raises ``PatternError``.  The str ``"312"`` or
``"321"`` passes that check without loading ``perms``, so neither this
module nor ``coeffs`` loads it, nor a kernel.
"""

from __future__ import annotations

from math import comb

from permdyck import _pattern_key, catalan_number

__all__ = ["GF_PQ", "CONJECTURAL", "denominator", "coefficients", "count_closed_form"]

# (pattern, r) -> (den, P, Q), P and Q each {x-degree: integer numerator}
# over the row's one denominator den, with F = (P(x) + sqrt(1-4x) Q(x)) /
# (den D) and D from ``denominator``.  r = 0 is recorded once, as (3,2,1):
# both patterns have the Catalan series there.
_ROWS: dict[tuple[str, int], tuple[int, dict[int, int], dict[int, int]]] = {
    ("312", 1): (2, {0: 1, 1: -3}, {0: -1, 1: 1}),
    ("312", 2): (2, {0: 2, 1: -15, 2: 29, 3: -4, 4: 2}, {0: -2, 1: 11, 2: -11, 3: -4}),
    ("321", 0): (1, {0: 1}, {0: -1}),
    ("321", 1): (1, {0: 1, 1: -6, 2: 9, 3: -2}, {0: -1, 1: 4, 2: -3}),
    ("321", 2): (
        1,
        {0: 1, 1: -8, 2: 20, 3: -17, 4: 7, 5: -5},
        {0: -1, 1: 6, 2: -10, 3: 5, 4: -3, 5: 1},
    ),
    ("321", 3): (
        1,
        {0: 1, 1: -10, 2: 33, 3: -32, 4: -31, 5: 70, 6: -35, 8: 2},
        {0: -1, 1: 8, 2: -19, 3: 6, 4: 27, 5: -28, 6: 7, 7: 2},
    ),
    # The sign of the sqrt part of the r = 4 form is pinned by brute force:
    # the variant below reproduces the counts 1, 9, 74, 507, 3008, 16151 at
    # n = 4..9 exactly, and the opposite sign does not even give a power
    # series (the numerator would have a nonzero constant term).
    ("321", 4): (
        1,
        {0: 1, 1: -12, 2: 50, 3: -65, 4: -107, 5: 437, 6: -588, 7: 492, 8: -314, 9: 108, 10: -3},
        {0: -1, 1: 10, 2: -32, 3: 17, 4: 107, 5: -245, 6: 256, 7: -192, 8: 102, 9: -18, 10: -1},
    ),
}


def __getattr__(name: str):
    # ``GF_PQ``, the rows as (P, Q) with int or Fraction coefficients, is
    # built on first access, so that ``coefficients`` never loads fractions
    if name == "GF_PQ":
        global GF_PQ
        GF_PQ = {
            row: tuple({i: _ratio(v, den) for i, v in poly.items()} for poly in pq)
            for row, (den, *pq) in _ROWS.items()
        }
        return GF_PQ
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


CONJECTURAL = frozenset((("321", 3), ("321", 4)))


def denominator(key: str, r: int) -> tuple[int, int, int]:
    """D of the row (key, r) as (c, e, m), meaning D = c x^e sqrt(1-4x)^m:
    sqrt(1-4x)^(2r-1) for (3,1,2) with r >= 1, else 2 x^(2r+1).  So m > 0
    only with c = 1 and e = 0."""
    if key == "312" and r >= 1:
        return 1, 0, 2 * r - 1
    return 2, 2 * r + 1, 0


def _ratio(num: int, den: int):
    """num / den, an int when den divides it, else a ``Fraction``; only
    ``GF_PQ`` and error texts need this."""
    q, rem = divmod(num, den)
    if not rem:
        return q
    from fractions import Fraction

    return Fraction(num, den)


def _binomial_series(m: int, n_max: int) -> list[int]:
    """The x-coefficients of (1-4x)^(-m/2) to x^n_max, for any integer m:
    a_k = a_(k-1) (4k + 2m - 4) / k, an exact division since every a_k is
    an integer."""
    out = [1]
    for k in range(1, n_max + 1):
        out.append(out[-1] * (4 * k + 2 * m - 4) // k)
    return out


def coefficients(tau, r: int, n_max: int) -> list[int]:
    """[x^n] of the generating function of #S_n(tau, r), for n = 0..n_max.

    With D = c x^e sqrt(1-4x)^m, F = (P S^(-m) + Q S^(1-m)) / (c x^e), where
    S = sqrt(1-4x), so the row's integer P and Q, over its denominator,
    are convolved with the binomial series of S^(-m) and S^(1-m).  The checks and texts are those of ``series.gf``: the
    numerator must vanish below x^e, and every coefficient must be a
    nonnegative integer (``AssertionError`` otherwise).

    >>> coefficients("312", 1, 7)
    [0, 0, 0, 1, 5, 21, 84, 330]
    """
    key = _pattern_key(tau)
    row = _ROWS.get((key, r) if r else ("321", 0))
    if row is None:
        raise ValueError(f"no generating function recorded for ({key}, r={r})")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    c, e, m = denominator(key, r)
    scale, *pq = row
    top = n_max + e
    num = [0] * (top + 1)
    for poly, power in zip(pq, (_binomial_series(m, top), _binomial_series(m - 1, top))):
        for i, v in poly.items():
            if v:
                for k in range(i, top + 1):
                    num[k] += v * power[k - i]
    if any(num[:e]):
        raise ValueError(
            f"dividend valuation below divisor valuation {2 * e}: quotient is not a power series"
        )
    out = []
    for n, v in enumerate(num[e:]):
        q, rem = divmod(v, c * scale)
        if rem or q < 0:
            raise AssertionError(f"gf({key},{r}) has a bad x^{n} coefficient: {_ratio(v, c * scale)}")
        out.append(q)
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
        num, den = comb0(2 * n - 6, n - 4) * (n**3 + 17 * n**2 - 80 * n + 80), 2 * n * (n - 1)
    elif key == "321" and r == 1:
        num, den = 3 * comb0(2 * n, n - 3), n
    elif key == "321" and r == 2:
        num, den = (59 * n**2 + 117 * n + 100) * comb0(2 * n, n - 4), 2 * n * (2 * n - 1) * (n + 5)
    else:
        raise ValueError(f"no closed-form count recorded for ({key}, r={r})")
    val, rem = divmod(num, den)
    if rem:
        raise AssertionError((key, r, n, _ratio(num, den)))
    return val
