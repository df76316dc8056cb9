"""Permutations, length-3 patterns, occurrence counting, and graph symmetries.

Conventions used throughout the package:

- A permutation of {1, ..., n} is written in one-line notation; values and
  positions are both 1-based.  ``Permutation`` is a thin tuple subclass, so
  ``rho[i - 1]`` is the value at position ``i``.
- An *occurrence* of a pattern ``tau`` (itself a permutation of length k)
  in ``rho`` is a strictly increasing k-tuple of positions whose subword
  has the same relative order as ``tau``.
- The *graph* of ``rho`` is the point set {(i, rho_i)}; the symmetry
  operations below act on this graph.
- ``Permutation(values)`` checks its input; the private ``Permutation._of``
  does not, and is called only on values that are a permutation of 1..n by
  construction (ranks, ``itertools.permutations``, a decoder's pops).
- Occurrences of every length-3 pattern are counted, but the encoders, the
  generating functions and the census handle only (3,1,2) and (3,2,1).
  ``_PATTERNS`` is the one pattern map: it takes each length-3 pattern to
  its representative's key, ``"312"`` or ``"321"``, and the host symmetry
  that leads there.  ``count_occurrences_fast`` counts by it, and
  ``_pattern_key``, the one pattern check of the rest, accepts only the
  two representatives and raises ``PatternError`` for any other pattern.
  ``_pattern_key`` and ``catalan_number`` are defined in the package
  ``__init__``, so that a command that needs no permutation does not load
  this module, and are re-exported here as the same objects.
- ``_matcher`` states the one test of relative order: ``find_occurrences``
  runs it once per value subword and pattern, keeping the verdicts in the
  pattern's bounded ``_Verdicts`` table, and the bijection audit runs it
  on each predicted triple.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from permdyck import _pattern_key, catalan_number, kernels

__all__ = [
    "PatternError",
    "Permutation",
    "HeightVector",
    "OccurrenceSet",
    "PATTERN_312",
    "PATTERN_321",
    "as_pattern",
    "standardize",
    "find_occurrences",
    "catalan_number",
    "count_occurrences",
    "count_occurrences_fast",
    "left_to_right_maxima",
    "heights_312",
    "heights_321",
    "tau_base",
    "rotate_quarter",
    "reflect_main_diag",
    "reflect_anti_diag",
]


class PatternError(ValueError):
    """Raised for inputs that are not valid permutations/patterns."""


def _integers(values: Iterable, error: type, what: str) -> tuple[int, ...]:
    """``int`` of every value; ``error`` for a number that is not integral."""
    raw = tuple(values)
    ints = tuple(map(int, raw))
    if ints != raw:
        import numbers

        for v, i in zip(raw, ints):
            if isinstance(v, numbers.Number) and v != i:
                raise error(f"non-integral {what} {v!r} in {raw!r}")
    return ints


class Permutation(tuple):
    """A permutation of {1, ..., n} in one-line notation.

    The empty permutation (n = 0) and n = 1 are both legal.  A tuple or
    list of ints (``type(v) is int``) that is a permutation is taken as it
    is, checked by the kernel (``kernels.is_permutation``).  Anything else
    goes through the full check: each value becomes ``int(v)``, so a bool,
    an integral float or a digit string is accepted as its int, a
    non-integral number raises ``PatternError``, and so does a result that
    is not a permutation of 1..n.

    >>> Permutation((4, 3, 5, 1, 2)).n
    5
    >>> Permutation.from_text("2,1")
    Permutation(2, 1)
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()) -> "Permutation":
        # only a tuple or list reaches the kernel: it would hand any other
        # iterable over to the pure module
        if isinstance(values, (tuple, list)) and kernels.is_permutation(values):
            return tuple.__new__(cls, values)
        vals = _integers(values, PatternError, "value")
        if sorted(vals) != list(range(1, len(vals) + 1)):
            raise PatternError(f"not a permutation of 1..{len(vals)}: {vals!r}")
        return tuple.__new__(cls, vals)

    @classmethod
    def _of(cls, vals: Iterable[int]) -> "Permutation":
        """Wrap ints that are a permutation of 1..n by construction, unchecked."""
        return tuple.__new__(cls, vals)

    @property
    def n(self) -> int:
        return len(self)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse comma-separated one-line notation, e.g. ``"4,3,5,1,2"``."""
        text = text.strip()
        if not text:
            return cls()
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError as exc:
            raise PatternError(f"cannot parse permutation {text!r}") from exc

    def to_text(self) -> str:
        return ",".join(str(v) for v in self)

    def graph(self) -> tuple[tuple[int, int], ...]:
        """The point set {(i, rho_i)} of the permutation graph."""
        return tuple((i, v) for i, v in enumerate(self, 1))

    def __repr__(self) -> str:
        return f"Permutation{tuple(self)!r}"


PATTERN_312 = Permutation((3, 1, 2))
PATTERN_321 = Permutation((3, 2, 1))


def as_pattern(tau) -> Permutation:
    """Normalise a pattern argument: Permutation, int sequence, or "312"-style text."""
    if isinstance(tau, Permutation):
        return tau
    if isinstance(tau, str):
        if "," in tau:
            return Permutation.from_text(tau)
        return Permutation(int(ch) for ch in tau.strip())
    return Permutation(tau)


# Each length-3 pattern -> (its representative's key, the host symmetry).
# Reversing the host's positions reverses a pattern and complementing its
# values complements it, both one to one on occurrences, so every pattern of
# S_3 is counted as (3,1,2) or (3,2,1) (Simion and Schmidt 1985).
_PATTERNS: dict[tuple[int, ...], tuple[str, str]] = {
    (3, 1, 2): ("312", "identity"),
    (3, 2, 1): ("321", "identity"),
    (1, 3, 2): ("312", "complement"),
    (1, 2, 3): ("321", "complement"),
    (2, 1, 3): ("312", "reverse"),
    (2, 3, 1): ("312", "reverse-complement"),
}


class HeightVector(tuple):
    """Per-entry heights (h_1, ..., h_n); nonnegative, with h_n = 0."""

    __slots__ = ()

    def __new__(cls, heights: Iterable[int]) -> "HeightVector":
        hs = _integers(heights, ValueError, "height")
        if any(h < 0 for h in hs):
            raise ValueError(f"negative height in {hs!r}")
        if hs and hs[-1] != 0:
            raise ValueError(f"last height must be 0, got {hs!r}")
        return tuple.__new__(cls, hs)


def standardize(word: Sequence[int]) -> Permutation:
    """Reduce a word of distinct integers to the permutation with the same
    relative order (smallest entry becomes 1, second-smallest 2, ...).

    >>> standardize((5, 2, 4))
    Permutation(3, 1, 2)
    >>> standardize((9, 6, 4))
    Permutation(3, 2, 1)
    """
    vals = tuple(word)
    if len(set(vals)) != len(vals):
        raise PatternError(f"entries must be pairwise distinct: {vals!r}")
    rank = {v: r for r, v in enumerate(sorted(vals), 1)}
    return Permutation._of([rank[v] for v in vals])


class OccurrenceSet(NamedTuple):
    """All occurrences of a pattern in a host permutation.

    ``positions`` holds strictly increasing index tuples (1-based), pairwise
    distinct and in lexicographic order.
    """

    pattern: Permutation
    positions: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:  # shadows tuple.count
        return len(self.positions)

    def value_tuples(self, rho: Permutation) -> tuple[tuple[int, ...], ...]:
        """The occurrences as value tuples instead of position tuples."""
        return tuple(tuple(rho[i - 1] for i in pos) for pos in self.positions)


def _matcher(tau: Permutation) -> Callable[[tuple[int, ...]], bool]:
    """The test that a subword of distinct values has the relative order of
    ``tau`` (length >= 2): picking the (tau_1, ..., tau_k)-th smallest of
    its entries gives it back.  ``find_occurrences`` runs it once per value
    subword, through the pattern's ``_Verdicts`` table (at most 4,096
    subwords, cleared when full).

    >>> matches = _matcher(Permutation((3, 1, 2)))
    >>> matches((5, 2, 4)), matches((2, 5, 4))
    (True, False)
    """
    pick = itemgetter(*(t - 1 for t in tau))
    return lambda sub: pick(sorted(sub)) == sub


class _Verdicts(dict):
    """One pattern's verdict table: value subword -> ``_matcher``'s verdict.

    A subword it has not seen runs the test in ``__missing__`` and is
    stored; a repeated one is a dict lookup, with no Python code run.  It
    holds at most ``MAX_SUBWORDS`` = 4,096 subwords, enough for every
    length-3 subword of the values 1..16 (3,360), and is cleared when full.

    >>> verdicts = _Verdicts(Permutation((3, 1, 2)))
    >>> verdicts[5, 2, 4], verdicts[2, 5, 4], len(verdicts)
    (True, False, 2)
    """

    __slots__ = ("_matches",)
    MAX_SUBWORDS = 4096

    def __init__(self, tau: Permutation) -> None:
        super().__init__()
        self._matches = _matcher(tau)

    def __missing__(self, sub: tuple[int, ...]) -> bool:
        if len(self) >= self.MAX_SUBWORDS:
            self.clear()
        verdict = self[sub] = self._matches(sub)
        return verdict


# pattern -> its verdict table; at most _MAX_PATTERNS tables, cleared when full
_VERDICTS: dict[Permutation, _Verdicts] = {}
_MAX_PATTERNS = 64


def find_occurrences(rho: Permutation, tau) -> OccurrenceSet:
    """Enumerate every occurrence of ``tau`` in ``rho`` by testing every
    position k-subset with ``_matcher``.  This is the slow, obviously-correct
    reference used as ground truth for the fast counters, so it uses nothing
    from ``kernels``.

    Each pattern's verdicts are kept in a ``_Verdicts`` table (at most
    4,096 value subwords per pattern, 64 patterns), so the test runs once
    for each value subword and a repeated subword is a dict lookup.

    >>> find_occurrences((1, 5, 2, 4, 3), "312").positions
    ((2, 3, 4), (2, 3, 5))
    """
    tau = as_pattern(tau)
    k = tau.n
    if k < 2:
        raise PatternError("patterns must have length >= 2")
    vals = tuple(rho)
    if len(set(vals)) != len(vals):
        # the first subword holding a repeat raises, as it would standardise
        for sub in itertools.combinations(vals, k):
            standardize(sub)
    verdicts = _VERDICTS.get(tau)
    if verdicts is None:
        if len(_VERDICTS) >= _MAX_PATTERNS:
            _VERDICTS.clear()
        verdicts = _VERDICTS[tau] = _Verdicts(tau)
    hits = itertools.compress(
        itertools.combinations(range(1, len(vals) + 1), k),
        map(verdicts.__getitem__, itertools.combinations(vals, k)),
    )
    return OccurrenceSet(pattern=tau, positions=tuple(hits))


def count_occurrences(rho: Permutation, tau) -> int:
    """|find_occurrences(rho, tau)|; kept deliberately on the brute-force path."""
    return find_occurrences(rho, tau).count


def count_occurrences_fast(rho: Sequence[int], tau) -> int:
    """Count occurrences of a length-3 pattern in O(n^2).

    All six patterns of S_3 are counted by the (3,1,2) and (3,2,1) kernels
    on the host taken through the symmetry that ``_PATTERNS`` names.  A host
    that is not a ``Permutation`` is standardised first, so a word of
    distinct values counts as ``find_occurrences`` does, and a word with a
    repeated value raises ``PatternError``.

    >>> count_occurrences_fast((5, 2, 4), "321"), count_occurrences_fast((5, 2, 4), "312")
    (0, 1)
    """
    tau = as_pattern(tau)
    key, symmetry = _PATTERNS.get(tau, (None, None))
    if key is None:
        raise PatternError(f"fast counting supports length-3 patterns only, got {tau!r}")
    host = rho if isinstance(rho, Permutation) else standardize(rho)
    if "reverse" in symmetry:
        host = host[::-1]
    if "complement" in symmetry:
        top = len(host) + 1
        host = tuple(top - v for v in host)
    c312, c321 = kernels.count_pair(host)
    return c312 if key == "312" else c321


def left_to_right_maxima(rho: Sequence[int]) -> tuple[int, ...]:
    """Positions i such that rho_i is greater than every entry to its left.

    >>> left_to_right_maxima((4, 3, 5, 1, 2))
    (1, 3)
    """
    out = []
    best = 0
    for i, v in enumerate(rho, 1):
        if v > best:
            out.append(i)
            best = v
    return tuple(out)


def heights_312(rho: Sequence[int]) -> HeightVector:
    """h_i = number of entries smaller than rho_i lying to its right.

    This is the inversion-table encoding of ``rho``; it determines ``rho``
    uniquely.

    >>> tuple(heights_312((4, 3, 5, 1, 2)))
    (3, 2, 2, 0, 0)
    """
    # the pure body is the only one; imported here, off the start-up path
    from permdyck import _purecount

    # counts are >= 0 and the last tail is empty: a HeightVector as built
    return tuple.__new__(HeightVector, _purecount.heights_312(rho))


def heights_321(rho: Sequence[int]) -> HeightVector:
    """The two-branch height of each entry.

    For a left-to-right maximum, h_i counts smaller entries to its right;
    for a remaining entry, h_i counts entries to its right that are bigger
    than rho_i but smaller than the preceding left-to-right maximum.

    Equivalently, h_i = heights_312(rho)_i for a maximum, and
    h_i = h312_m - (i - m) - h312_i for a remaining entry whose preceding
    maximum sits at position m: of the h312_m entries after m below that
    maximum, the i - m at positions m+1..i are not to the right of i, and
    the h312_i below rho_i are not bigger than it.  The compiled kernel
    computes it this way, the pure one by the definition.

    >>> rho = (4, 3, 5, 1, 2)
    >>> tuple(heights_321(rho))
    (3, 0, 2, 1, 0)
    >>> h = heights_312(rho)
    >>> h[0] - (2 - 1) - h[1], h[2] - (4 - 3) - h[3], h[2] - (5 - 3) - h[4]
    (0, 1, 0)
    """
    # counts are >= 0 and the last tail is empty: a HeightVector as built
    return tuple.__new__(HeightVector, kernels.heights_321(rho))


def tau_base(rho: Permutation, tau) -> Permutation:
    """The reduction of the subword of all entries involved in at least one
    occurrence of ``tau``; the empty permutation if ``rho`` avoids ``tau``.

    >>> tau_base(Permutation((1, 5, 2, 4, 3)), "312")
    Permutation(4, 1, 3, 2)
    """
    tau = as_pattern(tau)
    if tau.n != 3:
        raise PatternError("tau-bases are defined here for length-3 patterns")
    return _base_of(rho, find_occurrences(rho, tau))


def _base_of(rho: Sequence[int], occ: OccurrenceSet) -> Permutation:
    """The reduced subword of the entries of ``rho`` that ``occ`` involves."""
    involved = sorted({i for pos in occ.positions for i in pos})
    return standardize([rho[i - 1] for i in involved])


def rotate_quarter(rho: Permutation) -> Permutation:
    """Rotate the permutation graph by a quarter turn: (i, v) -> (n+1-v, i)."""
    n = len(rho)
    out = [0] * n
    for i, v in enumerate(rho, 1):
        out[n - v] = i
    return Permutation(out)


def reflect_main_diag(rho: Permutation) -> Permutation:
    """Reflect the graph at the upwards-sloping diagonal: (i, v) -> (v, i).

    This is the group inverse of ``rho``.
    """
    n = len(rho)
    out = [0] * n
    for i, v in enumerate(rho, 1):
        out[v - 1] = i
    return Permutation(out)


def reflect_anti_diag(rho: Permutation) -> Permutation:
    """Reflect the graph at the downwards-sloping diagonal:
    (i, v) -> (n+1-v, n+1-i)."""
    n = len(rho)
    out = [0] * n
    for i, v in enumerate(rho, 1):
        out[n - v] = n + 1 - i
    return Permutation(out)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order; ``ValueError`` for n < 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return map(Permutation._of, itertools.permutations(range(1, n + 1)))
