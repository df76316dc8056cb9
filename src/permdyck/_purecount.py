"""Pure-Python kernels: occurrence counting, the encoder primitives and the
decoder primitive.

``permdyck.kernels`` states their contract and when they run.  One
quadratic pass counts both patterns in a permutation; ``histogram_pair``
runs it on every permutation it sweeps.  With k as the last index of a
triple, running over i < k,

- ``bigger`` counts entries before position k exceeding p_k, so adding it
  whenever p_i < p_k accumulates the (3,1,2) triples ending at k;
- ``bigger * (p_k - 1 - (k - bigger))`` counts the (3,2,1) triples with
  middle entry p_k (descents into it times smaller entries after it).

The encoder and decoder primitives are the definitions that ``perms``,
``paths`` and ``bijections`` wrap.  ``scan_path``, ``path_from_heights``
and ``perm_from_heights`` raise ``Rejected``, naming the fault, for a step
string or height vector that is not a path's or an inversion table's.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import permutations
from typing import Sequence

UP, DOWN, JUMP = "U", "D", "J"

# the largest n that ``histogram_pair`` sweeps, as in the compiled kernel,
# whose 64-bit bins still hold 20!
MAXN = 20


class Rejected(ValueError):
    """A step string that is not a valid path, or a height vector that is
    not a path's or an inversion table's; ``args`` name the fault."""


def count_pair(values: Sequence[int]) -> tuple[int, int]:
    """(number of (3,1,2)-occurrences, number of (3,2,1)-occurrences).

    ``values`` must be a permutation of 1..n.
    """
    values = tuple(values)
    n = len(values)
    c312 = 0
    c321 = 0
    for k in range(1, n):
        vk = values[k]
        bigger = 0
        acc = 0
        for i in range(k):
            if values[i] > vk:
                bigger += 1
            elif values[i] < vk:
                acc += bigger
        c312 += acc
        c321 += bigger * (vk - 1 - (k - bigger))
    return c312, c321


def histogram_pair(n: int, prefix: tuple[int, ...] = ()) -> tuple[list[int], list[int]]:
    """Occurrence-count histograms over all permutations of 1..n whose first
    ``len(prefix)`` entries equal ``prefix``: (hist for (3,1,2), hist for
    (3,2,1)), each indexed by occurrence count up to binom(n, 3).  An n
    outside 0..MAXN raises ValueError, and so does a prefix that is not a
    tuple or list of distinct ints in 1..n.
    """
    if not 0 <= n <= MAXN:
        raise ValueError(f"kernel supports 0 <= n <= {MAXN}")
    if (
        not isinstance(prefix, (tuple, list))
        or not all(isinstance(v, int) and 1 <= v <= n for v in prefix)
        or len(set(prefix)) != len(prefix)
    ):
        raise ValueError(f"bad prefix {prefix!r} for n={n}")
    rest = [v for v in range(1, n + 1) if v not in prefix]
    size = n * (n - 1) * (n - 2) // 6 + 1 if n >= 3 else 1
    h312 = [0] * size
    h321 = [0] * size
    pre = tuple(prefix)
    for suffix in permutations(rest):
        c312, c321 = count_pair(pre + suffix)
        h312[c312] += 1
        h321[c321] += 1
    return h312, h321


def heights_312(values: Sequence[int]) -> tuple[int, ...]:
    """h_i = number of entries smaller than values_i lying to its right."""
    # right to left: h_i is where values_i falls among the sorted entries after it
    seen: list[int] = []
    out = []
    for v in reversed(tuple(values)):
        h = bisect_left(seen, v)
        seen.insert(h, v)
        out.append(h)
    out.reverse()
    return tuple(out)


def heights_321(values: Sequence[int]) -> tuple[int, ...]:
    """The two-branch height of each entry: for a left-to-right maximum, the
    smaller entries to its right; for a remaining entry, the entries to its
    right that are bigger than it but smaller than the preceding maximum."""
    vals = tuple(values)
    out = []
    running_max = 0
    for i, v in enumerate(vals, 1):
        h = 0
        if v > running_max:
            running_max = v
            for w in vals[i:]:
                if w < v:
                    h += 1
        else:
            for w in vals[i:]:
                if v < w < running_max:
                    h += 1
        out.append(h)
    return tuple(out)


def perm_from_heights(heights: Sequence[int]) -> tuple[int, ...]:
    """The permutation whose inversion table is ``heights``: the entry at
    position i is the (h_i + 1)-th smallest value not used before it.
    Raises ``Rejected`` for a negative h_i or one above n - i."""
    heights = tuple(heights)
    n = len(heights)
    free = list(range(1, n + 1))
    out = []
    for i, h in enumerate(heights, 1):
        if h < 0:
            raise Rejected(f"negative height {h} at entry {i}")
        if h > n - i:
            raise Rejected(f"height {h} at entry {i} exceeds n - i = {n - i}")
        out.append(free.pop(h))
    return tuple(out)


def scan_path(path: str) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """One left-to-right pass over a valid path: per down-step, the height it
    lands on and the 1-based index of the peak weakly to its left (0 when
    there is none), and per jump run (start, end, position, m, l).  Raises
    ``Rejected(reason, prefix)`` naming the first violated constraint."""
    heights: list[int] = []
    peaks: list[int] = []
    spans: list[list[int]] = []
    span: list[int] | None = None  # the jump run whose post-run is still open
    h = n = run = peak = 0
    prev = ""
    for i, ch in enumerate(path):
        if ch == UP:
            h += 1
            run = 0
            span = None
        elif ch == DOWN:
            h -= 1
            n += 1
            run += 1
            if prev == UP:
                peak = n
            heights.append(h)
            peaks.append(peak)
            if span is not None:
                span[4] += 1
        elif ch == JUMP:
            h -= 1
            if prev == JUMP:
                span[1] += 1
            else:
                span = [i, i + 1, n, run, 0]
                spans.append(span)
            run = 0
        else:
            raise Rejected(f"invalid step character {ch!r}", i)
        if h < 0:
            raise Rejected("path goes below the horizontal axis", i + 1)
        prev = ch
    if h != 0:
        raise Rejected(f"path ends at height {h}, not 0", len(path))
    return tuple(heights), tuple(peaks), tuple(map(tuple, spans))


def path_from_heights(heights: Sequence[int]) -> str:
    """Before the i-th down-step, rise with up-steps to height h_i + 1 if
    below it, or descend with down-jumps if above it, then emit the
    down-step at height h_i.  Raises ``Rejected`` for a negative height or a
    vector that does not end at 0."""
    cur = 0
    parts = []
    for h in heights:
        if h < 0:
            raise Rejected(f"negative height {h}")
        target = h + 1
        if cur < target:
            parts.append(UP * (target - cur))
        elif cur > target:
            parts.append(JUMP * (cur - target))
        parts.append(DOWN)
        cur = h
    path = "".join(parts)
    if cur != 0:
        raise Rejected(f"height vector does not return to 0: {tuple(heights)!r}")
    return path
