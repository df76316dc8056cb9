"""Pure-Python occurrence-counting kernels.

Used when the compiled extension is unavailable; same contract as
``permdyck._fastcount``.  One quadratic pass yields both pattern counts:
with k as the last index of a triple, running over i < k,

- ``bigger`` counts entries before position k exceeding p_k, so adding it
  whenever p_i < p_k accumulates the (3,1,2) triples ending at k;
- ``bigger * (p_k - 1 - (k - bigger))`` counts the (3,2,1) triples with
  middle entry p_k (descents into it times smaller entries after it).
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence


def count_pair(values: Sequence[int]) -> tuple[int, int]:
    """(number of (3,1,2)-occurrences, number of (3,2,1)-occurrences).

    ``values`` must be a permutation of 1..n.
    """
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
    (3,2,1)), each indexed by occurrence count up to binom(n, 3).  A negative
    n, or a prefix with a repeated or out-of-range value, raises ValueError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(set(prefix)) != len(prefix) or not all(1 <= v <= n for v in prefix):
        raise ValueError(f"bad prefix {prefix!r} for n={n}")
    rest = [v for v in range(1, n + 1) if v not in prefix]
    size = n * (n - 1) * (n - 2) // 6 + 1 if n >= 3 else 1
    h312 = [0] * size
    h321 = [0] * size
    pre = tuple(prefix)
    rng = range(1, n)
    for suffix in permutations(rest):
        p = pre + suffix
        c312 = 0
        c321 = 0
        for k in rng:
            vk = p[k]
            bigger = 0
            acc = 0
            for i in range(k):
                if p[i] > vk:
                    bigger += 1
                elif p[i] < vk:
                    acc += bigger
            c312 += acc
            c321 += bigger * (vk - 1 - (k - bigger))
        h312[c312] += 1
        h321[c321] += 1
    return h312, h321
