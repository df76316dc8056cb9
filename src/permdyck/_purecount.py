"""Pure-Python kernels: occurrence counting, the encoder primitives, the
decoder primitives, the jump predictions and the bounded census.

``permdyck.kernels`` states their contract and when they run.  One
quadratic pass counts both patterns in a permutation; ``histogram_pair``
runs it on every permutation it sweeps.  With k as the last index of a
triple, running over i < k,

- ``bigger`` counts entries before position k exceeding p_k, so adding it
  whenever p_i < p_k accumulates the (3,1,2) triples ending at k;
- ``bigger * (p_k - 1 - (k - bigger))`` counts the (3,2,1) triples with
  middle entry p_k (descents into it times smaller entries after it).

The encoder and decoder primitives are the definitions that ``perms``,
``paths`` and ``bijections`` wrap.  ``encode_path`` composes
``path_from_heights`` with ``heights_312`` or ``heights_321``, and
``is_permutation`` is the check ``perms.Permutation`` runs on a tuple or
list of exact ints.  ``heights_312`` has no compiled twin, and
``perms.heights_312`` calls it whichever backend runs.  ``scan_path``,
``path_from_heights`` and ``perm_from_heights`` raise ``Rejected``, naming
the fault, for a step string or height vector that is not a path's or an
inversion table's.
``decode_psi312`` composes ``scan_path``, the sandwich check and
``perm_from_heights``, and raises what they raise.

``jump_pieces`` is the one statement of the structure theory's rule for
the occurrence triples each jump forces: ``bijections.analyze_jumps``
builds its records from it, and ``predicted_triples``, their sorted union,
is the oracle the compiled predictor is tested against.

``audit_images`` has no pure body: its None sends
``audit.audit_bijections`` down its next route, from the walk to the
images route and from there to ``audit._audit_loop``.

``census_layers`` is the layered DP of the bounded census, which
``permdyck.census`` explains, and ``bounded_census`` reads its counts off
each layer.  It takes any n_max, so it also runs the n_max above 34 that
the compiled census (128-bit counts, 34! < 2**128) hands over, and it is
the oracle the compiled census is tested against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import permutations
from typing import Iterator, Optional, Sequence

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


def encode_path(values: Sequence[int], key: str) -> str:
    """The image of ``values`` under the encoder for the pattern ``key``,
    "312" or "321": the path of its ``heights_312`` or ``heights_321``."""
    if key == "312":
        return path_from_heights(heights_312(values))
    if key == "321":
        return path_from_heights(heights_321(values))
    raise ValueError(f"no encoder for the pattern key {key!r}")


def is_permutation(values) -> bool:
    """Whether ``values`` is a tuple or list of ints, each exactly an int
    (no bool), that is a permutation of 1..n."""
    return (
        isinstance(values, (tuple, list))
        and all(type(v) is int for v in values)
        and sorted(values) == list(range(1, len(values) + 1))
    )


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


def decode_psi312(path: str) -> tuple[int, ...]:
    """The permutation whose ``psi312`` image is ``path``: parse it, check
    that every jump run is sandwiched between down-steps, and decode its
    heights as an inversion table.  Raises ``Rejected(reason, prefix)`` as
    ``scan_path`` does for a string that is not a valid path, and
    ``Rejected(reason)`` for a valid path that is not an image."""
    heights, _, spans = scan_path(path)
    if not all(m and l for *_, m, l in spans):
        raise Rejected("jumps must be sandwiched between down-steps")
    return perm_from_heights(heights)


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


def jump_pieces(
    rho: Sequence[int], key: str, heights: Sequence[int], spans: Sequence[Sequence[int]]
) -> Iterator[tuple]:
    """The occurrence triples each jump of an encoder image forces, as
    ``permdyck.bijections.analyze_jumps`` states them: per jump run
    (start, end, position, m, l) of ``spans``, left to right, on the image
    of ``rho`` with down-step ``heights`` under the encoder for the pattern
    ``key``, "312" or "321": (the run, the preceding maximum's position,
    the causing positions, the maxima before it as (position, value,
    height, steps_between), the set of base and down-run triples, the set
    of maxima-sum triples)."""
    n = len(rho)
    maxima = []
    top = 0
    for i, v in enumerate(rho, 1):
        if v > top:
            maxima.append(i)
            top = v
    mx = set(maxima)
    # between[i]: non-maximum steps up to down-step i (see
    # bijections.MaximumBeforeJump)
    between = [0]
    for i, (g, h) in enumerate(zip((0, *heights), heights), 1):
        step = max(0, h + 1 - g) if key == "312" else 1
        between.append(between[-1] + step - (i in mx))
    for jn, span in enumerate(spans):
        start, end, pos, m, l = span
        post_run = range(pos + 1, pos + l + 1)
        k_pm = bisect_right(maxima, pos)
        pm = maxima[k_pm - 1]
        # (3,1,2) sums over the maxima before the preceding one, (3,2,1) up to it
        if key == "312":
            lo, hi = rho[pos], rho[pos - 1]
            causing = tuple(k for k in range(pos + 1, n + 1) if lo < rho[k - 1] < hi)
            left = maxima[: k_pm - 1]
        else:
            causing = tuple(k for k in range(pos + 1, n + 1) if rho[k - 1] < rho[pos])
            left = maxima[:k_pm]
        before = tuple(
            (g, rho[g - 1], heights[g - 1], between[pos] - between[g]) for g in left
        )
        forced = {(pm, j, k) for j in post_run for k in causing}
        if key == "312":
            forced |= {(g, j, k) for g in range(pos - m + 1, pos + 1) for j in post_run for k in causing}
            extra = {
                (g, j, k)
                for g, value, _, _ in before
                for j in post_run
                for k in causing
                if rho[k - 1] < value
            }
        elif jn == 0:
            # the maxima before the threshold reach no following entry
            d = end - start
            extra = {
                (g, j, k)
                for g, _, height, steps in before
                for j in post_run[: max(0, min(height - d - steps, l))]
                for k in causing
            }
        else:
            extra = set()
        yield span, pm, causing, before, forced, extra


def predicted_triples(
    rho: Sequence[int], key: str, heights: Sequence[int], spans: Sequence[Sequence[int]]
) -> tuple[tuple[int, int, int], ...]:
    """The distinct triples of every jump's ``jump_pieces``, sorted."""
    out: set[tuple[int, int, int]] = set()
    for *_, forced, extra in jump_pieces(rho, key, heights, spans):
        out |= forced
        out |= extra
    return tuple(sorted(out))


def audit_images(n: int, key: str, images: Optional[Sequence[str]] = None) -> None:
    """None, with or without ``images``: ``audit.audit_bijections`` then
    runs its checks in ``audit._audit_loop`` over S_n, the oracle the
    compiled ``audit_images`` is tested against.  The compiled audit hands
    what it does not take here, and so sends the audit down its next route."""
    return None


def census_layers(
    n_max: int, key: str, r_max: int, limit: Optional[int]
) -> Iterator[Optional[dict[bytes, list[int]]]]:
    """Layers 0..n_max of the bounded census of ``permdyck.census`` for the
    pattern ``key``: layer k maps each state after k placements to its
    count vector.

    A state is packed as ``bytes``: one byte ``above * base + two`` per
    unplaced value, in increasing order of value; placing an entry rewrites
    the entries below and above it with a translation table.  Each layer is
    emptied while the next is built, so read a layer before asking for the
    next.  A layer that would hold more than ``limit`` states (None: no
    bound) is yielded as None, and ends the layers.
    """
    cap = r_max + 1
    base = cap + 1

    def table(update) -> bytes:
        out = bytearray(256)
        for b in range(base * base):
            a, t = update(*divmod(b, base))
            out[b] = min(a, cap) * base + min(t, cap)
        return bytes(out)

    above = bytes(b // base for b in range(256))
    two = bytes(b % base for b in range(256))
    if key == "321":
        # a pair (a, v) with a > v > u: every u < v gains above(v)
        lows = [table(lambda a, t, av=av: (a + 1, t + av)) for av in range(cap + 1)]
    else:
        low = table(lambda a, t: (a + 1, t))
        # a pair (a, v) with a > u > v: every u > v gains above(u)
        up = table(lambda a, t: (a, t + a))

    layer = {bytes(n_max): [1] + [0] * r_max}
    yield layer
    for _ in range(n_max):
        nxt: dict[bytes, list[int]] = {}
        while layer:
            state, vec = layer.popitem()
            lo = next(c for c, v in enumerate(vec) if v)
            pending = sum(state.translate(two))
            for i, b in enumerate(state):
                tv = two[b]
                # placing v completes tv occurrences; the other values' two()
                # then sum to pending - tv + gained, so an old count c survives
                # iff c + pending + gained <= r_max
                if key == "321":
                    av = above[b]
                    budget = r_max - pending - i * av
                    if budget < lo:
                        continue
                    new = state[:i].translate(lows[av]) + state[i + 1 :]
                else:
                    upper = state[i + 1 :]
                    budget = r_max - pending - sum(upper.translate(above))
                    if budget < lo:
                        continue
                    new = state[:i].translate(low) + upper.translate(up)
                out = nxt.get(new)
                if out is None:
                    if limit is not None and len(nxt) >= limit:
                        yield None
                        return
                    out = nxt[new] = [0] * (r_max + 1)
                for c in range(lo, budget + 1):
                    out[c + tv] += vec[c]
        layer = nxt
        yield layer


def bounded_census(
    n_max: int, key: str, r_max: int, limit: Optional[int]
) -> tuple[tuple[int, ...], ...] | int:
    """Per n <= n_max, the numbers of permutations of 1..n with 0..r_max
    occurrences of the pattern ``key``, "312" or "321", read off the
    all-zero state of each layer of ``census_layers``; or the number of the
    first layer that would hold more than ``limit`` states."""
    counts = []
    for k, layer in enumerate(census_layers(n_max, key, r_max, limit)):
        if layer is None:
            return k
        counts.append(tuple(layer[bytes(n_max - k)]))
    return tuple(counts)
