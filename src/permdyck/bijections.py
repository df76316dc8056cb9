"""Encodings of permutations as Dyck paths with down-jumps, their inverses
on pattern-avoiding permutations, and the jump/occurrence structure theory.

Three encoders share one translation step, from down-step heights to a
path (``paths.path_from_down_heights``, the kernels' ``path_from_heights``):

- ``psi_avoiding``: the staircase map defined on all of S_n.  Mark the
  left-to-right maxima of the permutation graph, take the region of cells
  lying weakly below-and-right of some maximum, rotate its upper boundary
  by -pi/4.  It is implemented here through the equivalent height rule
  (maximum at position m with value v has height v - m; a remaining entry
  at position k under that maximum has height h_m - (k - m)); the literal
  geometric construction is kept as ``psi_avoiding_by_rotation`` and the
  two are asserted equal in the test suite.
- ``psi312`` / ``psi321``: translate ``heights_312`` / ``heights_321``, in
  one kernel call each (``kernels.encode_path``).  Both are injections
  into the paths with down-jumps; they agree with ``psi_avoiding`` exactly
  on the (3,1,2)- resp. (3,2,1)-avoiding permutations, where the image is
  jump-free.

The i-th down-step of an image always corresponds to the i-th entry of the
permutation, and every left-to-right maximum becomes a peak of the path.

``analyze_jumps`` packages the local statistics of each jump (depth d,
following down-run l, preceding down-run m, preceding left-to-right
maximum, the d "causing" entries) together with the occurrence triples
those statistics force, and is validated exhaustively against brute-force
occurrence sets.  The rule for those triples is written once, as
``_purecount.jump_pieces``; ``predicted_occurrences`` takes their union
from the selected kernel (``kernels.predicted_triples``).
"""

from __future__ import annotations

import bisect
from typing import NamedTuple, Optional, Sequence

from permdyck import kernels, paths
from permdyck.paths import Jump, PathError
from permdyck.perms import (
    Permutation,
    _pattern_key,
    as_pattern,
    count_occurrences_fast,
    left_to_right_maxima,
)

__all__ = [
    "NotInImageError",
    "psi_avoiding",
    "psi_avoiding_by_rotation",
    "staircase_heights",
    "psi312",
    "psi321",
    "psi_tau",
    "decode_321_avoiding",
    "decode_312_avoiding",
    "decode_psi312",
    "MaximumBeforeJump",
    "JumpContext",
    "OccurrencePrediction",
    "JumpAnalysis",
    "analyze_jumps",
    "check_jumpsum",
    "is_single_occurrence_shape_312",
]


class NotInImageError(ValueError):
    """Raised when decoding a path that is not an encoder image."""


# ---------------------------------------------------------------------------
# encoders


def staircase_heights(rho: Sequence[int]) -> tuple[int, ...]:
    """Down-step heights of the staircase map: v - m for a maximum (m, v),
    and h_m - (k - m) for a remaining entry at position k whose preceding
    maximum sits at position m."""
    out = []
    max_pos = 0
    max_val = 0
    for k, v in enumerate(rho, 1):
        if v > max_val:
            max_pos, max_val = k, v
            out.append(v - k)
        else:
            out.append((max_val - max_pos) - (k - max_pos))
    return tuple(out)


def psi_avoiding(rho: Permutation) -> str:
    """The staircase map S_n -> D_n (never produces jumps)."""
    return paths.path_from_down_heights(staircase_heights(rho))


def psi_avoiding_by_rotation(rho: Permutation) -> str:
    """The literal geometric construction: rasterise the cells weakly
    below-and-right of the left-to-right maxima and walk the rotated upper
    boundary column by column.  Kept as an independent cross-check of
    ``psi_avoiding``."""
    n = len(rho)
    maxima = [(i, rho[i - 1]) for i in left_to_right_maxima(rho)]
    covered = {
        (x, y)
        for (i, v) in maxima
        for x in range(i, n + 1)
        for y in range(1, v + 1)
    }
    steps = []
    prev_top = 0
    for x in range(1, n + 1):
        top = max((y for y in range(1, n + 1) if (x, y) in covered), default=0)
        steps.append(paths.UP * (top - prev_top))
        steps.append(paths.DOWN)
        prev_top = top
    return "".join(steps)


def psi312(rho: Permutation) -> str:
    """Encode via the smaller-entries-to-the-right heights; injective on S_n.

    >>> psi312(Permutation((4, 3, 5, 1, 2)))
    'UUUUDDUDJDUD'
    """
    try:
        return kernels.encode_path(rho, "312")
    except kernels.Rejected as exc:
        raise PathError(*exc.args) from None


def psi321(rho: Permutation) -> str:
    """Encode via the two-branch heights; injective on S_n.

    >>> psi321(Permutation((4, 3, 5, 1, 2)))
    'UUUUDJJDUUUDDD'
    """
    try:
        return kernels.encode_path(rho, "321")
    except kernels.Rejected as exc:
        raise PathError(*exc.args) from None


def psi_tau(rho: Permutation, tau) -> str:
    """``psi312`` or ``psi321``, as ``tau`` is (3,1,2) or (3,2,1)."""
    return psi312(rho) if _pattern_key(tau) == "312" else psi321(rho)


# the encoders as written here, by pattern key: ``audit.audit_bijections``
# audits one of them by the compiled walk over S_n, which builds its images
# itself; an encoder put in their place is audited on its own images
_STOCK_ENCODERS = {"312": psi312, "321": psi321}


# ---------------------------------------------------------------------------
# decoders


def _peak_maxima(path: str) -> tuple[int, list[tuple[int, int]]]:
    """n and the (position, value) of the left-to-right maxima encoded by a
    jump-free Dyck path: its peaks, with value = height + down-step index."""
    info = paths.path_info(path)
    if info.spans:
        raise PathError("decoding is defined for jump-free Dyck paths only")
    maxima = [
        (i, h + i) for i, (h, p) in enumerate(zip(info.heights, info.peaks), 1) if p == i
    ]
    return len(info.heights), maxima


def decode_321_avoiding(path: str) -> Permutation:
    """The unique (3,2,1)-avoiding preimage of a jump-free Dyck path under
    the staircase map: place the maxima read off the peaks, then fill the
    remaining positions left to right with the unused values in ascending
    order.

    >>> decode_321_avoiding("UUDD")
    Permutation(2, 1)
    """
    n, maxima = _peak_maxima(path)
    out = [0] * n
    used = set()
    for pos, val in maxima:
        out[pos - 1] = val
        used.add(val)
    free = sorted(set(range(1, n + 1)) - used)
    it = iter(free)
    for i in range(n):
        if out[i] == 0:
            out[i] = next(it)
    return Permutation(out)


def decode_312_avoiding(path: str) -> Permutation:
    """The unique (3,1,2)-avoiding preimage: place the maxima, then fill each
    remaining position (left to right) with the largest unused value below
    the preceding maximum.

    >>> decode_312_avoiding("UUDD")
    Permutation(2, 1)
    """
    n, maxima = _peak_maxima(path)
    out = [0] * n
    free: list[int] = sorted(set(range(1, n + 1)) - {v for _, v in maxima})
    for pos, val in maxima:
        out[pos - 1] = val
    positions = [p for p, _ in maxima]
    values = [v for _, v in maxima]
    for i in range(1, n + 1):
        if out[i - 1]:
            continue
        bound = values[bisect.bisect_right(positions, i) - 1]
        j = bisect.bisect_left(free, bound) - 1
        if j < 0:
            raise NotInImageError(f"no fill value below {bound} at position {i}")
        out[i - 1] = free.pop(j)
    return Permutation(out)


def decode_psi312(path: str) -> Permutation:
    """Invert ``psi312``.  The path must satisfy the jump sandwich condition
    and its down-step heights must form a valid inversion table
    (h_i <= n - i); the entry at position i is then the (h_i + 1)-th
    smallest value not used so far.

    >>> decode_psi312("UUUUDDUDJDUD")
    Permutation(4, 3, 5, 1, 2)
    """
    try:
        return Permutation._of(kernels.decode_psi312(path))
    except kernels.Rejected as exc:
        # a fault of the step string comes with its prefix, one of an image alone
        if len(exc.args) == 2:
            raise paths._invalid(*exc.args) from None
        raise NotInImageError(*exc.args) from None


# ---------------------------------------------------------------------------
# jump structure and predicted occurrences


class MaximumBeforeJump(NamedTuple):
    """A left-to-right maximum to the left of a jump, with its height and
    the count of intervening non-maximum steps used by the summation
    clauses (up-steps for the (3,1,2) clause, down-steps for (3,2,1)).

    For a jump after down-step pos and a maximum at position g,
    ``steps_between`` is between[pos] - between[g], where between[i] sums
    over the down-steps k <= i a weight w_k, less 1 when k is a
    left-to-right maximum: for (3,1,2), w_k = max(0, h_k + 1 - h_{k-1})
    (h_0 = 0) counts the up-steps just before down-step k, and the 1 is the
    maximum's peak up-step; for (3,2,1), w_k = 1 counts down-step k itself.
    """

    position: int
    value: int
    height: int
    steps_between: int


class JumpContext(NamedTuple):
    """Local statistics of one jump in an encoder image.

    ``m`` counts the consecutive down-steps immediately before the jump,
    ``l`` those immediately after (both >= 1 on encoder images);
    ``causing`` holds the positions of the d entries to the right of the
    jump that force its depth: for (3,1,2) the entries with values strictly
    between rho_{i+1} and rho_i, for (3,2,1) the entries smaller than
    rho_{i+1}.
    """

    jump: Jump
    m: int
    l: int
    pre_run: tuple[int, ...]
    post_run: tuple[int, ...]
    causing: tuple[int, ...]
    preceding_max: int
    maxima_before: tuple[MaximumBeforeJump, ...]
    threshold_index: Optional[int]


class OccurrencePrediction(NamedTuple):
    """Occurrence triples (as position tuples) forced by one jump.

    ``base`` is the d*l count from the preceding maximum, ``before_downs``
    the m*d*l count from the down-run before the jump ((3,1,2) only),
    ``maxima_sum`` the contribution of earlier maxima; ``total`` counts the
    distinct triples of the union.
    """

    base: int
    before_downs: int
    maxima_sum: int
    total: int
    triples: tuple[tuple[int, int, int], ...]

    def value_triples(self, rho: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            tuple(rho[i - 1] for i in trip) for trip in self.triples
        )


class JumpAnalysis(NamedTuple):
    context: JumpContext
    prediction: OccurrencePrediction


def analyze_jumps(rho: Permutation, tau) -> tuple[JumpAnalysis, ...]:
    """Analyse each jump of ``psi_tau(rho)`` and list the occurrence triples
    it forces.

    For (3,1,2), a jump of depth d at position i followed by l down-steps
    yields d*l occurrences (preceding maximum, rho_{i+j}, causing entry),
    m*d*l occurrences with the m down-run entries before the jump in the
    first slot, and for each earlier maximum M one occurrence per
    (following down-step, causing entry below M) pair.

    For (3,2,1), the first jump yields, per maximum M_g left of it with
    height h_g and s_g intervening non-maximum down-steps,
    d * min(h_g - d - s_g, l) occurrences (M_g, rho_{i+j}, causing entry),
    starting from the first maximum where that quantity is positive; later
    jumps are reported with their d*l base triples only.

    Every emitted triple is a genuine occurrence; for hosts with exactly
    one or two occurrences in total the union over jumps is exhaustive
    (verified against brute force in the test suite).
    """
    from permdyck._purecount import jump_pieces

    key, info = _encoded(rho, tau)
    analyses = []
    pieces = jump_pieces(rho, key, info.heights, info.spans)
    for jn, (span, pm, causing, before, forced, extra) in enumerate(pieces):
        pos, d, m, l = span.position, span.depth, span.m, span.l
        before = tuple(map(MaximumBeforeJump._make, before))
        if key == "312":
            threshold = next((g for g, rec in enumerate(before, 1) if rec.steps_between < m), None)
        elif jn == 0:
            threshold = next(
                (g for g, rec in enumerate(before, 1) if rec.height - d - rec.steps_between > 0),
                None,
            )
        else:
            threshold = None
        triples = tuple(sorted(forced | extra))
        prediction = OccurrencePrediction(
            base=d * l,
            before_downs=m * d * l if key == "312" else 0,
            maxima_sum=len(extra),
            total=len(triples),
            triples=triples,
        )
        context = JumpContext(
            jump=Jump(position=pos, depth=d),
            m=m,
            l=l,
            pre_run=tuple(range(pos - m + 1, pos + 1)),
            post_run=tuple(range(pos + 1, pos + l + 1)),
            causing=causing,
            preceding_max=pm,
            maxima_before=before,
            threshold_index=threshold,
        )
        analyses.append(JumpAnalysis(context=context, prediction=prediction))
    return tuple(analyses)


def _encoded(rho: Permutation, tau) -> tuple[str, paths.PathInfo]:
    """The pattern key and the parsed image ``psi_tau(rho)``."""
    key = _pattern_key(tau)
    return key, paths.path_info(psi312(rho) if key == "312" else psi321(rho))


def predicted_occurrences(rho: Permutation, tau) -> tuple[tuple[int, int, int], ...]:
    """Union of the occurrence triples predicted for all jumps of psi_tau(rho)."""
    return _predict(rho, *_encoded(rho, tau))


def _predict(rho: Permutation, key: str, info: paths.PathInfo) -> tuple[tuple[int, int, int], ...]:
    """``predicted_occurrences`` on the parsed image ``info``."""
    return kernels.predicted_triples(rho, key, info.heights, info.spans)


def _jumps_within_occurrences(s: int, r: int) -> bool:
    """s jumps for r occurrences: at most one jump per occurrence, and no
    jump exactly for avoiders."""
    return s <= r and (s == 0) == (r == 0)


def check_jumpsum(rho: Permutation, tau) -> bool:
    """True iff the number of down-jump steps of psi_tau(rho) is at most the
    occurrence count of tau in rho, with zero jumps exactly for avoiders."""
    tau = as_pattern(tau)
    s = psi_tau(rho, tau).count(paths.JUMP)
    return _jumps_within_occurrences(s, count_occurrences_fast(rho, tau))


def is_single_occurrence_shape_312(path: str) -> bool:
    """The local path shape equivalent to "exactly one (3,1,2)-occurrence":
    a single jump with d = l = m = 1 whose preceding down-step is itself
    preceded by at least two up-steps (a second peak immediately before
    would force a second occurrence).  Verified exhaustively for n <= 7.
    """
    try:
        info = paths.path_info(path)
    except PathError:
        return False
    return _single_occurrence_shape_312(info)


def _single_occurrence_shape_312(info: paths.PathInfo) -> bool:
    """``is_single_occurrence_shape_312`` on the parsed path ``info``."""
    if len(info.spans) != 1:
        return False
    span = info.spans[0]
    # d = m = l = 1, and the pre-jump down-step follows at least two up-steps
    return (span.depth, span.m, span.l) == (1, 1, 1) and info.path.endswith(
        paths.UP * 2, 0, span.start - 1
    )
