"""Generalized Dyck paths with down-jumps.

A path is a string over three step characters:

- ``U`` : up-step (1, 1)
- ``D`` : down-step (1, -1)
- ``J`` : down-jump (0, -1)

A valid path starts and ends at height 0 and never dips below the axis;
with n down-steps and s down-jumps it therefore has n + s up-steps.  The
set of such paths with parameters (n, s) is denoted D_{n,s}; D_n = D_{n,0}
is the set of ordinary Dyck paths, counted by the Catalan numbers.

A *jump of depth d* is a maximal run of d consecutive ``J`` steps.  The
down-step from (x, h+1) to (x+1, h) has *height* h.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, NamedTuple, Optional, Sequence

from permdyck import kernels

__all__ = [
    "UP",
    "DOWN",
    "JUMP",
    "PathError",
    "Validation",
    "parse_path",
    "JumpSpan",
    "PathInfo",
    "path_info",
    "validate",
    "is_valid",
    "is_dyck",
    "path_counts",
    "running_heights",
    "DownStep",
    "down_steps",
    "down_step_heights",
    "Jump",
    "jumps",
    "is_psi_shaped",
    "path_from_down_heights",
    "weight_exponent",
    "count_paths",
    "enumerate_paths",
]

UP = "U"
DOWN = "D"
JUMP = "J"
_STEPS = frozenset((UP, DOWN, JUMP))


class PathError(ValueError):
    """Raised when an operation is applied to an unsuitable path."""


def parse_path(text: str) -> str:
    """Validate a path literal; any character other than U, D, J is rejected."""
    for i, ch in enumerate(text):
        if ch not in _STEPS:
            raise PathError(f"invalid step character {ch!r} at index {i}")
    return text


class Validation(NamedTuple):
    """Classification of a step string.

    ``kind`` is one of ``"dyck"``, ``"dyck-with-jumps"``, ``"invalid"``;
    for invalid paths ``reason`` names the first violated constraint and
    ``prefix`` the prefix length at which it occurred.
    """

    kind: str
    reason: Optional[str] = None
    prefix: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.kind != "invalid"


class JumpSpan(NamedTuple):
    """One maximal run of down-jumps: the string slice ``[start, end)``, the
    number of down-steps strictly to its left (``position``), and the
    counts of consecutive down-steps immediately before (``m``) and after
    (``l``) it."""

    start: int
    end: int
    position: int
    m: int
    l: int

    @property
    def depth(self) -> int:
        return self.end - self.start

    @property
    def psi_shaped(self) -> bool:
        """Sandwiched: a down-step immediately before and after the run."""
        return self.m > 0 and self.l > 0


class PathInfo(NamedTuple):
    """Everything the structure theory reads off a valid path, from one scan.

    Per down-step, left to right: the height it lands on and the 1-based
    index of the peak weakly to its left (0 when there is none).  ``spans``
    holds the jump runs, left to right.
    """

    path: str
    heights: tuple[int, ...]
    peaks: tuple[int, ...]
    spans: tuple[JumpSpan, ...]

    @property
    def psi_shaped(self) -> bool:
        return all(span.psi_shaped for span in self.spans)


_new = tuple.__new__
_new_span = partial(_new, JumpSpan)


def _scan(path: str) -> PathInfo | Validation:
    """One left-to-right pass: the ``PathInfo`` of a valid path, else the
    ``Validation`` naming the first violated constraint."""
    try:
        heights, peaks, spans = kernels.scan_path(path)
    except kernels.Rejected as exc:
        return Validation("invalid", *exc.args)
    # the records' ``_make``, without its per-call lookups and length check
    return _new(PathInfo, (path, heights, peaks, tuple(map(_new_span, spans))))


def path_info(path: str) -> PathInfo:
    """Parse a path once; raises ``PathError`` on an invalid one.

    >>> info = path_info("UUUUDDUDJDUD")
    >>> info.heights, info.peaks
    ((3, 2, 2, 0, 0), (1, 1, 3, 3, 5))
    >>> info.spans
    (JumpSpan(start=8, end=9, position=3, m=1, l=1),)
    """
    info = _scan(path)
    if isinstance(info, Validation):
        raise _invalid(info.reason, info.prefix)
    return info


def _invalid(reason: str, prefix: int) -> PathError:
    return PathError(f"invalid path: {reason} (prefix {prefix})")


def validate(path: str) -> Validation:
    """Classify a step string; never raises.

    >>> validate("UUDD").kind
    'dyck'
    >>> validate("UDDU").kind, validate("UDDU").prefix
    ('invalid', 3)
    """
    info = _scan(path)
    if isinstance(info, Validation):
        return info
    return Validation("dyck-with-jumps" if info.spans else "dyck")


def is_valid(path: str) -> bool:
    return validate(path).ok


def is_dyck(path: str) -> bool:
    return validate(path).kind == "dyck"


def path_counts(path: str) -> tuple[int, int]:
    """(n, s) = (number of down-steps, number of down-jumps)."""
    parse_path(path)
    return path.count(DOWN), path.count(JUMP)


def running_heights(path: str) -> tuple[int, ...]:
    """Height after each step (not including the start at 0); a character
    other than U, D, J raises ``PathError``."""
    h = 0
    out = []
    for ch in parse_path(path):
        h += 1 if ch == UP else -1
        out.append(h)
    return tuple(out)


class DownStep(NamedTuple):
    """One down-step: its 1-based index among down-steps, the height it
    lands on, and the index of the peak weakly to its left (a peak is a
    down-step immediately preceded by an up-step); ``peak`` is None when no
    peak lies weakly left, which never happens on encoder images."""

    index: int
    height: int
    peak: Optional[int]


def down_steps(path: str) -> tuple[DownStep, ...]:
    """Per-down-step records, left to right.  Raises on invalid paths."""
    info = path_info(path)
    return tuple(
        DownStep(index=i, height=h, peak=p or None)
        for i, (h, p) in enumerate(zip(info.heights, info.peaks), 1)
    )


def down_step_heights(path: str) -> tuple[int, ...]:
    """The height each down-step lands on, left to right; raises
    ``PathError`` as ``path_info`` does.

    >>> down_step_heights("UUUUDDUDJDUD")
    (3, 2, 2, 0, 0)
    """
    # the parse's heights alone, without building a ``PathInfo``
    try:
        return kernels.scan_path(path)[0]
    except kernels.Rejected as exc:
        raise _invalid(*exc.args) from None


class Jump(NamedTuple):
    """A maximal run of ``depth`` consecutive down-jumps.  ``position`` is
    the number of down-steps strictly to its left, so a jump at position i
    sits between the i-th and (i+1)-th down-steps."""

    position: int
    depth: int


def jumps(path: str) -> tuple[Jump, ...]:
    """Maximal down-jump runs, left to right.

    >>> jumps("UUUUDDUDJDUD")
    (Jump(position=3, depth=1),)
    """
    return tuple(Jump(position=span.position, depth=span.depth) for span in path_info(path).spans)


def is_psi_shaped(path: str) -> bool:
    """True iff the path is valid and every jump run is immediately preceded
    and followed by a down-step (the sandwich condition satisfied by every
    image of the permutation encoders)."""
    info = _scan(path)
    return isinstance(info, PathInfo) and info.psi_shaped


def path_from_down_heights(heights: Sequence[int]) -> str:
    """Translate a height vector into a path: before the i-th down-step,
    rise with up-steps to height h_i + 1 if below it, or descend with
    down-jumps if above it, then emit the down-step at height h_i.
    """
    try:
        return kernels.path_from_heights(heights)
    except kernels.Rejected as exc:
        raise PathError(*exc.args) from None


def weight_exponent(path: str) -> int:
    """The t-exponent 2n + s of the path weight x^{(2n+s)/2} (t = sqrt(x)):
    each up-step and down-step weighs sqrt(x), each down-jump weighs 1."""
    info = path_info(path)
    return 2 * len(info.heights) + sum(span.depth for span in info.spans)


_count_memo: dict[tuple[int, int, int], int] = {}


def _completions(d: int, j: int, h: int) -> int:
    """Paths from height h to 0, using exactly d down-steps and j down-jumps
    (up-step count is forced to d + j - h), never going below 0."""
    if d + j - h < 0:
        return 0
    if d == 0 and j == 0:
        return 1 if h == 0 else 0
    key = (d, j, h)
    got = _count_memo.get(key)
    if got is not None:
        return got
    total = 0
    if d + j - h > 0:
        total += _completions(d, j, h + 1)
    if h > 0:
        if d > 0:
            total += _completions(d - 1, j, h - 1)
        if j > 0:
            total += _completions(d, j - 1, h - 1)
    _count_memo[key] = total
    return total


def count_paths(n: int, s: int) -> int:
    """|D_{n,s}| by exact dynamic programming; |D_{n,0}| is the n-th
    Catalan number.

    >>> [count_paths(n, 0) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0 or s < 0:
        raise ValueError("n and s must be nonnegative")
    return _completions(n, s, 0)


def enumerate_paths(n: int, s: int) -> Iterator[str]:
    """Generate all of D_{n,s} explicitly (ASCII-lexicographic order).

    Exponential; intended as the brute-force oracle for ``count_paths`` and
    for image comparisons at small n.
    """

    def rec(prefix: list[str], u: int, d: int, j: int, h: int) -> Iterator[str]:
        if u == 0 and d == 0 and j == 0:
            if h == 0:
                yield "".join(prefix)
            return
        # children in ASCII order: D < J < U
        if d > 0 and h > 0:
            prefix.append(DOWN)
            yield from rec(prefix, u, d - 1, j, h - 1)
            prefix.pop()
        if j > 0 and h > 0:
            prefix.append(JUMP)
            yield from rec(prefix, u, d, j - 1, h - 1)
            prefix.pop()
        if u > 0:
            prefix.append(UP)
            yield from rec(prefix, u - 1, d, j, h + 1)
            prefix.pop()

    yield from rec([], n + s, n, s, 0)
