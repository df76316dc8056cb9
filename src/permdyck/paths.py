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

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

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


@dataclass(frozen=True)
class Validation:
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


def _scan(path: str) -> PathInfo | Validation:
    """One left-to-right pass: the ``PathInfo`` of a valid path, else the
    ``Validation`` naming the first violated constraint."""
    heights: list[int] = []
    peaks: list[int] = []
    spans: list[list[int]] = []
    span: Optional[list[int]] = None  # the jump run whose post-run is still open
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
            return Validation("invalid", f"invalid step character {ch!r}", i)
        if h < 0:
            return Validation("invalid", "path goes below the horizontal axis", i + 1)
        prev = ch
    if h != 0:
        return Validation("invalid", f"path ends at height {h}, not 0", len(path))
    return PathInfo(path, tuple(heights), tuple(peaks), tuple(map(JumpSpan._make, spans)))


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
        raise PathError(f"invalid path: {info.reason} (prefix {info.prefix})")
    return info


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
    """Height after each step (not including the start at 0)."""
    h = 0
    out = []
    for ch in path:
        h += 1 if ch == UP else -1
        out.append(h)
    return tuple(out)


@dataclass(frozen=True)
class DownStep:
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
    return path_info(path).heights


@dataclass(frozen=True)
class Jump:
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
    cur = 0
    parts = []
    for h in heights:
        if h < 0:
            raise PathError(f"negative height {h}")
        target = h + 1
        if cur < target:
            parts.append(UP * (target - cur))
        elif cur > target:
            parts.append(JUMP * (cur - target))
        parts.append(DOWN)
        cur = h
    path = "".join(parts)
    if cur != 0:
        raise PathError(f"height vector does not return to 0: {tuple(heights)!r}")
    return path


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
