"""Backend selection for the counting kernels and the encoder and decoder
primitives.

The compiled extension ``permdyck._fastcount`` (one hand-written C file,
built by ``python setup.py build_ext --inplace`` or on install when a C
compiler is present) is preferred when importable; ``BACKEND`` is then
``"c"``.  Otherwise the pure-Python fallback ``permdyck._purecount`` runs
and ``BACKEND`` is ``"python"``; set ``PERMDYCK_NO_EXT=1`` to force it.
The two are bit-for-bit equivalent (tested), and the pure kernel is the
reference the extension is checked against: its ``histogram_pair``
recounts every permutation with the quadratic identity, while the
extension's walks the census state depth first, so the two sweeps are
independent algorithms.

Both backends also hold the encoder primitives behind ``perms`` and
``paths``: ``heights_312``, ``heights_321``, ``scan_path`` (the one-pass
parse of a path) and ``path_from_heights``.  The pure ``heights_321``
counts by its two-branch definition; the compiled one derives it from the
(3,1,2) heights by the identity h321_i = h312_m - (i - m) - h312_i for an
entry i that is not a left-to-right maximum, m being the preceding
maximum, and h321_i = h312_i for a maximum, so again the two are
independent.  The decoder primitive ``perm_from_heights`` inverts
``heights_312``: it rebuilds a permutation from its inversion table.

One hand-over rule holds for ``count_pair``, the four encoder primitives
and the decoder primitive: the compiled one returns None for an input it
does not handle, and the wrapper here then runs the pure one, which also
names the fault of a rejected path, height vector or inversion table by
raising ``Rejected``.  The compiled ``count_pair``, ``heights_312`` and
``heights_321`` handle a tuple or list holding a permutation of 1..n with
n <= ``MAXN``; ``scan_path`` a str holding a valid path;
``path_from_heights`` a tuple or list of nonnegative ints that ends at 0;
``perm_from_heights`` a tuple or list of n <= ``MAXN`` ints whose i-th
(from 1) lies in 0..n - i.  ``histogram_pair`` hands nothing over: the compiled
one raises ``ValueError`` for n > ``MAXN``, as both do for a bad prefix.
With the compiled kernel selected, the pure module is imported only when a
first input is handed over, and ``kernels.Rejected`` only then resolves.
"""

from __future__ import annotations

import os
from typing import Sequence

if os.environ.get("PERMDYCK_NO_EXT"):
    from permdyck import _purecount as _impl

    BACKEND = "python"
else:
    try:
        from permdyck import _fastcount as _impl  # type: ignore[no-redef]

        BACKEND = "c"
    except ImportError:
        from permdyck import _purecount as _impl  # type: ignore[no-redef]

        BACKEND = "python"


def _pure():
    """The pure kernel, for the inputs the compiled one hands over: imported
    on first use, so a process that never hands one over never loads it."""
    from permdyck import _purecount

    return _purecount


def __getattr__(name: str):
    # ``except kernels.Rejected`` looks the class up only once one is raised
    if name == "Rejected":
        return _pure().Rejected
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


histogram_pair = _impl.histogram_pair


def count_pair(values: Sequence[int]) -> tuple[int, int]:
    got = _impl.count_pair(values)
    return _pure().count_pair(values) if got is None else got


def heights_312(values: Sequence[int]) -> tuple[int, ...]:
    got = _impl.heights_312(values)
    return _pure().heights_312(values) if got is None else got


def heights_321(values: Sequence[int]) -> tuple[int, ...]:
    got = _impl.heights_321(values)
    return _pure().heights_321(values) if got is None else got


def scan_path(path: str) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    got = _impl.scan_path(path)
    return _pure().scan_path(path) if got is None else got


def path_from_heights(heights: Sequence[int]) -> str:
    got = _impl.path_from_heights(heights)
    return _pure().path_from_heights(heights) if got is None else got


def perm_from_heights(heights: Sequence[int]) -> tuple[int, ...]:
    got = _impl.perm_from_heights(heights)
    return _pure().perm_from_heights(heights) if got is None else got
