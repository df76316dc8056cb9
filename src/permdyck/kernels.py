"""Backend selection for the occurrence-counting kernels.

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
"""

from __future__ import annotations

import os
from typing import Sequence

from permdyck import _purecount

if os.environ.get("PERMDYCK_NO_EXT"):
    _impl = _purecount
    BACKEND = "python"
else:
    try:
        from permdyck import _fastcount as _impl  # type: ignore[no-redef]

        BACKEND = "c"
    except ImportError:
        _impl = _purecount
        BACKEND = "python"

histogram_pair = _impl.histogram_pair

# the compiled kernel uses fixed-size stack arrays; larger inputs take the
# pure path, which has no size limit
_COMPILED_MAX_N = 20


def count_pair(values: Sequence[int]) -> tuple[int, int]:
    vals = tuple(values)
    if len(vals) > _COMPILED_MAX_N:
        return _purecount.count_pair(vals)
    return tuple(_impl.count_pair(vals))

