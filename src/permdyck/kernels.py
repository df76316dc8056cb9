"""The counting kernels, the encoder and decoder primitives and the
bounded census, from the selected backend.

Two backends hold the same eight functions.  The compiled extension
``permdyck._fastcount`` (one hand-written C file, built by ``python
setup.py build_ext --inplace`` or on install when a C compiler is present)
is preferred when importable; ``BACKEND`` is then ``"c"``.  Otherwise the
pure-Python ``permdyck._purecount`` runs and ``BACKEND`` is ``"python"``;
set ``PERMDYCK_NO_EXT=1`` to force it.  The two give bit-for-bit equal
results (tested), by independent algorithms, so each is checked against
the other:

- Counting.  Each backend has one counting algorithm, which its
  ``count_pair`` (the (3,1,2) and (3,2,1) occurrences of one permutation)
  and its ``histogram_pair`` (their histograms over a sweep of S_n, or of
  the permutations with a given prefix) share.  The pure kernel runs the
  quadratic counting identity on each permutation; the compiled one places
  the entries left to right and carries the bounded census's state, and
  its sweep walks the placements depth first at O(1) per permutation.
- Encoding.  ``heights_312``, ``heights_321``, ``scan_path`` (the one-pass
  parse of a path) and ``path_from_heights`` back ``perms`` and ``paths``.
  The pure ``heights_321`` counts by its two-branch definition; the
  compiled one derives it from the (3,1,2) heights.
- Decoding.  ``perm_from_heights`` inverts ``heights_312``: it rebuilds a
  permutation from its inversion table.
- The bounded census.  ``bounded_census(n_max, key, r_max, limit)`` runs
  the layers of ``census.bounded_distributions`` for the pattern ``key``
  ("312" or "321", r_max <= 14) and returns its tuple of count tuples, one
  per n <= n_max, or the number of the first layer that would hold more
  than ``limit`` states (None: no bound).  Both backends run the same DP
  and hold the same states, the compiled one with its own code, not the
  sweep's: 128-bit counts, exact for n_max <= 34 (34! < 2**128).

One hand-over rule holds for the seven per-input functions, ``count_pair``,
the five primitives and ``bounded_census``: the compiled one returns None
for an input it does not handle, and the function here then runs the pure
one, which also names the fault of a rejected path, height vector or
inversion table by raising ``Rejected``.  The compiled ``count_pair``,
``heights_312`` and ``heights_321`` handle a tuple or list holding a
permutation of 1..n with n <= ``MAXN`` = 20; ``scan_path`` a str holding a
valid path; ``path_from_heights`` a tuple or list of nonnegative ints that
ends at 0; ``perm_from_heights`` a tuple or list of n <= ``MAXN`` ints
whose i-th (from 1) lies in 0..n - i; ``bounded_census`` an int n_max in
0..34, a key "312" or "321", an int r_max in 0..14 and a limit that is
None or an int.  ``histogram_pair`` hands nothing over: both backends
sweep 0 <= n <= ``MAXN`` only (20! still fits the compiled 64-bit bins)
and raise ``ValueError`` for any other n and for a bad prefix.  With the
compiled kernel selected, the pure module is imported only when a
first input is handed over, and ``kernels.Rejected`` only then resolves.
"""

from __future__ import annotations

import os

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


def _handing_over(name: str):
    """The per-input function ``name`` of the selected backend, which hands
    an input the compiled one returns None for to the pure one."""

    # the encoders call these once per permutation: reading the module's
    # __dict__ costs less than getattr, and keeps *args about as cheap as one arg
    def primitive(*args):
        got = _impl.__dict__[name](*args)
        return _pure().__dict__[name](*args) if got is None else got

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


histogram_pair = _impl.histogram_pair
count_pair = _handing_over("count_pair")
heights_312 = _handing_over("heights_312")
heights_321 = _handing_over("heights_321")
scan_path = _handing_over("scan_path")
path_from_heights = _handing_over("path_from_heights")
perm_from_heights = _handing_over("perm_from_heights")
bounded_census = _handing_over("bounded_census")
