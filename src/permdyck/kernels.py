"""The counting kernels, the encoder and decoder primitives, the jump
predictions and the bounded census, from the selected backend.

Two backends hold the same eleven functions.  The compiled extension
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
- Encoding.  ``heights_321``, ``scan_path`` (the one-pass parse of a path)
  and ``path_from_heights`` back ``perms`` and ``paths``; ``perms.heights_312``
  runs the pure body, which no hot caller needs compiled.  The pure
  ``heights_321`` counts by its two-branch definition; the compiled one
  derives it from the (3,1,2) heights.  ``encode_path(values,
  key)`` is ``bijections.psi312`` (key "312") or ``psi321`` (key "321"):
  ``path_from_heights`` of the permutation's heights, in one call.
  ``is_permutation`` is the check of ``perms.Permutation``: whether the
  value is a tuple or list of ints, none of them a bool, that is a
  permutation of 1..n.
- Decoding.  ``decode_psi312`` inverts ``psi312``: it parses the path,
  checks that every jump is sandwiched and decodes the heights as an
  inversion table.  The pure one composes ``scan_path``, that check and
  ``_purecount.perm_from_heights``; the compiled one parses with the C
  parser of ``scan_path``, the only one, and decodes in C.
- Jump predictions.  ``predicted_triples(rho, key, heights, spans)``
  returns the sorted, distinct occurrence triples that the jumps of an
  encoder image force (``bijections.analyze_jumps``), given the image's
  down-step heights and jump runs as ``scan_path`` returns them.  The pure
  one unions the sets of ``_purecount.jump_pieces``, the one statement of
  the rule; the compiled one marks the triples in a bitset over (a, b, c),
  which drops duplicates and reads them out in order.
- The bounded census.  ``bounded_census(n_max, key, r_max, limit)`` runs
  the layers of ``census.bounded_distributions`` for the pattern ``key``
  ("312" or "321", r_max <= 14) and returns its tuple of count tuples, one
  per n <= n_max, or the number of the first layer that would hold more
  than ``limit`` states (None: no bound).  Both backends run the same DP
  and hold the same states, the compiled one with its own code, not the
  sweep's: 128-bit counts, exact for n_max <= 34 (34! < 2**128).
- The bijection audit.  ``audit_images(n, key, images=None)`` runs the
  checks of ``audit.audit_bijections`` that read one encoder image over
  S_n in lexicographic order: on ``images``, ``images[k]`` being the image
  of the k-th permutation (the images route), or, with ``images``
  omitted, on the images of the stock encoder for ``key``, ``encode_path``
  (the walk), which also checks that no two images are equal.  It returns
  a dict from the name of each failing check to the first permutation that
  fails it (a tuple) and that permutation's image, the permutations with no
  occurrence whose image is a valid path, each with its image, and those
  with one occurrence.  The compiled one regenerates S_n in place and runs
  those checks with the C bodies of the primitives above; on the walk it
  writes each image into a buffer, so S_n and its images become Python
  objects only where the answer names them.  The pure one returns None
  either way: the audit then takes the images route after the walk, and
  after that ``audit._audit_loop``, which finds the same in Python, the
  oracle the compiled audit is tested against.

One hand-over rule holds for the ten per-input functions, ``count_pair``,
the seven primitives, ``bounded_census`` and ``audit_images``: the
compiled one hands an input it does not handle to the pure one of the same
name itself, in C, and returns what that returns or raises what it raises,
such as ``Rejected`` naming the fault of a path, height vector or inversion
table.  So the names here are the selected backend's own functions, with
no Python frame in between, and ``_fastcount.hand_overs()`` counts the
inputs handed over.  The compiled ``count_pair`` and ``heights_321``
handle a tuple or list holding a permutation of 1..n with n <= ``MAXN`` =
20; ``encode_path`` such a permutation and a key "312" or "321";
``is_permutation`` everything but a tuple or list of more than ``MAXN``
ints, each exactly an int (no bool), and answers True or False for it;
``scan_path`` a str holding a valid path; ``path_from_heights`` a tuple or
list of nonnegative ints that ends at 0; ``decode_psi312`` a str holding a
valid path with at most ``MAXN`` down-steps whose jumps are sandwiched and
whose heights are an inversion table (the i-th, from 1, in 0..n - i);
``predicted_triples`` a permutation as ``count_pair`` takes it, a key
"312" or "321", n heights in 0..2**30 and a tuple or list of jump runs,
each a tuple or list of five ints in 0..2**30 with 1 <= position < n,
m <= position and position + l <= n; ``bounded_census`` an int n_max in
0..34, a key "312" or "321", an int r_max in 0..14 and a limit that is
None or an int; ``audit_images`` an int n in 0..12, a key "312" or "321"
and a list or tuple of n! str or no images, unless the audit would compare
a prediction for an image's jump run outside the runs ``predicted_triples``
takes (1 <= position < n, position + l <= n), or, on the walk, an image is
not a valid path of n down-steps, each of height h followed by at least h
more (descents-available), or repeats an earlier one's heights; only a
faulty encoder gives these.  ``histogram_pair`` hands nothing over: both backends
sweep 0 <= n <= ``MAXN`` only (20! still fits the compiled 64-bit bins)
and raise ``ValueError`` for any other n and for a bad prefix.  With the
compiled kernel selected, the pure module is imported only when a first
input is handed over or ``perms.heights_312`` runs, and
``kernels.Rejected`` only then resolves.
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


def __getattr__(name: str):
    # ``except kernels.Rejected`` looks the class up only once one is raised
    if name == "Rejected":
        from permdyck import _purecount

        return _purecount.Rejected
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


histogram_pair = _impl.histogram_pair
count_pair = _impl.count_pair
heights_321 = _impl.heights_321
scan_path = _impl.scan_path
path_from_heights = _impl.path_from_heights
encode_path = _impl.encode_path
is_permutation = _impl.is_permutation
decode_psi312 = _impl.decode_psi312
predicted_triples = _impl.predicted_triples
bounded_census = _impl.bounded_census
audit_images = _impl.audit_images
