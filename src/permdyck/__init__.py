"""permdyck: length-3 patterns in permutations via Dyck paths with down-jumps.

Exact bijective encodings of permutations as generalized Dyck paths,
closed-form counting of permutations by pattern-occurrence number
(including the conjectured three- and four-occurrence generating
functions), and exhaustive brute-force verification of all of it.

``import permdyck`` loads none of its modules.  Each name of ``__all__``
and each submodule (``permdyck.census``, ...) is imported on first access
(PEP 562) and is the same object as in its home module, so a program pays
only for the modules it uses.

Two helpers that nearly every command needs are defined here, so that a
command that needs no permutation loads no ``perms``: ``catalan_number``
and ``_pattern_key``, the one pattern check of the encoders, the
generating functions and the census.  ``perms``, ``recorded`` and
``series`` re-export them as the same objects.
"""

import math
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "perms": (
        "PATTERN_312",
        "PATTERN_321",
        "HeightVector",
        "OccurrenceSet",
        "PatternError",
        "Permutation",
        "count_occurrences",
        "count_occurrences_fast",
        "find_occurrences",
        "heights_312",
        "heights_321",
        "left_to_right_maxima",
        "reflect_anti_diag",
        "reflect_main_diag",
        "rotate_quarter",
        "standardize",
        "tau_base",
    ),
    "paths": (
        "Jump",
        "PathError",
        "Validation",
        "count_paths",
        "down_step_heights",
        "is_psi_shaped",
        "jumps",
        "parse_path",
        "validate",
        "weight_exponent",
    ),
    "bijections": (
        "NotInImageError",
        "analyze_jumps",
        "check_jumpsum",
        "decode_312_avoiding",
        "decode_321_avoiding",
        "decode_psi312",
        "psi312",
        "psi321",
        "psi_avoiding",
        "psi_tau",
    ),
    "recorded": ("count_closed_form",),
    "series": (
        "Series",
        "catalan",
        "check_assemblies",
        "check_general_form",
        "gf",
    ),
    "census": (
        "CacheError",
        "DistributionTable",
        "ResourceGuardError",
        "bounded_distributions",
        "brute_distribution",
        "verify_conjectures",
        "verify_formulas",
    ),
    "audit": (
        "audit_bijections",
        "enumerate_class",
        "enumerate_tau_bases",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"kernels", "cli"}

__all__ = ["catalan_number", *_HOME]


def catalan_number(n: int) -> int:
    """The n-th Catalan number: |D_n|, and the number of avoiders in S_n
    of each length-3 pattern.

    >>> [catalan_number(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    return math.comb(2 * n, n) // (n + 1)


def _pattern_key(tau) -> str:
    """``"312"`` or ``"321"`` for the two patterns that the encoders, the
    generating functions and the census support; ``PatternError`` for any
    other pattern.  The str ``"312"`` or ``"321"`` is its own key; any
    other form is read by ``perms.as_pattern``, which loads ``perms``."""
    if type(tau) is str and tau in ("312", "321"):
        return tau
    from permdyck.perms import _PATTERNS, PatternError, as_pattern

    t = tuple(as_pattern(tau))
    key, symmetry = _PATTERNS.get(t, (None, None))
    if symmetry != "identity":
        raise PatternError(f"only (3,1,2) and (3,2,1) are supported; got {t!r}")
    return key


def _submodule(name: str):
    # __import__, not importlib.import_module: only the former is timed by
    # ``python -X importtime``
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
