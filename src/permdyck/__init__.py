"""permdyck: length-3 patterns in permutations via Dyck paths with down-jumps.

Exact bijective encodings of permutations as generalized Dyck paths,
closed-form counting of permutations by pattern-occurrence number
(including the conjectured three- and four-occurrence generating
functions), and exhaustive brute-force verification of all of it.

``import permdyck`` loads none of its modules.  Each name of ``__all__``
and each submodule (``permdyck.census``, ...) is imported on first access
(PEP 562) and is the same object as in its home module, so a program pays
only for the modules it uses.
"""

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
        "catalan_number",
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
        "audit_bijections",
        "bounded_distributions",
        "brute_distribution",
        "enumerate_class",
        "enumerate_tau_bases",
        "verify_conjectures",
        "verify_formulas",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"kernels", "cli"}

__all__ = list(_HOME)


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
