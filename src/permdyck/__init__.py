"""permdyck: length-3 patterns in permutations via Dyck paths with down-jumps.

Exact bijective encodings of permutations as generalized Dyck paths,
closed-form counting of permutations by pattern-occurrence number
(including the conjectured three- and four-occurrence generating
functions), and exhaustive brute-force verification of all of it.
"""

from permdyck.perms import (
    PATTERN_312,
    PATTERN_321,
    HeightVector,
    OccurrenceSet,
    PatternError,
    Permutation,
    count_occurrences,
    count_occurrences_fast,
    find_occurrences,
    heights_312,
    heights_321,
    left_to_right_maxima,
    reflect_anti_diag,
    reflect_main_diag,
    rotate_quarter,
    standardize,
    tau_base,
)
from permdyck.paths import (
    Jump,
    PathError,
    Validation,
    count_paths,
    down_step_heights,
    is_psi_shaped,
    jumps,
    parse_path,
    validate,
    weight_exponent,
)
from permdyck.bijections import (
    NotInImageError,
    analyze_jumps,
    check_jumpsum,
    decode_312_avoiding,
    decode_321_avoiding,
    decode_psi312,
    psi312,
    psi321,
    psi_avoiding,
    psi_tau,
)
from permdyck.series import (
    Series,
    catalan,
    catalan_number,
    check_assemblies,
    check_general_form,
    count_closed_form,
    gf,
)
from permdyck.census import (
    CacheError,
    DistributionTable,
    ResourceGuardError,
    audit_bijections,
    bounded_distributions,
    brute_distribution,
    enumerate_class,
    enumerate_tau_bases,
    verify_conjectures,
    verify_formulas,
)

__version__ = "0.1.0"
