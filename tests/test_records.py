"""The result records of every module: their repr, immutability, defaults
and derived values, pinned."""

import hashlib
from fractions import Fraction

import pytest

from permdyck import bijections, census, paths, perms, series
from permdyck.census import (
    AuditReport,
    CheckResult,
    DistributionTable,
    VerificationReport,
    VerificationRow,
)
from permdyck.paths import Validation
from permdyck.perms import OccurrenceSet, Permutation
from permdyck.series import AssemblyCheck, AssemblyReport, GeneralFormReport

RHO = Permutation((4, 3, 5, 1, 2))
MAX_REPR = "MaximumBeforeJump(position=1, value=4, height=3, steps_between=0)"
CONTEXT_REPR = (
    "JumpContext(jump=Jump(position=1, depth=2), m=1, l=1, pre_run=(1,), post_run=(2,), "
    f"causing=(4, 5), preceding_max=1, maxima_before=({MAX_REPR},), threshold_index=1)"
)
PREDICTION_REPR = (
    "OccurrencePrediction(base=2, before_downs=0, maxima_sum=2, total=2, "
    "triples=((1, 2, 4), (1, 2, 5)))"
)


def _analysis():
    return bijections.analyze_jumps(RHO, "321")[0]


# (record type, a record of it, one of its fields, its repr)
CASES = [
    (
        "OccurrenceSet",
        lambda: perms.find_occurrences((1, 5, 2, 4, 3), "312"),
        "positions",
        "OccurrenceSet(pattern=Permutation(3, 1, 2), positions=((2, 3, 4), (2, 3, 5)))",
    ),
    (
        "Validation",
        lambda: paths.validate("UDDU"),
        "kind",
        "Validation(kind='invalid', reason='path goes below the horizontal axis', prefix=3)",
    ),
    (
        "DownStep",
        lambda: paths.down_steps("UUUUDDUDJDUD")[2],
        "height",
        "DownStep(index=3, height=2, peak=3)",
    ),
    ("Jump", lambda: paths.jumps("UUUUDDUDJDUD")[0], "depth", "Jump(position=3, depth=1)"),
    ("MaximumBeforeJump", lambda: _analysis().context.maxima_before[0], "value", MAX_REPR),
    ("JumpContext", lambda: _analysis().context, "causing", CONTEXT_REPR),
    ("OccurrencePrediction", lambda: _analysis().prediction, "total", PREDICTION_REPR),
    (
        "JumpAnalysis",
        _analysis,
        "prediction",
        f"JumpAnalysis(context={CONTEXT_REPR}, prediction={PREDICTION_REPR})",
    ),
    (
        "DistributionTable",
        lambda: census.brute_distribution(4, "321"),
        "counts",
        "DistributionTable(n=4, pattern='321', counts=((0, 14), (1, 6), (2, 3), (4, 1)))",
    ),
    (
        "TauBaseCatalog",
        lambda: census.enumerate_tau_bases("312", 1),
        "bases",
        "TauBaseCatalog(pattern='312', r=1, bases=(Permutation(3, 1, 2),))",
    ),
    (
        "CheckResult",
        lambda: census.audit_bijections(3, "321").checks[0],
        "passed",
        "CheckResult(name='injective', passed=True, counterexample=None)",
    ),
    (
        "AuditReport",
        lambda: AuditReport(2, "312", (CheckResult("injective", False, "a and b"),)),
        "checks",
        "AuditReport(n=2, pattern='312', checks=(CheckResult(name='injective', passed=False, "
        "counterexample='a and b'),))",
    ),
    (
        "VerificationRow",
        lambda: census.verify_formulas(4).rows[-1],
        "brute",
        "VerificationRow(pattern='321', r=2, n=4, brute=3, predicted=3)",
    ),
    (
        "VerificationReport",
        lambda: VerificationReport("conjectures", (VerificationRow("321", 3, 6, 7, 8),)),
        "rows",
        "VerificationReport(kind='conjectures', rows=(VerificationRow(pattern='321', r=3, n=6, "
        "brute=7, predicted=8),))",
    ),
    (
        "AssemblyCheck",
        lambda: series.check_assemblies(12).checks[0],
        "name",
        "AssemblyCheck(name='catalan.functional-equation', passed=True, first_mismatch=None)",
    ),
    (
        "AssemblyReport",
        lambda: AssemblyReport(12, (AssemblyCheck("x", False, 7),)),
        "order",
        "AssemblyReport(order=12, checks=(AssemblyCheck(name='x', passed=False, first_mismatch=7),))",
    ),
    (
        "GeneralFormReport",
        lambda: series.check_general_form("312", 0, 40),
        "p_coeffs",
        "GeneralFormReport(pattern='312', r=0, passed=True, denominator='2 x^1', "
        "p_coeffs=(Fraction(1, 1),), q_coeffs=(Fraction(-1, 1),), conjectural=False, detail='')",
    ),
]


@pytest.mark.parametrize("make, text", [(c[1], c[3]) for c in CASES], ids=[c[0] for c in CASES])
def test_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, field", [(c[1], c[2]) for c in CASES], ids=[c[0] for c in CASES])
def test_immutable_and_hashable(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert record == make() and hash(record) == hash(make())


def test_every_record_type_is_covered():
    types = {type(make()) for _, make, _, _ in CASES}
    assert len(types) == 17 and {t.__name__ for t in types} == {c[0] for c in CASES}


def test_defaults():
    assert CheckResult("x", True).counterexample is None
    assert AssemblyCheck("x", True).first_mismatch is None
    assert Validation("dyck").reason is None and Validation("dyck").prefix is None
    report = GeneralFormReport("312", 0, True, "2 x^1", (Fraction(1),), (Fraction(-1),), False)
    assert report.detail == ""
    assert (report.p_degree, report.q_degree) == (0, 0)


def test_count_and_total_keep_their_meaning():
    table = DistributionTable(4, "321", ((0, 14), (1, 6), (2, 3), (4, 1)))
    # count(r) is the number of permutations with r occurrences, not tuple.count
    assert [table.count(r) for r in range(6)] == [14, 6, 3, 0, 1, 0]
    assert table.total == 24 and table.as_dict() == {0: 14, 1: 6, 2: 3, 4: 1}
    occ = OccurrenceSet(Permutation((3, 1, 2)), ((2, 3, 4), (2, 3, 5)))
    assert occ.count == 2  # a property, as before
    assert OccurrenceSet(Permutation((3, 1, 2)), ()).count == 0


def test_passed_properties():
    ok, bad = CheckResult("a", True), CheckResult("b", False, "why")
    assert AuditReport(3, "312", (ok, ok)).passed
    assert not AuditReport(3, "312", (ok, bad)).passed
    assert AuditReport(0, "321", ()).passed
    assert str(ok) == "a: ok" and str(bad) == "b: FAIL (why)"
    good, wrong = VerificationRow("312", 1, 5, 21, 21), VerificationRow("312", 1, 6, 84, 85)
    assert good.passed and not wrong.passed
    report = VerificationReport("formulas", (good, wrong, good))
    assert not report.passed and report.first_failure() is wrong
    assert VerificationReport("formulas", (good,)).first_failure() is None
    assert AssemblyReport(4, (AssemblyCheck("x", True),)).passed
    assert not AssemblyReport(4, (AssemblyCheck("x", True), AssemblyCheck("y", False, 3))).passed
    assert str(AssemblyCheck("y", False, 3)) == "y: MISMATCH at t^3"
    assert paths.validate("UUDD").ok and not paths.validate("UDDU").ok


def test_records_are_tuples():
    # what library callers see: a record is a tuple of its fields
    table = DistributionTable(1, "312", ((0, 1),))
    assert table == (1, "312", ((0, 1),))
    n, pattern, counts = table
    assert (n, pattern, counts) == (1, "312", ((0, 1),)) and len(table) == 3
    assert paths.Jump(3, 1) == paths.DownStep(3, 1, None)[:2]
    assert sorted([paths.Jump(2, 1), paths.Jump(1, 2)]) == [(1, 2), (2, 1)]


def test_audit_reprs_unchanged():
    # sha256 of every AuditReport's repr for n <= 7, as the records printed
    # when they were frozen dataclasses
    text = "\n".join(
        repr(census.audit_bijections(n, tau)) for n in range(8) for tau in ("312", "321")
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "c7cfa186b327072129f37fafd9045d07289ce6f30782d1a01a89cac447218e2a"
