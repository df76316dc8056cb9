"""The package surface: lazy re-exports that are their home modules' objects."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permdyck

# what ``permdyck`` re-exports, by home module
EXPORTS = {
    "perms": """PATTERN_312 PATTERN_321 HeightVector OccurrenceSet PatternError
        Permutation catalan_number count_occurrences count_occurrences_fast find_occurrences
        heights_312 heights_321 left_to_right_maxima reflect_anti_diag
        reflect_main_diag rotate_quarter standardize tau_base""",
    "paths": """Jump PathError Validation count_paths down_step_heights
        is_psi_shaped jumps parse_path validate weight_exponent""",
    "bijections": """NotInImageError analyze_jumps check_jumpsum
        decode_312_avoiding decode_321_avoiding decode_psi312 psi312 psi321
        psi_avoiding psi_tau""",
    "recorded": "count_closed_form",
    "series": "Series catalan check_assemblies check_general_form gf",
    "census": """CacheError DistributionTable ResourceGuardError
        bounded_distributions brute_distribution verify_conjectures verify_formulas""",
    "audit": "audit_bijections enumerate_class enumerate_tau_bases",
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}
SUBMODULES = ("perms", "paths", "bijections", "recorded", "series", "census", "audit", "kernels", "cli")


def test_all_lists_the_exports():
    assert sorted(permdyck.__all__) == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_export_is_its_home_object(name):
    home = importlib.import_module(f"permdyck.{HOME[name]}")
    assert getattr(permdyck, name) is getattr(home, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from permdyck import *", namespace)
    for name in permdyck.__all__:
        assert namespace[name] is getattr(permdyck, name)


def test_dir_lists_exports_and_submodules():
    assert set(HOME) | set(SUBMODULES) <= set(dir(permdyck))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        permdyck.no_such_name


def test_names_and_submodules_resolve_after_plain_import():
    """In a fresh interpreter, where nothing has been loaded yet."""
    code = (
        "import sys, permdyck\n"
        "assert permdyck.census.audit_bijections is sys.modules['permdyck.census'].audit_bijections\n"
        f"for m in {SUBMODULES!r}:\n"
        "    assert getattr(permdyck, m) is sys.modules['permdyck.' + m]\n"
        "assert permdyck.gf is sys.modules['permdyck.series'].gf\n"
        "print('ok')\n"
    )
    src = str(Path(permdyck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_catalan_number_still_resolves_from_series():
    from permdyck import perms, recorded, series

    assert series.catalan_number is perms.catalan_number is permdyck.catalan_number
    assert recorded.catalan_number is permdyck.catalan_number


def test_pattern_key_and_catalan_number_are_defined_once():
    from permdyck import perms, recorded, series

    for module in (perms, recorded, series):
        assert module._pattern_key is permdyck._pattern_key
    assert permdyck._pattern_key.__module__ == permdyck.catalan_number.__module__ == "permdyck"


def test_audit_loads_no_series():
    """The audit reads the Catalan number from ``perms``: it loads neither
    ``permdyck.series`` nor ``fractions``, in a fresh interpreter."""
    code = (
        "import sys\n"
        "from permdyck import census\n"
        "assert census.audit_bijections(4, '312').passed\n"
        "print(sorted({'permdyck.series', 'fractions'} & set(sys.modules)))\n"
    )
    src = str(Path(permdyck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_text_verify_loads_no_json():
    """Only JSON output and the distribution cache need ``json``: neither
    building the parser nor a text-format ``verify`` loads it, in a fresh
    interpreter."""
    code = (
        "import sys\n"
        "from permdyck import cli\n"
        "cli.build_parser()\n"
        "assert 'json' not in sys.modules\n"
        "assert cli.main(['verify', '--formulas', '--n-max', '5']) == 0\n"
        "print('json' in sys.modules)\n"
    )
    src = str(Path(permdyck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("PASS\nFalse\n")


ROOT = Path(__file__).resolve().parents[1]
# workflow steps that set up or run the suite itself rather than a check
NOT_IN_README = {
    "Install test dependencies",
    "Check that the compiled kernel is selected",
    "Tier-1 tests, default backend",
    "Tier-1 tests, pure-Python backend",
    "Benchmark smoke test",
}


def _workflow_steps() -> list[tuple[str, str]]:
    """(name, command) of each step of the CI workflow that runs one."""
    steps, name = [], None
    for line in (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines():
        key, _, value = line.strip().removeprefix("- ").partition(": ")
        if key == "name":
            name = value.strip('"')
        elif key == "run":
            assert value[:1] not in "|>", f"step {name!r}: a multi-line command cannot be matched"
            steps.append((name, value))
    return steps


def _unquoted_run_faults(workflow: str) -> list[str]:
    """The ``run:`` values of ``workflow`` that YAML would misread: in an
    unquoted scalar, ``": "`` is a syntax error and ``" #"`` starts a comment."""
    faults = []
    for line in workflow.splitlines():
        key, _, value = line.strip().removeprefix("- ").partition(": ")
        if key == "run" and value[:1] not in "'\"" and (": " in value or " #" in value):
            faults.append(value)
    return faults


def test_workflow_run_values_are_plain_scalars():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert _unquoted_run_faults(workflow) == []


@pytest.mark.parametrize(
    "line,faulty",
    [
        ("run: python -c 'audit = lambda: [1]'", True),
        ("run: python -c 'f = lambda n, i=None:None'", False),
        ("      - run: echo 1 # a comment", True),
        ("run: echo '#1' a#b", False),
        ("run: \"python -c 'lambda: 1'\"", False),
        ("name: \"Bijection audit: the walk\"", False),
    ],
)
def test_unquoted_run_faults_examples(line, faulty):
    assert bool(_unquoted_run_faults(line)) is faulty


def test_readme_lists_every_ci_check():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Tests and the acceptance suite", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    steps = _workflow_steps()
    assert NOT_IN_README <= {name for name, _ in steps}
    missing = [name for name, command in steps if name not in NOT_IN_README and command not in block]
    assert not missing, f"CI steps whose command README's Tests block does not list: {missing}"
