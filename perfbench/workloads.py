"""The benchmark's workloads: job lists, sizes and exact output checks.

A job is one process a user would start.  ``cli`` jobs run
``python -m permdyck.cli ARGS``; the ``audit`` job runs ``job.py audit``.
Traced jobs of either kind run under ``job.py --trace``.
``{cache}`` in an argument is replaced by a fresh cache directory per pass
of the job list, ``{seed}`` by the workload seed and ``{workers}`` by
``min(2, nproc)``.

Only ``audit`` depends on the seed (it draws the round-trip sample); the
other three are exhaustive and take no random input.

Every job's stdout is compared with a reference taken at commit 4ac30df
(``refs/``, written by ``make_refs.py``).  Table outputs are also checked
against the known sequences of the acceptance suite, and the audit job must
report every check passed and no round-trip mismatch.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" or "audit"
    args: tuple[str, ...]
    perms: int = 0  # permutations swept, audited or round-tripped
    warm: bool = False  # served from the cache an earlier job of the list filled


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    jobs: tuple[Job, ...]
    workers: int = 1
    audited_perms: int = 0  # denominator of paths.scans_per_perm
    sweep_n: int = 0  # size of the backend comparison sweep; 0 = none


def _sweep_perms(n_max: int) -> int:
    """Permutations one cold sweep of every n <= n_max visits (both patterns
    come out of one sweep)."""
    return sum(math.factorial(n) for n in range(n_max + 1))


def build(name: str, size: str, workers: int) -> Workload:
    full = size == "full"
    if name == "verify":
        n = 9 if full else 6
        jobs = tuple(
            Job(kind_flag[2:], "cli", ("verify", kind_flag, "--n-max", str(n), "--workers", "1"), _sweep_perms(n))
            for kind_flag in ("--formulas", "--conjectures")
        )
        return Workload(name, False, jobs, sweep_n=9 if full else 6)
    if name == "table":
        rng = "0..9" if full else "0..6"
        cache = ("--cache-dir", "{cache}")
        jobs = (
            Job("cold-321", "cli", ("table", "--tau", "321", "--n", rng, "--workers", "{workers}") + cache,
                _sweep_perms(9 if full else 6)),
            Job("warm-312", "cli", ("table", "--tau", "312", "--n", rng, "--workers", "{workers}") + cache, warm=True),
            Job("warm-321-json", "cli", ("table", "--tau", "321", "--n", rng, "--format", "json") + cache, warm=True),
            Job("warm-312-csv", "cli", ("table", "--tau", "312", "--n", rng, "--format", "csv") + cache, warm=True),
        )
        return Workload(name, False, jobs, workers=workers)
    if name == "audit":
        n, sample, length = (7, 10000, 12) if full else (5, 200, 8)
        args = ("--n", str(n), "--sample", str(sample), "--length", str(length), "--seed", "{seed}")
        perms = 2 * math.factorial(n) + sample
        return Workload(name, True, (Job("audit", "audit", args, perms),), audited_perms=perms)
    if name == "series":
        order, gf_order, coeff_n = ("60", (), "40") if full else ("40", ("--order", "60"), "10")
        jobs = (
            Job("assemblies", "cli", ("verify", "--assemblies", "--order", order)),
            Job("general-form", "cli", ("verify", "--general-form") + gf_order),
            Job("coeffs", "cli", ("coeffs", "--tau", "321", "--r", "4", "--n-max", coeff_n)),
        )
        return Workload(name, False, jobs)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("verify", "table", "audit", "series")


def job_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the
    path and no ``PERMDYCK_*`` settings, so the default backend is used."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERMDYCK_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def job_command(job: Job, cache: Path, seed: int, workers: int, trace: Path | None = None) -> list[str]:
    """The process that runs ``job``; traced (spans to ``trace``) if given."""
    args = [a.format(cache=cache, seed=seed, workers=workers) for a in job.args]
    if trace is None and job.kind == "cli":
        return [sys.executable, "-m", "permdyck.cli", *args]
    cmd = [sys.executable, str(HERE / "job.py")]
    if trace is not None:
        cmd += ["--trace", str(trace), "--job-id", job.name]
    return cmd + [job.kind, *args]


def ref_path(workload: str, size: str, job: Job) -> Path:
    return REFS / f"{workload}-{size}-{job.name}.txt"


# -- exact checks --------------------------------------------------------------

# known sequences, as in tests/test_acceptance.py
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
REFERENCE_SEQUENCES = {
    ("312", 1): (0, 0, 0, 1, 5, 21, 84, 330, 1287, 5005, 19448),
    ("312", 2): (0, 0, 0, 0, 4, 23, 107, 464, 1950, 8063, 33033),
    ("321", 1): (0, 0, 0, 1, 6, 27, 110, 429, 1638, 6188, 23256),
    ("321", 2): (0, 0, 0, 0, 3, 24, 133, 635, 2807, 11864, 48756),
}


def _table_counts(text: str, fmt: str) -> dict[int, dict[int, int]]:
    """{n: {r: count}} from a ``table`` output in any format."""
    out: dict[int, dict[int, int]] = {}
    if fmt == "json":
        for t in json.loads(text)["tables"]:
            out[t["n"]] = {int(r): int(c) for r, c in t["counts"].items()}
    elif fmt == "csv":
        for line in text.splitlines()[1:]:
            n, r, c = (int(x) for x in line.split(","))
            out.setdefault(n, {})[r] = c
    else:
        for line in text.splitlines():
            head, _, rest = line.partition("  ")
            n = int(head.removeprefix("n="))
            out[n] = {int(r): int(c) for r, c in re.findall(r"r=(\d+):(\d+)", rest)}
    return out


def _check_known_sequences(job: Job, text: str) -> list[str]:
    tau = job.args[job.args.index("--tau") + 1]
    fmt = job.args[job.args.index("--format") + 1] if "--format" in job.args else "text"
    problems = []
    for n, counts in _table_counts(text, fmt).items():
        if n < len(CATALAN) and counts.get(0, 0) != CATALAN[n]:
            problems.append(f"n={n} r=0: {counts.get(0, 0)} != Catalan {CATALAN[n]}")
        for r in (1, 2):
            seq = REFERENCE_SEQUENCES[(tau, r)]
            if n < len(seq) and counts.get(r, 0) != seq[n]:
                problems.append(f"n={n} r={r}: {counts.get(r, 0)} != {seq[n]}")
        if sum(counts.values()) != math.factorial(n):
            problems.append(f"n={n}: counts sum to {sum(counts.values())}, not {n}!")
    return problems


def audit_lines(stdout: str) -> str:
    """The seed-independent part of the audit job's output."""
    return "".join(line + "\n" for line in stdout.splitlines() if line.startswith("audit "))


def check(workload: str, size: str, job: Job, returncode: int, stdout: str) -> list[str]:
    """Every way the job's output differs from the exact answer; empty if none."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    ref = ref_path(workload, size, job).read_text()
    if job.kind == "audit":
        audits = audit_lines(stdout)
        if audits != ref:
            problems.append("audit checks differ from the reference")
        if audits.count("passed=True") != 2 or len(audits.splitlines()) != 2:
            problems.append("an AuditReport did not pass")
        sample = job.args[job.args.index("--sample") + 1]
        trips = [l for l in stdout.splitlines() if l.startswith("roundtrip ")]
        if len(trips) != 1 or f" sample={sample} " not in trips[0] or " mismatches=0 " not in trips[0]:
            problems.append(f"round trip not exact: {trips}")
        return problems
    if stdout != ref:
        problems.append("stdout differs from the reference")
    if job.args[0] == "table":
        problems.extend(_check_known_sequences(job, stdout))
    return problems
