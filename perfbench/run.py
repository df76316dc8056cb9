#!/usr/bin/env python3
"""The permdyck benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run it from a source checkout (it needs ``src/permdyck``).  A run first
builds the optional extension with ``setup.py build_ext --inplace`` unless
the last build in the checkout was made from the same sources; it then
measures the workload's job list, one job at a
time, each job a fresh process started as a user would start it, for about
S seconds.  Every output is checked exactly, outside the timed region.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with
tracing off.  ``--trace 1`` alternates untraced and traced passes of the
same job list: the traced jobs run under ``job.py --trace``, whose wrappers
record a span for each call into the library, and the per-layer metrics
come from those spans.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Provenance,
per-pass figures and the metrics that could not be measured are written to
``.perfbench/results/`` and printed as ``#`` lines before it.

``--size tiny`` shrinks every workload for the harness's smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
JOB_TIMEOUT_S = 150
SETUP_SAMPLES = 11
IMPORTTIME_SAMPLES = 5

# The speed of a shared host drifts: on the 2-vCPU Xeon VM this benchmark was
# tuned on, one job took 1.5 s or 2.4 s depending on 10-20 s phases, its CPU
# time tracking its wall time.  A fixed pure-Python loop therefore measures
# the host's speed just before and just after every timed process, while
# nothing else of the benchmark runs (a loop beside the process can land on
# its CPU and would measure the process's own load), and its wall time is scaled
# to the speed at which the loop takes NOMINAL_CAL_S: the figures are seconds
# at that reference speed.  Raw wall times are kept beside them.  The host's
# speed also changes within a second, so a probe takes the mean of
# CAL_SAMPLES loops (0.2 s): on the tuning host, a 5 s job's scaled time
# varied by 3.9% (coefficient of variation) with a 0.3 s probe, 6.2% with
# the median of three loops and 8.1% unscaled.
CAL_LOOPS = 150_000
CAL_SAMPLES = 16
NOMINAL_CAL_S = 0.0125

import tracer  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402

SETUP_CODE = (
    "import time; t = time.perf_counter(); import permdyck.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)
PROBE_CODE = (
    "import json, multiprocessing, permdyck.kernels as k; "
    "print(json.dumps({'backend': k.BACKEND, 'start_method': multiprocessing.get_start_method()}))"
)

ENCODERS = ("psi312", "psi321", "psi_avoiding", "psi_avoiding_by_rotation")
DECODERS = ("decode_312_avoiding", "decode_321_avoiding", "decode_psi312")
PATH_SCANS = ("validate", "jumps", "down_steps", "down_step_heights", "is_psi_shaped")
IMPORTED = ("permdyck", "perms", "kernels", "_purecount", "_fastcount", "paths", "bijections",
            "series", "census", "cli")


def calibrate() -> float:
    """Seconds the calibration loop takes now: the mean of CAL_SAMPLES."""
    start = time.perf_counter()
    acc = 0
    for _ in range(CAL_SAMPLES):
        for i in range(CAL_LOOPS):
            acc += (i * i) % 7
    return (time.perf_counter() - start) / CAL_SAMPLES


class Bracket:
    """Scales the wall times of processes run one after another by the
    host's speed around each: ``scale()`` after a process has ended gives
    the factor for it, from the loop's time before it (the previous
    process's after) and after it."""

    def __init__(self):
        self.before = calibrate()

    def scale(self) -> float:
        after = calibrate()
        factor = 2 * NOMINAL_CAL_S / (self.before + after)
        self.before = after
        return factor


class Run:
    """One benchmark run: its workload, settings and every job it started."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.work = workloads.build(args.workload, args.size, self.workers)
        self.dir = WORK / "run" / f"{args.workload}-trace{args.trace}"
        self.attempted = 0
        self.failures: list[dict] = []
        self.unmeasured: dict[str, str] = {}
        self.job_backends: set[str] = set()  # kernels.BACKEND as traced jobs report it
        self.env = workloads.job_env()

    # -- processes -----------------------------------------------------------

    def start(self, cmd: list[str], out: Path, env: dict | None = None) -> tuple[float, int, float]:
        """Run one process to completion: (wall s, exit code, peak RSS MiB).

        ``wait4`` reports the largest resident set of the process and of
        every descendant it reaped, so pool workers are included.
        """
        with open(out, "wb") as fh_out, open(out.with_suffix(".err"), "wb") as fh_err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env or self.env, stdout=fh_out, stderr=fh_err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024

    def output(self, cmd: list[str], env: dict | None = None) -> str:
        proc = subprocess.run(cmd, cwd=ROOT, env=env or self.env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd!r} failed: {proc.stderr.strip()[-500:]}")
        return proc.stdout

    # -- one pass of the job list --------------------------------------------

    def run_pass(self, index: int, traced: bool, bracket: Bracket) -> dict:
        pdir = self.dir / f"pass{index}-{'traced' if traced else 'plain'}"
        pdir.mkdir(parents=True)
        cache = pdir / "cache"
        jobs = []
        for job in self.work.jobs:
            out = pdir / f"{job.name}.out"
            spans = pdir / f"{job.name}.spans" if traced else None
            cmd = workloads.job_command(job, cache, self.args.seed, self.workers, spans)
            wall, code, rss = self.start(cmd, out)
            scale = bracket.scale()
            jobs.append({"job": job.name, "wall_s": wall * scale, "raw_wall_s": wall, "scale": scale,
                         "exit": code, "rss_mib": rss})
        for job, rec in zip(self.work.jobs, jobs):  # checks, outside the timed region
            stdout = (pdir / f"{job.name}.out").read_text()
            rec["problems"] = workloads.check(self.work.name, self.args.size, job, rec["exit"], stdout)
            self.attempted += 1
            if rec["problems"]:
                self.failures.append({"pass": pdir.name, **rec})
        return {
            "dir": pdir,
            "traced": traced,
            "wall_s": sum(r["wall_s"] for r in jobs),
            "raw_wall_s": sum(r["raw_wall_s"] for r in jobs),
            "warm_s": sum((r["wall_s"] for job, r in zip(self.work.jobs, jobs) if job.warm), 0.0),
            "peak_rss_mib": max(r["rss_mib"] for r in jobs),
            "jobs": jobs,
        }

    def measure(self, traced_too: bool) -> tuple[list[dict], list[dict]]:
        """Passes until the run's seconds are spent; at least one of each kind."""
        plain, traced = [], []
        begin = time.perf_counter()
        bracket = Bracket()
        while True:
            plain.append(self.run_pass(len(plain) + len(traced), False, bracket))
            if traced_too:
                traced.append(self.run_pass(len(plain) + len(traced), True, bracket))
            spent = time.perf_counter() - begin
            if spent + spent / len(plain) > self.args.seconds:
                return plain, traced

    # -- setup, imports and backends -------------------------------------------

    def setup_seconds(self) -> list[float]:
        """Fresh processes timing ``import permdyck.cli`` + ``build_parser()``."""
        cmd = [sys.executable, "-c", SETUP_CODE]
        self.output(cmd)  # warm-up, and writes the bytecode caches unless Python may not
        samples = []
        bracket = Bracket()
        for _ in range(SETUP_SAMPLES):
            seconds = float(self.output(cmd))
            samples.append(seconds * bracket.scale())
        return samples

    def import_times(self) -> dict[str, float]:
        """Self import time per permdyck module, from ``python -X importtime``."""
        samples: dict[str, list[float]] = {}
        for _ in range(IMPORTTIME_SAMPLES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import permdyck.cli"],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=JOB_TIMEOUT_S)
            selfs, cumulative = {}, {}
            for line in proc.stderr.splitlines():
                parts = line.removeprefix("import time:").split("|")
                if len(parts) != 3 or not parts[0].strip().isdigit():
                    continue
                mod = parts[2].strip()
                selfs[mod] = int(parts[0]) / 1e6
                cumulative[mod] = int(parts[1]) / 1e6
            total = cumulative.get("permdyck", 0.0) + cumulative.get("permdyck.cli", 0.0)
            ours = {m: selfs.get("permdyck" if m == "permdyck" else f"permdyck.{m}") for m in IMPORTED}
            for m, v in ours.items():
                samples.setdefault(m, []).append(v if v is not None else math.nan)
            samples.setdefault("total", []).append(total)
            samples.setdefault("other", []).append(total - sum(v for v in ours.values() if v))
        out = {}
        for m, values in samples.items():
            name = f"cli.import.{m}_s"
            if any(math.isnan(v) for v in values):
                out[name] = 0.0
                self.unmeasured[name] = f"module permdyck.{m} is not imported by permdyck.cli"
            else:
                out[name] = statistics.median(values)
        return out

    def probe_backends(self) -> dict:
        default = json.loads(self.output([sys.executable, "-c", PROBE_CODE]))
        pure = json.loads(self.output([sys.executable, "-c", PROBE_CODE], {**self.env, "PERMDYCK_NO_EXT": "1"}))
        return {"default": default["backend"], "no_ext": pure["backend"],
                "start_method": default["start_method"]}

    def backend_sweeps(self, backends: dict) -> dict[str, float]:
        """Fold of the old two-backend kernel comparison: one fresh-process
        sweep of S_n per importable backend, results required identical."""
        out = {"kernels.backend.python.perms_per_s": 0.0, "kernels.backend.compiled.perms_per_s": 0.0}
        n = self.work.sweep_n
        if not n:
            for name in out:
                self.unmeasured[name] = "backend sweeps run on the verify workload only"
            return out
        envs = {"python": {**self.env, "PERMDYCK_NO_EXT": "1"}}
        if backends["default"] != "python":
            envs["compiled"] = self.env
        else:
            self.unmeasured["kernels.backend.compiled.perms_per_s"] = "no compiled kernel is importable"
        results = {}
        for label, env in envs.items():
            out_file = self.dir / f"sweep-{label}.out"
            _, code, _ = self.start([sys.executable, str(HERE / "job.py"), "sweep", "--n", str(n)], out_file, env)
            self.attempted += 1
            doc = json.loads(out_file.read_text()) if code == 0 else None
            if doc is None:
                self.failures.append({"job": f"sweep-{label}", "exit": code, "problems": ["sweep failed"]})
                continue
            results[label] = (doc["h312"], doc["h321"])
            out[f"kernels.backend.{label}.perms_per_s"] = math.factorial(n) / doc["seconds"]
        if len(set(map(json.dumps, results.values()))) > 1:
            self.failures.append({"job": "sweep", "problems": ["backends disagree on the S_n histograms"]})
        return out

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, plain: list[dict]) -> dict[str, float]:
        wall = statistics.median(p["wall_s"] for p in plain)
        perms = sum(job.perms for job in self.work.jobs)
        has_warm = any(job.warm for job in self.work.jobs)
        if not perms:
            self.unmeasured["perms_per_s"] = f"the {self.work.name} workload handles no permutations"
        if not has_warm:
            self.unmeasured["warm_s"] = f"the {self.work.name} workload has no cache-served jobs"
        return {
            "wall_s": wall,
            "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "perms_per_s": perms / wall,
            "warm_s": statistics.median(p["warm_s"] for p in plain),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
            "fail_ratio": len(self.failures) / self.attempted,
        }

    def layers(self, traced_pass: dict) -> dict[str, float]:
        """Per-layer metrics of one traced pass, from its jobs' spans."""
        stats: dict[str, dict] = {}
        kids: dict[tuple[str, str], dict] = {}
        worker: dict[str, dict] = {}
        constructions = gf_hits = gf_misses = 0
        for rec in traced_pass["jobs"]:
            path = traced_pass["dir"] / f"{rec['job']}.spans"
            lines = tracer.read(path) if path.is_file() else []
            if not any(not line["worker"] for line in lines):
                continue  # the job died before writing its spans; its failure is already counted
            for line in lines:
                if line["worker"]:
                    _merge(worker, {}, *tracer.aggregate(line["spans"]))
                    continue
                _merge(stats, kids, *tracer.aggregate(line["spans"]))
                self.job_backends.add(line["backend"])
                constructions += line["constructions"]
                if line["gf_cache"]:
                    gf_hits += line["gf_cache"]["hits"]
                    gf_misses += line["gf_cache"]["misses"]

        def get(table, name, key):
            return table.get(name, {}).get(key, 0)

        def both(name, key):
            return get(stats, name, key) + get(worker, name, key)

        m: dict[str, float] = {}
        # kernels, wherever they ran (job process or pool worker)
        for fn in ("histogram_pair", "count_pair"):
            m[f"kernels.{fn}.calls"] = both(f"kernels.{fn}", "calls")
            m[f"kernels.{fn}.self_s"] = both(f"kernels.{fn}", "self_s")
        m["kernels.perms"] = both("kernels.histogram_pair", "work")
        m["kernels.perms_per_s"] = _ratio(m["kernels.perms"], m["kernels.histogram_pair.self_s"])

        # census: cache and pool
        m["census.brute_distribution.calls"] = get(stats, "census.brute_distribution", "calls")
        m["census.brute_distribution.self_s"] = get(stats, "census.brute_distribution", "self_s")
        misses = sum(get(kids, ("census.brute_distribution", c), "calls")
                     for c in ("census._sweep", "kernels.histogram_pair"))
        m["census.cache.misses"] = misses
        m["census.cache.hits"] = m["census.brute_distribution.calls"] - misses
        m["census.cache.read_s"] = get(stats, "census._cache_load", "self_s")
        m["census.cache.write_s"] = get(stats, "census._cache_store", "self_s")
        serial = kids.get(("census._sweep", "kernels.histogram_pair"), {"calls": 0, "total_s": 0.0})
        pool_wall = get(stats, "census._sweep", "total_s") - serial["total_s"]
        pool_sweeps = get(stats, "census._sweep", "calls") - serial["calls"]
        m["census.pool.shards"] = serial["calls"] + get(worker, "census._shard_histograms", "calls")
        m["census.pool.busy_s"] = get(worker, "kernels.histogram_pair", "self_s")
        m["census.pool.efficiency"] = _ratio(m["census.pool.busy_s"], self.workers * pool_wall)
        m["census.audit_bijections.self_s"] = get(stats, "census.audit_bijections", "self_s")

        # perms
        m["perms.Permutation.constructions"] = constructions
        m["perms.count_occurrences_fast.calls"] = get(stats, "perms.count_occurrences_fast", "calls")
        m["perms.count_occurrences_fast.self_s"] = get(stats, "perms.count_occurrences_fast", "self_s")
        m["perms.heights.self_s"] = sum(get(stats, f"perms.heights_{t}", "self_s") for t in ("312", "321"))
        m["perms.find_occurrences.self_s"] = get(stats, "perms.find_occurrences", "self_s")

        # paths
        m["paths.validate.calls"] = get(stats, "paths.validate", "calls")
        m["paths.validate.self_s"] = get(stats, "paths.validate", "self_s")
        scans = sum(get(stats, f"paths.{fn}", "calls") for fn in PATH_SCANS)
        m["paths.scans_per_perm"] = _ratio(scans, self.work.audited_perms)

        # bijections
        for kind, fns in (("encode", ENCODERS), ("decode", DECODERS)):
            m[f"bijections.{kind}.calls"] = sum(get(stats, f"bijections.{fn}", "calls") for fn in fns)
            m[f"bijections.{kind}.self_s"] = sum(get(stats, f"bijections.{fn}", "self_s") for fn in fns)
        encode_total = sum(get(stats, f"bijections.{fn}", "total_s") for fn in ENCODERS)
        m["bijections.encode_per_s"] = _ratio(m["bijections.encode.calls"], encode_total)
        m["bijections.predicted_occurrences.self_s"] = get(stats, "bijections.predicted_occurrences", "self_s")

        # series
        for op in ("mul", "div", "pow", "sqrt"):
            m[f"series.{op}.calls"] = get(stats, f"series.{op}", "calls")
            m[f"series.{op}.self_s"] = get(stats, f"series.{op}", "self_s")
        m["series.coef_ops"] = sum(get(stats, f"series.{op}", "work") for op in ("mul", "div", "sqrt"))
        m["series.gf.calls"] = get(stats, "series.gf", "calls")
        m["series.gf.hit_ratio"] = _ratio(gf_hits, gf_hits + gf_misses)
        m["series.check_general_form.self_s"] = get(stats, "series.check_general_form", "self_s")
        m["series.check_assemblies.self_s"] = get(stats, "series.check_assemblies", "self_s")

        # cli
        m["cli.main.self_s"] = get(stats, "cli.main", "self_s")

        unmeasured = {
            "kernels.perms_per_s": not m["kernels.histogram_pair.self_s"],
            "census.pool.efficiency": pool_sweeps == 0,
            "census.pool.busy_s": pool_sweeps == 0,
            "paths.scans_per_perm": not self.work.audited_perms,
            "bijections.encode_per_s": not encode_total,
            "series.gf.hit_ratio": not (gf_hits + gf_misses),
        }
        for name, missing in unmeasured.items():
            if missing:
                self.unmeasured[name] = "the workload does not exercise it"
        if pool_sweeps and not worker:
            for name in ("census.pool.busy_s", "census.pool.efficiency", "census.pool.shards"):
                self.unmeasured[name] = "pool workers left no spans (not forked from the traced job)"
        return m


def _merge(stats: dict, kids: dict, new_stats: dict, new_kids: dict) -> None:
    for table, new in ((stats, new_stats), (kids, new_kids)):
        for key, entry in new.items():
            into = table.setdefault(key, dict.fromkeys(entry, 0))
            for k, v in entry.items():
                into[k] += v


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- provenance and build ------------------------------------------------------


def _git(*args: str) -> str | None:
    """Git's answer about this checkout; None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _sha256(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _code_digest() -> str:
    """Digest of everything the build and the program are made from: the
    build files and the sources under ``src``, without the C file Cython
    generates from a ``.pyx`` beside it."""
    paths = [p for p in (ROOT / "setup.py", ROOT / "pyproject.toml") if p.is_file()]
    for path in (ROOT / "src").rglob("*"):
        generated = path.suffix == ".c" and path.with_suffix(".pyx").is_file()
        if path.is_file() and path.suffix in (".py", ".pyx", ".pxd", ".c", ".h") and not generated:
            paths.append(path)
    return _sha256(paths)


def _extensions() -> list[Path]:
    """Compiled extension modules built in place under ``src``."""
    return [p for p in (ROOT / "src").rglob("*") if p.suffix in (".so", ".pyd") and p.is_file()]


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def build(env: dict) -> dict:
    """Build the optional compiled kernel in place from the current sources.

    The build is skipped only if the last one in this checkout was made
    from sources with the same digest and left exactly the extension files
    that are there now.  Otherwise every in-place extension is deleted
    first, so none built from other sources can be measured.
    """
    marker = WORK / "build.json"
    code = _code_digest()
    if marker.is_file():
        info = json.loads(marker.read_text())
        if info.get("code_sha256") == code and info.get("extensions_sha256") == _sha256(_extensions()):
            return {**info, "ran": False}
    for path in _extensions():
        path.unlink()
    info = {"code_sha256": code}
    if (ROOT / "setup.py").is_file():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=840)
        info.update({"exit": proc.returncode, "seconds": time.perf_counter() - start,
                     "log_tail": (proc.stdout + proc.stderr)[-2000:]})
    built = _extensions()
    info["extensions"] = [str(p.relative_to(ROOT)) for p in sorted(built)]
    info["extensions_sha256"] = _sha256(built)
    WORK.mkdir(exist_ok=True)
    marker.write_text(json.dumps(info))
    return {**info, "ran": True}


def provenance(run: Run, build: dict, backends: dict) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": run.work.name,
        "size": run.args.size,
        "seed": run.args.seed,
        "seed_used": run.work.seeded,
        "seconds": run.args.seconds,
        "trace": run.args.trace,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "code_sha256": build["code_sha256"],
        "build": {k: v for k, v in build.items() if k != "log_tail"},
        "backend": backends["default"],
        "backends": backends,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": run.workers,
        "cpu_model": _cpu_model(),
        "start_method": backends["start_method"],
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "loadavg_before": os.getloadavg(),
    }


# -- main ---------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="permdyck benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "permdyck" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a permdyck source checkout (no src/permdyck)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    build_info = build(run.env)
    backends = run.probe_backends()
    prov = provenance(run, build_info, backends)

    values: dict[str, float] = {}
    if args.trace:
        values.update(run.import_times())
        values.update(run.backend_sweeps(backends))
        plain, traced = run.measure(traced_too=True)
        per_pass = [run.layers(p) for p in traced]
        values.update({k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]})
        # each traced pass runs right after its untraced twin, so pair them
        values["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        values.update(run.end_to_end(plain))
    else:
        setup = run.setup_seconds()
        plain, traced = run.measure(traced_too=False)
        values.update(run.end_to_end(plain))
        values["setup_s"] = statistics.median(setup)
    prov["loadavg_after"] = os.getloadavg()
    if run.job_backends:
        prov["backend_in_jobs"] = sorted(run.job_backends)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the benchmark computed no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    unmeasured = {k: v for k, v in run.unmeasured.items() if k in metrics}
    details = {
        "provenance": prov,
        "metrics": metrics,
        "all_values": values,
        "unmeasured": unmeasured,
        "passes": [{k: v for k, v in p.items() if k != "dir"} for p in plain + traced],
        "failures": run.failures,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{args.workload}_trace{args.trace}.json").write_text(json.dumps(details, indent=1))

    print("# provenance " + json.dumps(prov))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["raw_wall_s"] = "s (unscaled)"
    for name, value in values.items():
        note = f"  (unmeasured: {run.unmeasured[name]})" if name in run.unmeasured else ""
        print(f"# {args.workload} {name} = {value:.6g} {units.get(name, '')}{note}")
    for failure in run.failures:
        print("# FAILED " + json.dumps(failure))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
