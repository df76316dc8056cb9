"""One benchmark job, run as its own process.

    python perfbench/job.py [--trace FILE --job-id ID] cli ARGS...
    python perfbench/job.py [--trace ...] audit --n 7 --sample 10000 --length 12 --seed S
    python perfbench/job.py sweep --n 9

``cli`` runs ``permdyck.cli.main(ARGS)``; untraced CLI jobs are started as
``python -m permdyck.cli`` instead, so this entry is only used with
``--trace``.  ``audit`` is the one-process audit workload: the exhaustive
bijection audits at length n for (3,1,2) and (3,2,1), then a round trip
over a seeded sample of random permutations.  ``sweep`` times one full
``kernels.histogram_pair`` sweep of S_n with whichever backend
``PERMDYCK_NO_EXT`` selects.

With ``--trace`` the tracer's wrappers are installed before the job starts
and its spans are appended once, as one JSON line, to FILE when it ends;
forked pool workers append theirs to FILE as they go.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path


def run_audit(n: int, sample: int, length: int, seed: int) -> int:
    from permdyck import bijections, census, paths, perms

    ok = True
    for tau in ("312", "321"):
        report = census.audit_bijections(n, tau)
        checks = ",".join(f"{c.name}:{'ok' if c.passed else 'FAIL'}" for c in report.checks)
        print(f"audit n={n} tau={tau} passed={report.passed} checks={checks}")
        ok = ok and report.passed

    rng = random.Random(seed)
    values = list(range(1, length + 1))
    mismatches = 0
    digest = hashlib.sha256()
    for _ in range(sample):
        rng.shuffle(values)
        rho = perms.Permutation(values)
        path312 = bijections.psi312(rho)
        if bijections.decode_psi312(path312) != rho:
            mismatches += 1
        path321 = bijections.psi321(rho)
        if tuple(paths.down_step_heights(path321)) != tuple(perms.heights_321(rho)):
            mismatches += 1
        digest.update(f"{path312}|{path321};".encode())
    print(
        f"roundtrip length={length} sample={sample} seed={seed} "
        f"mismatches={mismatches} paths_sha256={digest.hexdigest()}"
    )
    return 0 if ok and mismatches == 0 else 1


def run_sweep(n: int) -> int:
    from permdyck import kernels

    start = time.perf_counter()
    h312, h321 = kernels.histogram_pair(n, ())
    elapsed = time.perf_counter() - start
    print(json.dumps({"backend": kernels.BACKEND, "n": n, "seconds": elapsed, "h312": h312, "h321": h321}))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, help="append spans to this file, one JSON line per process")
    parser.add_argument("--job-id", default="job")
    sub = parser.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--n", type=int, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.job_id, args.trace)
        tracer.install()
    try:
        if args.kind == "cli":
            from permdyck import cli

            return cli.main(args.argv)
        if args.kind == "audit":
            return run_audit(args.n, args.sample, args.length, args.seed)
        return run_sweep(args.n)
    finally:
        if tracer is not None:
            sys.stdout.flush()
            from permdyck import kernels, series

            gf_cache = series._gf_cached.cache_info() if hasattr(series, "_gf_cached") else None
            tracer.dump({
                "backend": kernels.BACKEND,
                "gf_cache": None if gf_cache is None else {"hits": gf_cache.hits, "misses": gf_cache.misses},
            })


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
