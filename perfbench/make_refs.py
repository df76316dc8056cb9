#!/usr/bin/env python3
"""Write the reference outputs the benchmark compares every job against.

    python3 perfbench/make_refs.py

Run it on the commit whose outputs are the spec (the references in
``refs/`` were taken at commit 4ac30df); running it on a later commit would
make that commit's outputs the spec.  The audit reference
keeps only the audit lines, which do not depend on the seed.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    env = workloads.job_env()
    workloads.REFS.mkdir(exist_ok=True)
    for size in workloads.SIZES:
        for name in workloads.NAMES:
            work = workloads.build(name, size, workers=1)
            with tempfile.TemporaryDirectory() as tmp:
                for job in work.jobs:
                    cmd = workloads.job_command(job, Path(tmp) / "cache", seed=0, workers=1)
                    out = subprocess.run(cmd, cwd=workloads.ROOT, env=env, capture_output=True, text=True,
                                         check=True).stdout
                    if job.kind == "audit":
                        out = workloads.audit_lines(out)
                    workloads.ref_path(name, size, job).write_text(out)
                    print(f"wrote {workloads.ref_path(name, size, job).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
