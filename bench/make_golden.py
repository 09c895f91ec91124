#!/usr/bin/env python3
"""Write bench/golden/<workload>.json.gz: the outputs of every pool input.

    python3 bench/make_golden.py [WORKLOAD ...]

The golden files hold what the program printed or wrote for each input of a
workload's pool.  They were produced once, by the commit that introduced the
benchmark, and every run is checked against them; regenerate them only when
the output contract of the CLI changes on purpose.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
import tempfile

import run  # sets the BLAS threads and the import path like a benchmark run

run.import_program()
import workloads  # noqa: E402


def make(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"golden-{name}-", dir=run.OUT)
    items = {}
    try:
        workload.prepare(workdir)
        for item in range(workload.pool_size):
            texts = [workload.output(r) for r in workload.run(item, workdir)]
            if None in texts:
                raise SystemExit(f"{name}: the calls for pool item {item} failed")
            items[str(item)] = texts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(run.GOLDEN, exist_ok=True)
    path = os.path.join(run.GOLDEN, f"{name}.json.gz")
    payload = {"workload": name, "pool_seed": workloads.POOL_SEED, "items": items}
    # mtime=0 keeps the file bytes a function of its content
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        raw.write(json.dumps(payload, indent=0).encode("utf-8"))
    print(f"wrote {path}: {len(items)} inputs")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        make(name)
