"""Record the output reference the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed and writes
``perfbench/reference.json``: per study row (keyed by shape, k, config,
bproj, iproj, bcons, icons) the cond2 string and degeneration count, the
sha256 of study.csv, and for ``element`` cond2, the per-edge
degeneration counts and the size and sha256 of lambda.csv.  Re-record only
when a change is meant to move these numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    if os.environ.get("POLYDIV_MESH_H"):
        print("POLYDIV_MESH_H is set; unset it", file=sys.stderr)
        return 2
    run.cap_blas_threads()
    run.import_program()
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        workdir = run.WORK / ("reference-" + name)
        shutil.rmtree(workdir, ignore_errors=True)
        wl = workloads.setup_workload(name, workloads.DEFAULT_SEED, workdir)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            reference[name] = workloads.reference_entry(wl, workloads.run_pass(wl))
        finally:
            os.chdir(cwd)
        print(f"{name}: recorded")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
