#!/usr/bin/env python3
"""Write the reference outputs that perfbench/run.py checks against.

Runs every operation of every workload once and stores the CSV of each sweep
and the stdout of `predict` in perfbench/reference/. The committed files were
made from the source of the seed commit; regenerate them only for a change
whose new outputs are intended and explained.

    python3 perfbench/reference.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import run


def main() -> int:
    run.import_program()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=run.OUT_DIR)
    try:
        for workload in run.WORKLOADS:
            for op in run.load_operations(workload):
                if op.reference is None:
                    continue
                done = run.run_operation(op, seed=0, scratch=scratch)
                if done.output is None:
                    sys.exit(f"error: {op.name} wrote no output (exit code {done.exit_code})")
                op.reference.write_text(done.output)
                print(f"{op.reference.relative_to(run.ROOT)}: exit code {done.exit_code}")
    finally:
        shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
