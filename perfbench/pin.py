"""Pin the SHA-256 of every job's output on every input set.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs one pass of each workload on every input set (0 to INPUT_SETS - 1)
that has no pin yet, checks the outputs as a benchmark run does, and adds
their hashes to ``expected.json``.  The output contract (byte-identical
output for the same input) never changes, so a pinned hash is never
replaced; benchmark runs check against it.  Exits 1 if an output fails a
check.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import refkernel
from run import ROOT
from worker import EXPECTED, Runner, check_outputs, job_list, setup
from workloads import INPUT_SETS, WORKLOADS


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    os.environ["RINCLOSE_LOG"] = "quiet"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pinned = json.loads(EXPECTED.read_text())
    status = 0
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    kernel = refkernel.Reference()
    for name in names:
        wl = WORKLOADS[name]
        for seed in range(INPUT_SETS):
            if str(seed) in pinned.setdefault(name, {}):
                continue
            work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
            try:
                rinclose, instances, _ = setup(wl, seed, src, work, kernel, sample=False)
                jobs = job_list(wl, work)
                runner = Runner(rinclose.cli.main, jobs, corrupt=False, kernel=kernel)
                runner.run_pass()
                hashes = [hashlib.sha256(d).hexdigest() if d else None for d in runner.reference]
                ok, notes = check_outputs(rinclose, instances, jobs, runner.reference, hashes)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not all(ok):
                print(f"{name} seed {seed}: NOT pinned: {'; '.join(notes)}")
                status = 1
                continue
            pinned[name][str(seed)] = hashes
            print(f"{name} seed {seed}: {len(hashes)} outputs pinned", flush=True)
            EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
