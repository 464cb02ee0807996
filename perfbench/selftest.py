"""Self-test of the benchmark's workloads and output checks.

    python3 perfbench/selftest.py

1. Each workload's generator, shrunk to oracle size (at most 16 x 10), is
   mined through the CLI with the workload's flags (size filters scaled
   down) and must equal ``oracle_enumerate`` on the same input.
2. A job whose input set has no pinned SHA-256 must count as failed, and
   pass once its hash is pinned.
3. A corrupted output (the first bicluster dropped from every job) must
   count as failed, on two workloads: once on seed 0 and once on a seed
   past INPUT_SETS, which draws from a pinned input set too.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, child_env
from worker import check_outputs, mine_params
from workloads import INPUT_SETS, WORKLOADS

SEEDS = (0, 1, 2)


def oracle_agreement(src: Path) -> list[str]:
    sys.path.insert(0, str(src))
    os.environ["RINCLOSE_LOG"] = "quiet"
    import rinclose
    from rinclose import io, oracle_enumerate
    from rinclose.cli import main as cli_main

    errors = []
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        for wl in WORKLOADS.values():
            for seed in SEEDS:
                inst = wl.make(seed, 0, small=True)
                csv = Path(tmp) / "in.csv"
                io.save_matrix(inst.values, csv)
                for flags in wl.small_jobs:
                    out = Path(tmp) / "out.json"
                    rc = cli_main([*flags, "--input", str(csv), "--output", str(out)])
                    params = mine_params(rinclose, flags)
                    want = oracle_enumerate(inst.values, params).as_set()
                    got = io.load_solution(out).as_set() if rc == 0 else None
                    verdict = "ok" if got == want else "MISMATCH"
                    print(f"  {wl.name:<12} seed {seed} {params.bic_type:<10} "
                          f"{inst.values.shape[0]}x{inst.values.shape[1]}: "
                          f"{len(want)} biclusters, {verdict}")
                    if got != want:
                        errors.append(f"{wl.name} seed {seed} {params.bic_type}")
    return errors


def pin_required() -> list[str]:
    import rinclose

    wl = WORKLOADS["ctv-dense"]
    instances = [wl.make(0, 0, small=True)]
    jobs = [(0, list(wl.small_jobs[0]), None)]
    data = b"[]\n"  # a valid output, but not the complete one
    unpinned, _ = check_outputs(rinclose, instances, jobs, [data], None)
    pinned, _ = check_outputs(rinclose, instances, jobs, [data], [hashlib.sha256(data).hexdigest()])
    verdict = "ok" if (unpinned, pinned) == ([False], [True]) else "WRONG"
    print(f"  no pin: passed {unpinned}; pinned: passed {pinned}, {verdict}")
    return [] if verdict == "ok" else ["a job without a pinned hash did not fail"]


def corruption_counts(workload: str, seed: int) -> list[str]:
    errors = []
    for corrupt in (False, True):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "0"]
        if corrupt:
            cmd.append("--corrupt")
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=300)
        if proc.returncode != 0:
            errors.append(f"{workload} seed {seed}: run exited {proc.returncode}")
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        want = res["attempted"] if corrupt else 0
        verdict = "ok" if res["failed"] == want else "WRONG"
        print(f"  {workload:<12} seed {seed} corrupt={corrupt}: "
              f"failed {res['failed']} of {res['attempted']}, {verdict}")
        if res["failed"] != want:
            errors.append(f"{workload} seed {seed} corrupt={corrupt}")
    return errors


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    print("oracle agreement at oracle size:")
    errors = oracle_agreement(ROOT / "src")
    print("a job without a pinned hash counts as failed:")
    errors += pin_required()
    print("corrupted outputs count as failed:")
    errors += corruption_counts("ctv-dense", 0)
    errors += corruption_counts("cvc-tall", 1000 * INPUT_SETS + 1)
    for e in errors:
        print(f"FAILED: {e}")
    print("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
