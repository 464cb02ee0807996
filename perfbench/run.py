"""rinclose benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/rinclose`` next to ``perfbench``).
The workload's inputs are generated from the seed; ``rinclose mine`` runs
in-process, single-threaded, in a child process that runs nothing else.
With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are measured
untraced; with ``--trace 1`` the per-layer metrics come from spans recorded
around the calls into each module.  Every output is checked.  Human-readable
lines come first; the last line of standard output is the JSON result.  A
full record of the run is written to ``.bench_work/results/``.

Exit codes: 0 result printed (``correct`` may still be false), 1 the run
failed, 2 the tree has no rinclose sources or no ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 170


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` if it is a git checkout (never searches parent directories)."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(RINCLOSE_LOG="quiet", PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, src: Path,
               corrupt: bool = False) -> dict | None:
    """Run the measuring child; its parsed JSON, or None if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", str(src)]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded {CHILD_TIMEOUT_S} s and was killed", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"benchmark child failed with exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=_nonneg_int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring window; a pass longer than it still runs once")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree to measure (default: src/ of this checkout)")
    ap.add_argument("--corrupt", action="store_true",
                    help="drop one bicluster from every output before the checks "
                         "(self-test of the checks)")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "rinclose" / "__init__.py").is_file():
        print(f"no rinclose sources under {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    res = run_worker(args.workload, args.seed, args.seconds, args.trace, src, args.corrupt)
    if res is None:
        return 1
    missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
    if missing:
        print(f"the run produced no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    record = res["record"]
    record.update(commit=git_commit(ROOT), nproc=os.cpu_count(), seconds=args.seconds,
                  trace=args.trace, attempted=res["attempted"], failed=res["failed"],
                  metrics=res["metrics"])
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {record['commit']}  python {record['python']}  numpy {record['numpy']}  "
          f"nproc {record['nproc']}  src.lines {record['src.lines']}")
    samples = record.get("mine_s_samples") or record.get("mine_s_traced_samples")
    print(f"  passes: {len(samples)} of {record['jobs_per_pass']} jobs each; "
          f"set-ups: {len(record['setup_s_samples'])}")
    if "mine_wall_s" in record:
        print(f"  {'mine_s before rescaling':<26} {record['mine_wall_s']:.6g} s (wall)")
    for m in declared:
        v = res["metrics"][m["name"]]
        print(f"  {m['name']:<26} {v['value']:.6g} {v['unit']}")
    print(f"  failed_frac                {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} jobs)")
    for note in record["check_notes"]:
        print(f"  check: {note}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: res["metrics"][m["name"]] for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
