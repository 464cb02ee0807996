"""Compare the end-to-end metrics of two source trees, workload by workload.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are each a directory holding ``src/rinclose`` or a git
revision of this checkout (extracted with ``git archive`` under
``.bench_work/``).  Both sides run with this checkout's benchmark code and
settings: every workload of ``BENCHMARK.json`` at its ``run_seconds``.  For
each workload the script runs PAIRS pairs, seed k in pair k, alternating
which side runs first, and prints for every end-to-end metric each side's
median and quartiles, the pairs HEAD won, and a verdict:

* ``better``: HEAD wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than BASE's quartile spread, or
  every HEAD run reads better than every BASE run;
* ``unresolved``: the spread of either side, as a share of its median,
  exceeds the metric's bound;
* ``WORSE``: HEAD's median is worse than BASE's by more than the bound;
* ``within bound``: none of the above.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

from run import ROOT

RUN = Path(__file__).with_name("run.py")
PAIRS = 10


def resolve_tree(spec: str) -> Path:
    """A directory with src/rinclose, extracting a git revision if needed."""
    path = Path(spec)
    if (path / "src" / "rinclose").is_dir():
        return path.resolve()
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", spec + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    dest = ROOT / ".bench_work" / f"rev-{sha[:12]}"
    if not (dest / "src" / "rinclose").is_dir():
        blob = subprocess.run(["git", "-C", str(ROOT), "archive", sha, "src"],
                              capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--src", str(tree / "src")],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        print(f"    run failed ({tree}, seed {seed}): {proc.stderr.strip()[-300:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(base: list[float], head: list[float], bound: float, better: str) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    mb, mh = statistics.median(base), statistics.median(head)
    qb, qh = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
    every = (max(head) < min(base)) if sign > 0 else (min(head) > max(base))
    if every or (wins >= 0.9 * len(base) and sign * (mh - mb) < 0 and abs(mh - mb) > qb[2] - qb[0]):
        return "better", wins
    if (qb[2] - qb[0]) / mb > bound or (qh[2] - qh[0]) / mh > bound:
        return "unresolved", wins
    if sign * (mh - mb) / mb > bound:
        return "WORSE", wins
    return "within bound", wins


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    base, head = resolve_tree(args.base), resolve_tree(args.head)
    print(f"BASE {base}\nHEAD {head}\n{PAIRS} pairs, {seconds} s per run")
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {"base": [], "head": []}
        for k in range(PAIRS):
            sides = [("base", base), ("head", head)]
            results = {name: run_side(tree, workload, k, seconds)
                       for name, tree in (sides if k % 2 == 0 else sides[::-1])}
            if any(r is None or not r["correct"] for r in results.values()):
                print(f"  {workload} pair {k}: a run failed or gave wrong output; pair dropped")
                status = 1
                continue
            for name, r in results.items():
                values[name].append({m: v["value"] for m, v in r["metrics"].items()})
        n = len(values["base"])
        print(f"\n{workload}: {n} pairs")
        if n < 2:
            continue
        for m in spec["end_to_end"]:
            b = [v[m["name"]] for v in values["base"]]
            h = [v[m["name"]] for v in values["head"]]
            word, wins = verdict(b, h, m["bound"], m["better"])
            qb, qh = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
            mb, mh = statistics.median(b), statistics.median(h)
            print(f"  {m['name']:<12} base {mb:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                  f"head {mh:.4g} [{qh[0]:.4g}, {qh[2]:.4g}] {m['unit']}  "
                  f"{(mh - mb) / mb:+.1%}  head won {wins}/{n}  "
                  f"bound {m['bound']:.0%}: {word}")
    return status


if __name__ == "__main__":
    sys.exit(main())
