"""Measuring process of one benchmark run: set up, run passes, check outputs.

Started by ``run.py`` as a child process that runs only this workload, so
that its own ``getrusage`` peak RSS belongs to the workload alone.  Prints
one JSON object on standard output and nothing else.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --src DIR [--corrupt]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import refkernel
import spans
from run import WORK
from workloads import WORKLOADS, input_set

# set-up repeats: at least SETUP_MIN, then more while under SETUP_BUDGET_S seconds in total
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0
EXPECTED = Path(__file__).with_name("expected.json")


def _import_rinclose(src: Path):
    """Import rinclose afresh from ``src`` (drop any loaded copy first)."""
    for name in [m for m in sys.modules if m == "rinclose" or m.startswith("rinclose.")]:
        del sys.modules[name]
    import rinclose
    import rinclose.cli

    if Path(rinclose.__file__).resolve().parent != (src / "rinclose").resolve():
        raise ImportError(f"rinclose was imported from {rinclose.__file__}, not {src}")
    return rinclose


def setup(wl, seed: int, src: Path, work: Path, kernel: refkernel.Reference,
          sample: bool = True):
    """Import rinclose, generate every instance and write its CSV.

    Returns rinclose, the instances and the cost of each set-up (see
    ``refkernel.cost``).  With ``sample``, set-up runs SETUP_MIN times and
    then again while the total stays under SETUP_BUDGET_S wall seconds, so a
    cheap set-up is sampled often enough for a steady median; without, it
    runs once.
    """
    costs: list[float] = []
    wall = 0.0
    while True:
        gc.collect()
        before = kernel.seconds()
        t0 = time.perf_counter()
        rinclose = _import_rinclose(src)
        instances = [wl.make(seed, i) for i in range(wl.instances)]
        for i, inst in enumerate(instances):
            rinclose.io.save_matrix(inst.values, work / f"in{i}.csv")
        took = time.perf_counter() - t0
        costs.append(refkernel.cost(took, before, kernel.seconds()))
        wall += took
        if not sample or len(costs) >= SETUP_MAX or (
                len(costs) >= SETUP_MIN and wall >= SETUP_BUDGET_S):
            return rinclose, instances, costs


def job_list(wl, work: Path):
    """(instance index, full mine argv, output path) for every job of one pass."""
    jobs = []
    for i in range(wl.instances):
        for k, flags in enumerate(wl.jobs):
            out = work / f"out{i}-{k}.json"
            jobs.append((i, [*flags, "--input", str(work / f"in{i}.csv"), "--output", str(out)], out))
    return jobs


def _drop_first(data: bytes) -> bytes:
    bics = json.loads(data)
    return (json.dumps(bics[1:], separators=(",", ":")) + "\n").encode()


class Runner:
    """Runs passes over the job list and keeps what the checks need."""

    def __init__(self, cli_main, jobs, corrupt: bool, kernel: refkernel.Reference) -> None:
        self.cli_main = cli_main
        self.jobs = jobs
        self.corrupt = corrupt
        self.kernel = kernel
        self.reference: list[bytes | None] | None = None  # first pass outputs
        self.repeats: list[list[bool]] = []  # per pass, per job: ran and equals the first pass
        self.job_times: list[list[float]] = []  # per pass, per job: wall seconds of the CLI call
        self.job_costs: list[list[float]] = []  # per pass, per job: refkernel.cost of the call

    def run_pass(self, tracer=None) -> float:
        """One pass over every job; returns the summed wall seconds of the CLI calls."""
        times = []
        kernel_s = [self.kernel.seconds()]
        outputs = []
        for j, (_, argv, out) in enumerate(self.jobs):
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.job = j
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli_main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = self.cli_main(argv)
            except SystemExit as exc:  # argparse rejects the flags: a failed job
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashing job is a failed job, not a crashed run
                traceback.print_exc()
                rc = -1
            times.append(time.perf_counter() - t0)
            kernel_s.append(self.kernel.seconds())
            data = out.read_bytes() if rc == 0 and out.exists() else None
            if data is not None and self.corrupt:
                data = _drop_first(data)
            outputs.append(data)
        if self.reference is None:
            self.reference = outputs
        self.repeats.append([d is not None and d == ref for d, ref in zip(outputs, self.reference)])
        self.job_times.append(times)
        self.job_costs.append([refkernel.cost(t, *kernel_s[j:j + 2]) for j, t in enumerate(times)])
        return sum(times)

    def passes(self, window: float, tracer=None, spans_out=None) -> list[list[float]]:
        """Run passes until the next one would end past ``window`` seconds (at least one).

        Returns the per-job costs of each pass.  With a tracer, each pass's
        spans are moved to ``spans_out`` after the pass.
        """
        first = len(self.job_costs)
        totals: list[float] = []
        start = time.perf_counter()
        while True:
            totals.append(self.run_pass(tracer))
            if tracer is not None:
                spans_out.append(tracer.spans)
                tracer.spans = []
            if time.perf_counter() - start + statistics.median(totals) > window:
                return self.job_costs[first:]


def pass_seconds(job_times: list[list[float]]) -> float:
    """Typical seconds of one pass: the sum over jobs of each job's median.

    Taking the median per job, not per pass, keeps a burst of machine
    slowness during one call from moving the figure while every input of the
    pass still counts.
    """
    return sum(statistics.median(col) for col in zip(*job_times))


def mine_params(rinclose, argv):
    """The EnumParams a ``mine`` argument list asks for."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    return rinclose.EnumParams(float(flags.get("--epsilon", 0.0)), int(flags["--min-rows"]),
                               int(flags["--min-cols"]), flags["--alg"])


def pinned_hashes(wl, seed: int) -> list[str] | None:
    """The SHA-256 pinned for each job of the seed's input set, if any."""
    return json.loads(EXPECTED.read_text()).get(wl.name, {}).get(str(input_set(seed)))


def check_outputs(rinclose, instances, jobs, reference, pinned) -> tuple[list[bool], list[str]]:
    """Per job: pinned SHA-256, validity of every bicluster, planted recovery.

    With no pin (``pinned`` is None) every job fails: completeness is only
    checked against a pin.
    """
    ok, notes = [], []
    for j, ((i, argv, _), data) in enumerate(zip(jobs, reference)):
        if data is None:
            ok.append(False)
            notes.append(f"job {j}: no output")
            continue
        sha = hashlib.sha256(data).hexdigest()
        good = True
        if pinned is None:
            good = False
            notes.append(f"job {j}: no pinned SHA-256 for this input set")
        elif pinned[j] != sha:
            good = False
            notes.append(f"job {j}: sha256 {sha[:12]} != pinned {pinned[j][:12]}")
        params = mine_params(rinclose, argv)
        inst = instances[i]
        try:
            sol = _solution(rinclose, data)
            bad = sum(not rinclose.is_valid(inst.values, b, params) for b in sol.biclusters)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            ok.append(False)
            notes.append(f"job {j}: unreadable output: {exc}")
            continue
        if bad:
            good = False
            notes.append(f"job {j}: {bad} invalid biclusters")
        if inst.truth is not None and inst.well_posed:
            n, m = inst.values.shape
            pr = rinclose.precision_recall(sol.biclusters, inst.truth.biclusters, n, m)
            if pr != (1.0, 1.0):
                good = False
                notes.append(f"job {j}: precision/recall {pr}")
        ok.append(good)
    return ok, notes


def _solution(rinclose, data: bytes):
    bics = [rinclose.Bicluster(e["rows"], e["cols"]) for e in json.loads(data)]
    return rinclose.BiclusterSolution(biclusters=tuple(bics))


def src_lines(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    sys.path.insert(0, str(args.src))
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _measure(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wl, work: Path) -> int:
    import numpy

    kernel = refkernel.Reference()
    rinclose, instances, setup_costs = setup(wl, args.seed, args.src, work, kernel)
    jobs = job_list(wl, work)
    runner = Runner(rinclose.cli.main, jobs, args.corrupt, kernel)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "input_set": input_set(args.seed),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "src.lines": src_lines(args.src),
        "jobs_per_pass": len(jobs),
        "setup_s_samples": setup_costs,
    }
    if args.trace == 0:
        costs = runner.passes(args.seconds)
        metrics = {
            "mine_s": (pass_seconds(costs), "s"),
            "setup_s": (statistics.median(setup_costs), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        record["mine_s_samples"] = [sum(c) for c in costs]
        record["mine_wall_s"] = pass_seconds(runner.job_times)
    else:
        metrics, extra = _traced(runner, args, work)
        metrics["src.lines"] = (record["src.lines"], "lines")
        record.update(extra)

    ok, notes = check_outputs(rinclose, instances, jobs, runner.reference,
                              pinned_hashes(wl, args.seed))
    # a job fails on a pass if it errored, differs from its first-pass output, or
    # that first-pass output failed a check
    attempted = sum(len(r) for r in runner.repeats)
    failed = sum(not (same and good) for r in runner.repeats for same, good in zip(r, ok))
    record["sha256"] = [hashlib.sha256(d).hexdigest() if d else None for d in runner.reference]
    record["check_notes"] = notes
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }))
    return 0


def _traced(runner: Runner, args, work: Path):
    """Untraced and traced passes in turn until the window is used.

    Alternating keeps a drift in machine speed from reading as tracing
    overhead; at least one pair runs.
    """
    tracer = spans.Tracer()
    per_pass: list[list] = []
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    start = time.perf_counter()
    while True:
        plain += runner.passes(0.0)  # a zero window runs exactly one pass
        with spans.hooks(tracer):
            traced += runner.passes(0.0, tracer, per_pass)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    layers = [spans.layer_metrics(s) for s in per_pass]
    metrics = {
        name: (statistics.median(m[name] for m in layers), spans.UNITS[name])
        for name in layers[0]
    }
    untraced = pass_seconds(plain)
    metrics["trace.overhead_frac"] = ((pass_seconds(traced) - untraced) / untraced, "ratio")
    path = work.parent / f"spans-{args.workload}-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": list(spans.FIELDS), "passes": per_pass}, fh)
    self_s = [spans.self_times(s) for s in per_pass]
    names = sorted({k for d in self_s for k in d})
    extra = {
        "spans_file": str(path),
        "self_s": {k: statistics.median(d.get(k, 0.0) for d in self_s) for k in names},
        "mine_s_untraced_samples": [sum(t) for t in plain],
        "mine_s_traced_samples": [sum(t) for t in traced],
    }
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
