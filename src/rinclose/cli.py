"""Command-line front end: mine, generate, evaluate, report.

Mining is fully deterministic: identical flags and input bytes give
byte-identical JSON output.  All randomness lives behind ``generate --seed``.
Diagnostics go to standard error and are controlled by the RINCLOSE_LOG
environment variable (quiet, info, debug); results go to standard output or
--output as compact JSON.

Exit codes: 0 success, 1 data error (unreadable input, unwritable output,
non-binary context, out-of-range indices), 2 usage error (bad flags or flag
combinations, including epsilon/type mismatches).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import ALGORITHMS, enumerate_biclusters
from . import io as rio
from .core import EnumParams
from .datagen import PATTERNS, GenConfig, generate
from .metrics import precision_recall, solution_report
from .oracle import oracle_enumerate

log = logging.getLogger("rinclose")

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("RINCLOSE_LOG", "info"), logging.INFO)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rinclose",
        description="Enumerate all maximal biclusters of dense numeric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="enumerate biclusters of a matrix file")
    mine.add_argument(
        "--alg",
        required=True,
        help=f"one of {', '.join(ALGORITHMS)}, or oracle:<type> (experimental, brute force)",
    )
    mine.add_argument("--epsilon", type=float, default=0.0, help="residue bound (default 0)")
    mine.add_argument("--min-rows", type=int, default=1, help="minimum rows per bicluster")
    mine.add_argument("--min-cols", type=int, default=1, help="minimum columns per bicluster")
    mine.add_argument("--model", choices=("shift", "scale"), default="shift")
    mine.add_argument("--input", required=True, help="CSV/TSV/whitespace matrix file")
    mine.add_argument("--output", help="write JSON here instead of standard output")

    gen = sub.add_parser("generate", help="synthesize a matrix with planted biclusters")
    gen.add_argument("--rows", type=int, default=500)
    gen.add_argument("--cols", type=int, default=30)
    gen.add_argument("--bics", type=int, default=5)
    gen.add_argument("--bic-rows", type=int, default=50)
    gen.add_argument("--bic-cols", type=int, default=6)
    gen.add_argument("--overlap", type=float, default=0.2)
    gen.add_argument("--sigma", type=float, default=0.01)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--pattern", choices=PATTERNS, default="chv-shift")
    gen.add_argument("--out-matrix", required=True)
    gen.add_argument("--out-truth", required=True)

    ev = sub.add_parser("evaluate", help="precision/recall of one solution against another")
    ev.add_argument("--found", required=True)
    ev.add_argument("--reference", required=True)
    ev.add_argument("--rows", type=_positive_int, required=True)
    ev.add_argument("--cols", type=_positive_int, required=True)

    rep = sub.add_parser("report", help="coverage/overlap summary of a solution")
    rep.add_argument("--solution", required=True)
    rep.add_argument("--rows", type=_positive_int, required=True)
    rep.add_argument("--cols", type=_positive_int, required=True)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_mine(args, parser: argparse.ArgumentParser) -> int:
    bic_type = args.alg.removeprefix("oracle:")
    try:
        params = EnumParams(args.epsilon, args.min_rows, args.min_cols, bic_type, args.model)
    except ValueError as exc:
        parser.error(str(exc))
    log.debug("params: %s", params)
    matrix = rio.load_matrix(args.input)
    log.debug("loaded %dx%d matrix from %s", matrix.n_rows, matrix.n_cols, args.input)
    if args.alg.startswith("oracle:"):
        log.info("oracle:%s is experimental test tooling (brute force)", bic_type)
        sol = oracle_enumerate(matrix, params)
    else:
        sol = enumerate_biclusters(matrix, params)
    _emit(rio.solution_to_json(sol), args.output)
    log.info(
        "%d biclusters, %d nodes expanded, %.3f s",
        len(sol),
        sol.stats.nodes_expanded,
        sol.stats.elapsed_s,
    )
    return 0


def _cmd_generate(args, parser: argparse.ArgumentParser) -> int:
    try:
        cfg = GenConfig(
            n=args.rows,
            m=args.cols,
            num_bics=args.bics,
            bic_rows=args.bic_rows,
            bic_cols=args.bic_cols,
            overlap=args.overlap,
            noise_sigma=args.sigma,
            seed=args.seed,
            pattern=args.pattern,
        )
    except ValueError as exc:
        parser.error(str(exc))
    matrix, truth = generate(cfg)
    rio.save_matrix(matrix, args.out_matrix)
    rio.save_solution(truth, args.out_truth)
    log.info(
        "wrote %dx%d matrix to %s and %d planted biclusters to %s",
        cfg.n, cfg.m, args.out_matrix, len(truth), args.out_truth,
    )
    return 0


def _cmd_evaluate(args) -> int:
    found = rio.load_solution(args.found)
    reference = rio.load_solution(args.reference)
    prec, rec = precision_recall(found, reference, args.rows, args.cols)
    sys.stdout.write(json.dumps({"precision": prec, "recall": rec}, separators=(",", ":")) + "\n")
    return 0


def _cmd_report(args) -> int:
    sol = rio.load_solution(args.solution)
    rep = solution_report(sol, args.rows, args.cols)
    sys.stdout.write(json.dumps(rep.to_dict(), separators=(",", ":")) + "\n")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mine":
            return _cmd_mine(args, parser)
        if args.command == "generate":
            return _cmd_generate(args, parser)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_report(args)
    except (OSError, ValueError) as exc:
        log.error("error: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
