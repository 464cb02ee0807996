"""Spans around the calls into each rinclose module, recorded from outside.

The tracer replaces module attributes with timing wrappers for the duration
of a ``with hooks(tracer):`` block and restores them afterwards, so untraced
passes run the unmodified program.  A hook names the module attribute that
the caller looks up (``from x import f`` binds ``f`` in the importing
module, so the attribute is patched where it is called from).  Spans are kept
in memory; the caller writes them out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name); the span name is "<layer>.<function>"
HOOKS = (
    ("rinclose.io", "load_matrix", "io.load_matrix"),
    ("rinclose.io", "solution_to_json", "io.solution_to_json"),
    ("rinclose.cvc", "transform_for_model", "core.transform_for_model"),
    ("rinclose.chv", "transform_for_model", "core.transform_for_model"),
    ("rinclose.cvc", "sort_biclusters", "core.sort_biclusters"),
    ("rinclose.chv", "sort_biclusters", "core.sort_biclusters"),
    ("rinclose.inclose2", "sort_biclusters", "core.sort_biclusters"),
    ("rinclose.cli", "enumerate_cvc", "cvc.enumerate_cvc"),
    ("rinclose.cvc", "_mine_cvc", "cvc._mine_cvc"),
    ("rinclose.cli", "enumerate_chv", "chv.enumerate_chv"),
    ("rinclose.chv", "build_augmented", "chv.build_augmented"),
    ("rinclose.chv", "_mine_cvc", "chv._mine_cvc"),
    ("rinclose.chv", "extract_chv_from_cvc", "chv.extract_chv_from_cvc"),
    ("rinclose.chv", "clique_candidates", "chv.clique_candidates"),
    ("rinclose.chv", "maximal_cliques", "cliques.maximal_cliques"),
    ("rinclose.chv", "_row_maximal_full", "chv._row_maximal_full"),
    ("rinclose.cli", "enumerate_chv_perfect", "chv.enumerate_chv_perfect"),
    ("rinclose.cli", "BinaryContext", "inclose2.BinaryContext"),
    ("rinclose.cli", "enumerate_ctv_binary", "inclose2.enumerate_ctv_binary"),
)

MIB = float(1 << 20)
FIELDS = ("name", "start_s", "end_s", "parent", "job", "info")


class Tracer:
    """In-memory span store, one list per span in the order of ``FIELDS``.

    ``parent`` is the index of the enclosing span (-1 at the root); ``job``
    numbers the CLI call within the pass, so spans of one call share it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.job = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.job, None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._open.pop()
            rec[2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec[5] = _info(name, args, result)
            return result

        return traced


def _info(name: str, args, result):
    """Counts recorded at the boundary, so ratios are measured where work happens."""
    if name == "io.load_matrix":
        return {"bytes": os.path.getsize(args[0])}
    if name == "io.solution_to_json":
        return {"bytes": len(result)}
    if name.endswith("._mine_cvc"):
        pairs, nodes = result
        return {"nodes": nodes, "emitted": len(pairs)}
    if name == "chv.build_augmented":
        n, cols = result.values.shape
        return {"cols": cols, "bytes": n * cols * 8}
    if name in ("chv.clique_candidates", "chv.extract_chv_from_cvc"):
        return {"count": len(result)}
    if name in ("chv.enumerate_chv_perfect", "inclose2.enumerate_ctv_binary"):
        return {"nodes": result.stats.nodes_expanded, "emitted": len(result)}
    return None


@contextlib.contextmanager
def hooks(tracer: Tracer):
    """Patch every hook that exists; report the ones the program no longer has."""
    saved = []
    missing = []
    for mod_name, attr, name in HOOKS:
        mod = importlib.import_module(mod_name)
        if not hasattr(mod, attr):
            missing.append(f"{mod_name}.{attr}")
            continue
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(name, fn))
    if missing:
        print("trace: hooks not found, their metrics read 0: " + ", ".join(missing),
              file=sys.stderr)
    try:
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for k, (name, start, end, *_rest) in enumerate(spans):
        out[name] += end - start - child[k]
    return dict(out)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass; a layer the pass never reached reads 0."""
    total = defaultdict(float)  # inclusive seconds per span name
    sums = defaultdict(float)  # "<span>.<info key>" summed over calls
    peaks = defaultdict(float)  # "<span>.<info key>" maximum over calls
    chv_sort = 0.0
    for name, start, end, parent, _job, info in spans:
        total[name] += end - start
        for key, val in (info or {}).items():
            sums[f"{name}.{key}"] += val
            peaks[f"{name}.{key}"] = max(peaks[f"{name}.{key}"], val)
        if name == "core.sort_biclusters" and parent >= 0 \
                and spans[parent][0] == "chv.enumerate_chv":
            chv_sort += end - start
    own = self_times(spans)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    cvc_nodes = sums["cvc._mine_cvc.nodes"]
    chv_nodes = sums["chv._mine_cvc.nodes"]
    p_nodes = sums["chv.enumerate_chv_perfect.nodes"]
    i_nodes = sums["inclose2.enumerate_ctv_binary.nodes"]
    candidates = sums["chv.clique_candidates.count"]
    return {
        "cvc.walk_s": total["cvc._mine_cvc"],
        "cvc.nodes": cvc_nodes,
        "cvc.nodes_per_s": rate(cvc_nodes, total["cvc._mine_cvc"]),
        "cvc.emit_per_node": rate(sums["cvc._mine_cvc.emitted"], cvc_nodes),
        "chv.walk_s": total["chv._mine_cvc"],
        "chv.nodes": chv_nodes,
        "chv.nodes_per_s": rate(chv_nodes, total["chv._mine_cvc"]),
        "chv.augment_s": total["chv.build_augmented"],
        "chv.aug_cols": peaks["chv.build_augmented.cols"],
        "chv.aug_mb": peaks["chv.build_augmented.bytes"] / MIB,
        "chv.aug_biclusters": sums["chv._mine_cvc.emitted"],
        "chv.extract_s": total["chv.extract_chv_from_cvc"],
        "chv.candidates": candidates,
        "chv.kept_per_candidate": rate(sums["chv.extract_chv_from_cvc.count"], candidates),
        "chv.sort_s": chv_sort,
        "chv.perfect_walk_s": own.get("chv.enumerate_chv_perfect", 0.0),
        "chv.perfect_nodes": p_nodes,
        "chv.perfect_nodes_per_s": rate(p_nodes, own.get("chv.enumerate_chv_perfect", 0.0)),
        "inclose2.context_s": total["inclose2.BinaryContext"],
        "inclose2.walk_s": own.get("inclose2.enumerate_ctv_binary", 0.0),
        "inclose2.nodes": i_nodes,
        "inclose2.nodes_per_s": rate(i_nodes, own.get("inclose2.enumerate_ctv_binary", 0.0)),
        "inclose2.concepts": sums["inclose2.enumerate_ctv_binary.emitted"],
        "io.load_s": total["io.load_matrix"],
        "io.in_mb": sums["io.load_matrix.bytes"] / MIB,
        "io.dump_s": total["io.solution_to_json"],
        "io.out_mb": sums["io.solution_to_json.bytes"] / MIB,
        "core.transform_s": total["core.transform_for_model"],
        "core.sort_s": total["core.sort_biclusters"],
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_frac", "_per_node", "_per_candidate")):
        return "ratio"
    return "count"


UNITS = {name: _unit(name) for name in layer_metrics([])}
