"""Layer spans recorded from outside the program.

:func:`install` replaces every module-level binding (and registry dict
entry, and class attribute) of each timed public function with a wrapper
that records one span per call.  Binding by name matters: ``min_edges``,
``route_rows``, ``sort_rows`` and friends are imported by name into the
Borůvka drivers, the sorters and the serving layer, so patching only the
home module would miss most calls.

Spans are kept in memory as ``[layer, start, end, parent, rows, stats]``
lists (``rows`` counts rows handed to ``route_rows``; ``stats`` holds the
simulated communication counters of a returned MST result),
one stack per thread (the serving layer runs recomputes on a writer
thread and queries on reader threads).  :func:`summarize` turns them into
nesting-aware self times: a span's self time is its duration minus the
durations of its direct children, so the self times of all spans under a
root add up exactly to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time

#: Layer name -> (home module, attribute path) of every timed function.
TIMED = {
    "graphgen.generate": [("repro.graphgen.rmat", "gen_rmat"),
                          ("repro.graphgen.grid", "gen_grid2d_n"),
                          ("repro.graphgen.gnm", "gen_gnm")],
    "dgraph.distribute": [("repro.dgraph.dist_graph",
                           "DistGraph.from_global_edges")],
    "solve": [("repro.core.mst", "minimum_spanning_forest")],
    "core.local_preprocessing": [("repro.core.local_preprocessing",
                                  "local_preprocessing")],
    "core.filter": [("repro.core.filter_boruvka",
                     "distributed_filter_boruvka")],
    "core.minedges": [("repro.core.minedges", "min_edges")],
    "core.contraction": [("repro.core.contraction", "contract_components")],
    "core.labels": [("repro.core.labels", "exchange_labels"),
                    ("repro.core.labels", "relabel")],
    "core.redistribute": [("repro.core.redistribute", "redistribute")],
    "core.base_case": [("repro.core.base_case", "base_case")],
    "core.mst_output": [("repro.core.boruvka", "redistribute_mst")],
    "sorting.sort_rows": [("repro.sorting.api", "sort_rows")],
    "simmpi.route_rows": [("repro.simmpi.alltoall", "route_rows")],
    "serve.protocol": [("repro.serve.protocol", "parse_request"),
                       ("repro.serve.protocol", "encode_response")],
    "serve.session": [("repro.serve.session", "GraphSession.apply_epoch")],
    "serve.incremental.full": [("repro.serve.incremental",
                                "full_recompute")],
    "serve.incremental.sparsified": [("repro.serve.incremental",
                                      "sparsified_recompute")],
    "serve.incremental.replay": [("repro.serve.incremental",
                                  "replay_recompute")],
}

#: Spans whose self time is reported as ``unaccounted.self_s``: drivers
#: and rung bodies, i.e. time inside a traced round outside every layer.
UNACCOUNTED = ("solve", "serve.incremental.full",
               "serve.incremental.sparsified", "serve.incremental.replay")


class SpanRecorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self.spans = []

    def wrap(self, layer: str, fn):
        """A wrapper recording one span of ``layer`` per call of ``fn``."""
        rows_of = _rows_routed if layer == "simmpi.route_rows" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            span = [layer, time.perf_counter(), None, parent,
                    rows_of(args, kwargs) if rows_of else 0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = _comm_stats(result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return traced


def _rows_routed(args, kwargs) -> int:
    dests = kwargs.get("dests", args[2] if len(args) > 2 else ())
    return int(sum(len(d) for d in dests))


def _comm_stats(result):
    """(bytes communicated, collectives) of a returned MST result, or None."""
    if isinstance(result, tuple) and result:
        result = result[0]
    stats = getattr(result, "stats", None)
    if not isinstance(stats, dict) or "bytes_communicated" not in stats:
        return None
    return stats["bytes_communicated"], stats["n_collectives"]


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    # The algorithm registry fills lazily; fill it so its entries exist
    # to be wrapped.
    sys.modules["repro.core.mst"].available_algorithms()


def install(recorder: SpanRecorder) -> None:
    """Wrap every binding of every timed function.

    Raises ``RuntimeError`` when a timed function cannot be found, so a
    renamed layer fails the traced run instead of reading zero.
    """
    _import_all()
    for layer, targets in TIMED.items():
        for module_name, path in targets:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for name in cls_path:
                owner = getattr(owner, name)
            raw = owner.__dict__.get(attr) if cls_path else \
                getattr(owner, attr, None)
            if raw is None:
                raise RuntimeError(f"timed function {path} not found in "
                                   f"{module_name}")
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(recorder.wrap(layer, raw.__func__)))
            elif cls_path:
                setattr(owner, attr, recorder.wrap(layer, raw))
            else:
                _rebind(raw, recorder.wrap(layer, raw))


def _rebind(original, wrapper) -> None:
    """Replace ``original`` wherever a repro module or registry holds it."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) \
                or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def summarize(spans) -> dict:
    """Per-layer self/inclusive seconds and calls, plus the round total.

    ``total_s`` is the summed duration of root spans (spans with no
    traced parent) other than set-up layers; ``unaccounted_s`` is the self
    time of the driver spans listed in :data:`UNACCOUNTED`.  By
    construction of nesting-aware self times, the named layers' self
    times plus ``unaccounted_s`` equal ``total_s``; :func:`identity_gap`
    measures how far floating-point summation strays from that.
    """
    child = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            child[id(parent)] = child.get(id(parent), 0.0) \
                + (span[2] - span[1])
    layers = {}
    total = 0.0
    comm = [0.0, 0]
    for span in spans:
        layer, start, end, parent, rows, stats = span
        if stats is not None and not _has_ancestor(
                span, lambda s: s[5] is not None):
            comm[0] += stats[0]
            comm[1] += stats[1]
        dur = end - start
        self_s = dur - child.get(id(span), 0.0)
        entry = layers.setdefault(layer, {"self_s": 0.0, "incl_s": 0.0,
                                          "calls": 0, "rows": 0})
        entry["self_s"] += self_s
        entry["calls"] += 1
        entry["rows"] += rows
        if not _has_ancestor(span, lambda s: s[0] == layer):
            entry["incl_s"] += dur
        if parent is None:
            total += dur
    unaccounted = sum(layers[name]["self_s"] for name in UNACCOUNTED
                      if name in layers)
    return {"layers": layers, "total_s": total,
            "unaccounted_s": unaccounted,
            "bytes_communicated": comm[0], "collectives": comm[1]}


def identity_gap(summary: dict) -> float:
    """|named self times + unaccounted - total| / total (0 when exact)."""
    named = sum(entry["self_s"] for name, entry in
                summary["layers"].items() if name not in UNACCOUNTED)
    total = summary["total_s"]
    return abs(named + summary["unaccounted_s"] - total) / max(total, 1e-12)


def _has_ancestor(span, test) -> bool:
    parent = span[3]
    while parent is not None:
        if test(parent):
            return True
        parent = parent[3]
    return False
