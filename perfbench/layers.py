"""Per-layer metrics from traced span summaries (see README.md).

Times and counts are per round -- one solve on the batch workloads, one
churn cycle on serve-churn -- except ``graphgen.generate_s`` and, on the
batch workloads, ``dgraph.distribute_s``, which are per set-up.  A layer
that does not run on a workload reads 0.
"""

from __future__ import annotations

import tracing

#: Self-time metrics: metric name -> traced layer.
SELF_TIMES = {
    "core.local_preprocessing.self_s": "core.local_preprocessing",
    "core.filter.self_s": "core.filter",
    "core.minedges.self_s": "core.minedges",
    "core.contraction.self_s": "core.contraction",
    "core.labels.self_s": "core.labels",
    "core.redistribute.self_s": "core.redistribute",
    "core.base_case.self_s": "core.base_case",
    "core.mst_output.self_s": "core.mst_output",
    "sorting.sort_rows.self_s": "sorting.sort_rows",
    # route_rows calls no other traced layer: its self time is its time.
    "simmpi.route_rows.s": "simmpi.route_rows",
    "serve.protocol.s": "serve.protocol",
    "serve.session.self_s": "serve.session",
}
#: Inclusive-time and call-count metrics of the serving rungs.
RUNGS = ("full", "sparsified", "replay")
#: Serving metrics the client reads off responses (serve-churn only).
FROM_RESPONSES = (
    "serve.queue.wait_p50_ms", "serve.queue.wait_p99_ms",
    "serve.queue.compute_p50_ms", "serve.replay.rounds_saved",
    "serve.epochs.noop", "serve.epochs.sparsified", "serve.epochs.replay",
    "serve.epochs.full", "serve.commit_grow_p50_ms",
    "serve.commit_trim_p50_ms", "serve.commit_cut_p50_ms",
    "serve.query_p50_ms", "serve.query_p99_ms")


def per_layer(summary: dict, rounds: int, setup: dict | None = None
              ) -> dict:
    """Metrics of one traced summary, divided over ``rounds`` rounds.

    ``setup`` is the summary of traced set-ups; when given, the set-up
    layers are read from it per set-up call instead of per round.
    """
    found = summary["layers"]

    def entry(layer, source=found):
        return source.get(layer, {"self_s": 0.0, "incl_s": 0.0, "calls": 0,
                                  "rows": 0})

    out = dict.fromkeys(FROM_RESPONSES, 0.0)
    out.update((name, entry(layer)["self_s"] / rounds)
               for name, layer in SELF_TIMES.items())
    out["sorting.sort_rows.calls"] = \
        entry("sorting.sort_rows")["calls"] / rounds
    out["simmpi.route_rows.calls"] = \
        entry("simmpi.route_rows")["calls"] / rounds
    out["simmpi.rows_routed"] = entry("simmpi.route_rows")["rows"] / rounds
    out["simmpi.bytes_communicated"] = summary["bytes_communicated"] / rounds
    out["simmpi.collectives"] = summary["collectives"] / rounds
    out["unaccounted.self_s"] = summary["unaccounted_s"] / rounds
    out["trace.total_s"] = summary["total_s"] / rounds
    for rung in RUNGS:
        e = entry(f"serve.incremental.{rung}")
        out[f"serve.incremental.{rung}_s"] = e["incl_s"] / rounds
        out[f"serve.incremental.{rung}_calls"] = e["calls"] / rounds
    for metric, layer in (("graphgen.generate_s", "graphgen.generate"),
                          ("dgraph.distribute_s", "dgraph.distribute")):
        if setup is not None:
            e = entry(layer, setup["layers"])
            out[metric] = e["incl_s"] / max(e["calls"], 1)
        else:
            out[metric] = entry(layer)["incl_s"] / rounds
    return out


def identity_errors(summary: dict) -> list:
    """Errors when layer self times do not add up to the traced total."""
    gap = tracing.identity_gap(summary)
    if gap > 1e-9:
        return [f"layer self times plus unaccounted miss the traced "
                f"total by a share of {gap:.3g}"]
    if summary["unaccounted_s"] < 0:
        return ["negative unaccounted time: spans overlap"]
    return []
