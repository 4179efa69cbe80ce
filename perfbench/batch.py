"""Batch workloads: repeated distributed MSF solves of generated graphs.

``rmat-filter`` runs Filter-Borůvka on RMAT (Graph500 probabilities,
2^14 vertices, about 426 k directed edges): poor locality and skewed
degrees, so local preprocessing finds too few local edges and skips
contraction, while distributed sorting and all-to-all dominate.
``grid-boruvka`` runs Borůvka on a 2^16-vertex 2D grid (261 k directed
edges): high locality, so local preprocessing dominates and no filter
level runs.  Both use 64 simulated PEs.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

import layers

#: workload -> (generator name, generator arguments, algorithm)
SPECS = {
    "rmat-filter": ("gen_rmat", (14, 1 << 18), "filter-boruvka"),
    "grid-boruvka": ("gen_grid2d_n", (1 << 16,), "boruvka"),
}
N_PROCS = 64
#: Graphs per run, each generated from the run's seed: averaging over
#: several inputs keeps the seed-to-seed spread of the figures small.
N_GRAPHS = 4
SETUP_REPS = 3
#: Each median rests on at least this many solves (10 beyond it).
MIN_SOLVES = 20
#: A traced run splits its time between untraced and traced solves.
MIN_TRACE_SOLVES = 8


class BatchRun:
    """One workload's machine, input graphs and solve records."""

    def __init__(self, workload: str, seed: int):
        import repro.graphgen
        from repro import Machine

        name, args, self.algorithm = SPECS[workload]
        seeds = [seed * N_GRAPHS + i for i in range(N_GRAPHS)]
        self.generate = lambda: [getattr(repro.graphgen, name)(*args,
                                                               seed=s)
                                 for s in seeds]
        self.machine = Machine(N_PROCS)
        self.graphs = []
        self.solves = []

    def set_up(self) -> float:
        """Generate and partition every input once; returns wall seconds."""
        t0 = time.perf_counter()
        self.graphs = self.generate()
        for graph in self.graphs:
            self.machine.reset()
            graph.distribute(self.machine)
        return time.perf_counter() - t0

    def solve(self, index: int, before=None) -> dict:
        """One timed solve on a fresh partition of input ``index``."""
        from repro import minimum_spanning_forest

        self.machine.reset()
        dist = self.graphs[index].distribute(self.machine)
        gc.collect()
        if before is not None:
            before()
        cpu0 = _cpu()
        t0 = time.perf_counter()
        result = minimum_spanning_forest(dist, algorithm=self.algorithm)
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        msf = result.msf_edges()
        record = {"graph": index, "wall": wall, "cpu": cpu,
                  "sim": result.elapsed,
                  "forest": (msf.u.copy(), msf.v.copy(), msf.w.copy())}
        self.solves.append(record)
        return record

    def solve_for(self, seconds: float, floor: int) -> list:
        """Whole rounds of solves (one per input) until ``seconds`` pass
        and at least ``floor`` solves are done."""
        first = len(self.solves)
        start = time.perf_counter()
        while len(self.solves) - first < floor \
                or time.perf_counter() - start < seconds:
            for index in range(N_GRAPHS):
                self.solve(index)
        return self.solves[first:]

    def errors(self) -> list:
        """Check every solve against scipy's MSF of its input."""
        from check import Reference, canonical

        self.references = []
        for graph in self.graphs:
            n, edges = graph.n_vertices, graph.edges
            self.references.append(Reference(
                n, *canonical(n, edges.u, edges.v, edges.w)))
        errors = []
        for i, record in enumerate(self.solves):
            reference = self.references[record["graph"]]
            errors += [f"solve {i}: {e}" for e in
                       reference.forest_errors(*record["forest"])]
        for index in range(N_GRAPHS):
            sims = {r["sim"] for r in self.solves if r["graph"] == index}
            if len(sims) != 1:
                errors.append(f"simulated seconds of input {index} differ "
                              f"between solves (traced or not): "
                              f"{sorted(sims)}")
        return errors

    def sim_s(self) -> float:
        """Mean simulated seconds per solve over the inputs."""
        return statistics.fmean(self.solves[-N_GRAPHS + i]["sim"]
                                for i in range(N_GRAPHS))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one batch workload; see run.py for the result layout."""
    bench = BatchRun(workload, seed)
    setup = [bench.set_up() for _ in range(SETUP_REPS)]
    bench.solve(0)  # warm-up: the first solve in a process runs slower
    budget = seconds / 2 if trace else seconds
    untraced = bench.solve_for(budget, MIN_TRACE_SOLVES if trace
                               else MIN_SOLVES)
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics, errors = None, []
    if trace:
        metrics, errors = _traced(bench, budget, untraced)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "round_s": statistics.median(r["wall"] for r in untraced),
            "round_cpu_s": statistics.median(r["cpu"] for r in untraced),
            "peak_rss_mb": peak_rss_mb,
            "sim_s": bench.sim_s(),
        }
    errors += bench.errors()
    return {"attempted": len(bench.solves), "failed": 0,
            "errors": errors, "metrics": metrics,
            "detail": {"algorithm": bench.algorithm,
                       "inputs": N_GRAPHS,
                       "n_vertices": [g.n_vertices for g in bench.graphs],
                       "directed_edges": [len(g.edges) for g in bench.graphs],
                       "untraced_solves": len(untraced),
                       "msf_weight": [r.weight for r in bench.references],
                       "components": [r.n_components
                                      for r in bench.references]}}


def _traced(bench: BatchRun, budget: float, untraced: list):
    """Traced set-ups and solves; per-layer metrics per set-up / solve.

    The set-up layers are reported per generated or partitioned input.
    """
    import tracing

    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    setup_spans = []
    for _ in range(SETUP_REPS):
        recorder.clear()
        bench.set_up()
        setup_spans += recorder.spans
    solve_spans = []
    traced = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACE_SOLVES \
            or time.perf_counter() - start < budget:
        for index in range(N_GRAPHS):
            traced.append(bench.solve(index, before=recorder.clear))
            solve_spans += recorder.spans
    summary = tracing.summarize(solve_spans)
    metrics = layers.per_layer(summary, rounds=len(traced),
                               setup=tracing.summarize(setup_spans))
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["wall"] for r in traced)
        / statistics.median(r["wall"] for r in untraced) - 1.0)
    return metrics, layers.identity_errors(summary)


def _cpu() -> float:
    """CPU seconds of this process plus its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime
