"""serve-churn: the shipped ``repro serve --tcp`` under edge churn.

The server runs as a subprocess on a GNM graph (4096 vertices, 16384
edges, all weights distinct so the MSF is unique) over 8 simulated PEs.
One client holds one connection and runs cycles of three epochs:

* ``grow`` inserts edges only (the sparsified rung),
* ``trim`` deletes edges outside the forest only (the noop rung),
* ``cut`` deletes forest edges (the replay or full rung).

Each epoch stages one mutation request, sends ``flush``, sends point
queries one at a time while the flush is in flight, awaits the flush,
then reads the served weight and component count.  Queues are sized so
that epochs commit only on ``flush``, which keeps the simulated seconds
of the stream exact.  The client mirrors the live edge set and checks
every answer against scipy's MSF of the mirror at the answer's version.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from check import Reference

N_VERTICES = 4096
N_EDGES = 16384
N_PROCS = 8
#: Edges per epoch: net zero per cycle keeps the graph size steady.
GROW, TRIM, CUT = 32, 24, 8
QUERIES_PER_EPOCH = 25
#: At least 40 epochs of each kind; ``sim_s`` covers exactly these.
MIN_CYCLES = 40
#: Cycles in each pass of a traced run (one untraced, one traced).
TRACE_CYCLES = 20
LAUNCHES = 3
KINDS = ("grow", "trim", "cut")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.getcwd(), ".perfbench_work")


class ServeError(RuntimeError):
    """The server died, refused to start, or broke the protocol."""


def write_graph(seed: int, path: str):
    """GNM pairs from the program's generator, distinct weights of ours.

    Returns ``(codes, weights)``, the canonical undirected edge set.
    """
    from repro.graphgen import gen_gnm

    graph = gen_gnm(N_VERTICES, N_EDGES, seed=seed)
    half = graph.edges.u < graph.edges.v
    u = graph.edges.u[half].astype(np.int64)
    v = graph.edges.v[half].astype(np.int64)
    rng = np.random.default_rng([seed, 1])
    w = rng.choice(1 << 40, size=len(u), replace=False).astype(np.int64) + 1
    du, dv, dw = np.r_[u, v], np.r_[v, u], np.r_[w, w]
    order = np.lexsort((dw, dv, du))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(
        path, u=du[order], v=dv[order], w=dw[order],
        id=np.arange(len(du), dtype=np.int64),
        n_vertices=np.int64(N_VERTICES), name=np.bytes_(b"GNM-distinct"),
        params=np.bytes_(json.dumps({"n": N_VERTICES, "m": N_EDGES,
                                     "seed": seed}).encode()))
    codes = u * N_VERTICES + v
    order = np.argsort(codes)
    return codes[order], w[order]


class Server:
    """One ``repro serve --tcp`` subprocess and a line client on it."""

    def __init__(self, graph_path: str, seed: int, traced_out=None):
        args = ["serve", graph_path, "--tcp", "127.0.0.1:0",
                "--procs", str(N_PROCS), "--seed", str(seed),
                "--readers", str(min(2, os.cpu_count() or 1)),
                "--epoch-batch", "1000000", "--epoch-delay-ms", "1e9",
                "--max-depth", "1024"]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   traced_out, *args]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.log = []
        ready = threading.Event()
        address = []

        def pump():
            for line in self.proc.stderr:
                self.log.append(line.rstrip())
                if line.startswith("listening on ") and not address:
                    address.append(line.split()[-1])
                    ready.set()
            ready.set()

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        self.sock = socket.socket()
        if not ready.wait(120) or not address:
            self.kill()
            raise ServeError("server did not start: "
                             + " | ".join(self.log[-5:]))
        self.setup_s = time.perf_counter() - t0
        host, port = address[0].rsplit(":", 1)
        self.sock.close()
        self.sock = socket.create_connection((host, int(port)), timeout=120)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.next_id = 0
        self.responses = {}

    def send(self, op: str, **fields) -> tuple:
        """Send one request; returns ``(id, send time)``."""
        self.next_id += 1
        line = json.dumps({"id": self.next_id, "op": op, **fields})
        t = time.perf_counter()
        self.sock.sendall(line.encode() + b"\n")
        return self.next_id, t

    def wait(self, rid: int) -> tuple:
        """Block until response ``rid`` arrived; ``(response, recv time)``."""
        while rid not in self.responses:
            line = self.reader.readline()
            if not line:
                raise ServeError("server closed the connection: "
                                 + " | ".join(self.log[-5:]))
            resp = json.loads(line)
            self.responses[resp["id"]] = (resp, time.perf_counter())
        return self.responses.pop(rid)

    def call(self, op: str, **fields) -> tuple:
        rid, t0 = self.send(op, **fields)
        resp, t1 = self.wait(rid)
        return resp, t1 - t0

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise ServeError("no VmHWM in /proc status")

    def shutdown(self) -> None:
        try:
            self.call("shutdown")
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        self.sock.close()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._pump.join(timeout=10)


class Stream:
    """The client's mirror of the live graph and the churn it applies."""

    def __init__(self, codes, weights, seed: int):
        self.codes, self.weights = codes, weights
        self.rng = np.random.default_rng([seed, 2])
        self.used_weights = set(weights.tolist())
        self.states = {0: Reference(N_VERTICES, codes, weights)}
        self.version = 0
        self.errors = []
        self.attempted = self.failed = 0
        self.records = []   # one per epoch
        self.query_ms = []
        self.queue_wait_ms = []
        self.compute_ms = []

    # -- drawing operations (deterministic given the seed) -------------
    def _draw_epoch(self, kind: str):
        state = self.states[self.version]
        if kind == "grow":
            rows = []
            taken = set()
            while len(rows) < GROW:
                u, v = self._pair()
                code = min(u, v) * N_VERTICES + max(u, v)
                if code in taken or state.has([code])[0]:
                    continue
                taken.add(code)
                rows.append([u, v, self._fresh_weight()])
            return "insert_edges", rows
        pool = state.forest_codes if kind == "cut" else \
            np.setdiff1d(self.codes, state.forest_codes, assume_unique=True)
        picked = self.rng.choice(pool, size=CUT if kind == "cut" else TRIM,
                                 replace=False)
        return "delete_edges", [[int(c // N_VERTICES), int(c % N_VERTICES)]
                                for c in np.sort(picked)]

    def _pair(self):
        """A random vertex pair that is never a self pair."""
        u = int(self.rng.integers(N_VERTICES))
        v = int(self.rng.integers(N_VERTICES - 1))
        return u, v + (v >= u)

    def _fresh_weight(self) -> int:
        while True:
            w = int(self.rng.integers(1, 1 << 40))
            if w not in self.used_weights:
                self.used_weights.add(w)
                return w

    def _queries(self):
        out = []
        for i in range(QUERIES_PER_EPOCH):
            if i % 2:
                out.append(self._pair())
            else:
                c = int(self.codes[self.rng.integers(len(self.codes))])
                out.append((c // N_VERTICES, c % N_VERTICES))
        return out

    def _apply(self, op: str, rows) -> None:
        if op == "insert_edges":
            codes = np.array([min(u, v) * N_VERTICES + max(u, v)
                              for u, v, _ in rows], dtype=np.int64)
            weights = np.array([w for _, _, w in rows], dtype=np.int64)
            codes = np.r_[self.codes, codes]
            weights = np.r_[self.weights, weights]
        else:
            gone = np.array([u * N_VERTICES + v for u, v in rows],
                            dtype=np.int64)
            keep = ~np.isin(self.codes, gone)
            codes, weights = self.codes[keep], self.weights[keep]
        order = np.argsort(codes)
        self.codes, self.weights = codes[order], weights[order]

    # -- one epoch -----------------------------------------------------
    def epoch(self, server: Server, kind: str) -> None:
        op, rows = self._draw_epoch(kind)
        queries = self._queries()
        self._apply(op, rows)
        after = Reference(N_VERTICES, self.codes, self.weights)
        self.states[self.version + 1] = after
        self.states.pop(self.version - 1, None)

        t0 = time.perf_counter()
        mid, _ = server.send(op, edges=rows)
        fid, t_flush = server.send("flush")
        for u, v in queries:
            resp, ms = server.call("edge_in_msf", u=u, v=v)
            self._count(resp)
            if resp.get("ok"):
                self.query_ms.append(ms * 1e3)
                self.queue_wait_ms.append(resp["metrics"]["queue_wait_ms"])
                self.compute_ms.append(resp["metrics"]["compute_ms"])
                result = resp["result"]
                state = self.states.get(result["version"])
                if state is None:
                    self.errors.append(f"query answered at unexpected "
                                       f"version {result['version']}")
                else:
                    self.errors += state.answer_errors(
                        u, v, result["present"], result["in_msf"])
        flush, t_done = server.wait(fid)
        mutation, _ = server.wait(mid)
        self._count(flush)
        self._count(mutation)
        weight, _ = server.call("msf_weight")
        comps, _ = server.call("components")
        wall = time.perf_counter() - t0
        self._count(weight)
        self._count(comps)

        self.version += 1
        if flush.get("ok") and flush["result"]["version"] != self.version:
            self.errors.append(f"flush published version "
                               f"{flush['result']['version']}, expected "
                               f"{self.version}")
        info = mutation.get("result", {})
        served = (info.get("weight"), weight.get("result", {}).get("weight"),
                  comps.get("result", {}).get("n_components"))
        if served != (after.weight, after.weight, after.n_components):
            self.errors.append(f"{kind} epoch {self.version}: served "
                               f"(weight, weight, components) {served}, "
                               f"scipy ({after.weight}, {after.n_components})")
        self.records.append({
            "kind": kind, "commit_ms": (t_done - t_flush) * 1e3,
            "wall": wall, "strategy": info.get("strategy"),
            "sim": info.get("simulated_seconds", 0.0),
            "replayed_from": info.get("replayed_from")})

    def _count(self, resp: dict) -> None:
        self.attempted += 1
        if not resp.get("ok"):
            self.failed += 1
            self.errors.append(f"request failed: {resp.get('error')}")

    def cycles(self, server: Server, seconds: float, floor: int) -> list:
        """Whole cycles until ``seconds`` pass and ``floor`` are done.

        Returns ``(wall seconds, server CPU seconds)`` per cycle.
        """
        out = []
        start = time.perf_counter()
        while len(out) < floor or time.perf_counter() - start < seconds:
            cpu0 = server.cpu_s()
            first = len(self.records)
            for kind in KINDS:
                self.epoch(server, kind)
            out.append((sum(r["wall"] for r in self.records[first:]),
                        server.cpu_s() - cpu0))
        return out


def _pct(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure serve-churn; see run.py for the result layout."""
    recorder = None
    if trace:
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    graph_path = os.path.join(WORK, f"serve-churn-{seed}.npz")
    codes, weights = write_graph(seed, graph_path)
    stream = Stream(codes, weights, seed)
    servers = []
    try:
        if trace:
            return _traced(stream, seed, graph_path, recorder, servers,
                           (codes, weights))
        setup = []
        for i in range(LAUNCHES):
            servers.append(Server(graph_path, seed))
            setup.append(servers[-1].setup_s)
            if i < LAUNCHES - 1:
                servers[-1].shutdown()
        server = servers[-1]
        cycles = stream.cycles(server, seconds, MIN_CYCLES)
        peak_rss_mb = server.peak_rss_mb()
        server.shutdown()
    finally:
        for server in servers:
            server.kill()
    sim = sum(r["sim"] for r in stream.records[:3 * MIN_CYCLES])
    return {"attempted": stream.attempted, "failed": stream.failed,
            "errors": stream.errors,
            "metrics": {
                "setup_s": statistics.median(setup),
                "round_s": statistics.median(c[0] for c in cycles),
                "round_cpu_s": statistics.median(c[1] for c in cycles),
                "peak_rss_mb": peak_rss_mb,
                "sim_s": sim},
            "detail": _detail(stream, cycles)}


def _detail(stream: Stream, cycles) -> dict:
    """Serving figures printed (not gated) by every run."""
    out = {"cycles": len(cycles), "queries": len(stream.query_ms),
           "query_p50_ms": statistics.median(stream.query_ms),
           "query_p99_ms": _pct(stream.query_ms, 99),
           "serve_cpu_s": sum(c[1] for c in cycles)}
    for kind in KINDS:
        ms = [r["commit_ms"] for r in stream.records if r["kind"] == kind]
        out[f"commit_{kind}_p50_ms"] = statistics.median(ms)
        strategies = sorted({r["strategy"] for r in stream.records
                             if r["kind"] == kind})
        out[f"strategies_{kind}"] = ",".join(map(str, strategies))
    return out


def _traced(stream, seed, graph_path, recorder, servers, initial):
    """Untraced then traced pass over the same fixed cycles."""
    import layers

    generate_s = [s[2] - s[1] for s in recorder.spans
                  if s[0] == "graphgen.generate"]
    servers.append(Server(graph_path, seed))
    untraced = stream.cycles(servers[-1], 0, TRACE_CYCLES)
    servers[-1].shutdown()
    first_pass = stream
    stream = Stream(*initial, seed)
    spans_path = os.path.join(WORK, f"serve-churn-{seed}.spans.json")
    servers.append(Server(graph_path, seed, traced_out=spans_path))
    traced = stream.cycles(servers[-1], 0, TRACE_CYCLES)
    stats, _ = servers[-1].call("stats")
    stream._count(stats)
    servers[-1].shutdown()
    with open(spans_path) as fh:
        summary = json.load(fh)
    rounds = len(traced)
    metrics = layers.per_layer(summary, rounds)
    metrics["graphgen.generate_s"] = statistics.median(generate_s)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(c[0] for c in traced)
        / statistics.median(c[0] for c in untraced) - 1.0)
    metrics["serve.queue.wait_p50_ms"] = statistics.median(
        stream.queue_wait_ms)
    metrics["serve.queue.wait_p99_ms"] = _pct(stream.queue_wait_ms, 99)
    metrics["serve.queue.compute_p50_ms"] = statistics.median(
        stream.compute_ms)
    epochs = stats.get("result", {}).get("epochs", {})
    for rung in ("noop", "sparsified", "replay", "full"):
        metrics[f"serve.epochs.{rung}"] = epochs.get(rung, 0) / rounds
    replays = [r["replayed_from"] for r in stream.records
               if r["strategy"] == "replay"]
    metrics["serve.replay.rounds_saved"] = \
        sum(replays) / len(replays) if replays else 0.0
    detail = _detail(first_pass, untraced)
    for key in ("commit_grow_p50_ms", "commit_trim_p50_ms",
                "commit_cut_p50_ms", "query_p50_ms", "query_p99_ms"):
        metrics[f"serve.{key}"] = detail[key]
    errors = first_pass.errors + stream.errors + \
        layers.identity_errors(summary)
    sims = ([r["sim"] for r in first_pass.records],
            [r["sim"] for r in stream.records])
    if sims[0] != sims[1]:
        errors.append("traced simulated seconds differ from untraced")
    return {"attempted": first_pass.attempted + stream.attempted,
            "failed": first_pass.failed + stream.failed, "errors": errors,
            "metrics": metrics, "detail": detail}
