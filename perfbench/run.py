"""Host benchmark of the MST reproduction: batch solves and serving churn.

Run from the root of a checkout (the directory holding ``src/repro`` and
``BENCHMARK.json``)::

    python3 perfbench/run.py --workload rmat-filter --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steady 10 --seconds 20 [--workload grid-boruvka]
    python3 perfbench/run.py --self-test

A measuring run prints detail lines, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` its
``per_layer`` metrics.  ``--steady N`` runs each workload N times (each
in a fresh process, seeds 1..N) and compares every end-to-end metric's
quartile spread with its bound.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def hermetic_env() -> list:
    """Drop every ``REPRO_*`` setting; returns the names dropped.

    Every run uses the program's defaults, whatever the caller's shell
    exports, and the program's inputs come from the seed alone (never
    from ``benchmarks/results/cache``).
    """
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return dropped


def load_spec() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def measure(args, spec) -> dict:
    """One measuring run of one workload; returns the result line."""
    if args.workload == "serve-churn":
        import serve_churn as workload
    else:
        import batch as workload
    out = workload.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    import selftest  # after the run: its scipy import is not the program's

    errors = [f"self-test: {e}" for e in selftest.failures()]
    errors += out["errors"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(out["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(out["metrics"]))
        extra = sorted(set(out["metrics"]) - set(names))
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"extra {extra}")
    for key, value in sorted(out["detail"].items()):
        print(f"{key:>28}: {value}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    return {"correct": not errors, "attempted": int(out["attempted"]),
            "failed": int(out["failed"]),
            "metrics": {m["name"]: {"value": float(out["metrics"][m["name"]]),
                                    "unit": m["unit"]} for m in wanted}}


def steady(args, spec) -> int:
    """Run each workload N times; report quartile spreads against bounds."""
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(1, args.steady + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            runs[-1]["detail"] = _numeric_detail(lines[:-1])
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"failed shares={sorted(shares)}")
        print(f"{'metric':>14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else (
                "wide" if spread <= bound else "OVER")
            if name != "setup_s" and spread > bound:
                ok = False
            print(f"{name:>14} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(values):12.6g} {max(values):12.6g} "
                  f"{spread:8.4f} {bound:6.3f} {verdict}")
        for name in sorted(runs[0]["detail"]):
            values = [r["detail"][name] for r in runs]
            print(f"{name:>22} median {statistics.median(values):12.6g} "
                  f"min {min(values):12.6g} max {max(values):12.6g} "
                  f"(printed, not gated)")
        ok = ok and correct and len(shares) == 1
    return 0 if ok else 1


def _numeric_detail(lines) -> dict:
    """The numeric ``name: value`` detail lines of one run's output."""
    out = {}
    for line in lines:
        name, _, value = line.partition(": ")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            pass
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))
            and os.path.isfile(BENCHMARK)):
        print(f"perfbench: run from a checkout root holding src/repro and "
              f"BENCHMARK.json (cwd is {ROOT})", file=sys.stderr)
        return 2
    dropped = hermetic_env()
    spec = load_spec()
    if args.self_test:
        import selftest

        failures = selftest.failures()
        print("\n".join(failures) or "self-tests passed")
        return 1 if failures else 0
    if args.steady:
        return steady(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of "
                     f"{[w['name'] for w in spec['workloads']]}")
    print(f"{'settings':>28}: program defaults; REPRO_* cleared: "
          f"{dropped or 'none set'}")
    result = measure(args, spec)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
