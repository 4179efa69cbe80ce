"""Launch ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json serve <repro serve arguments>

Wraps the timed functions (see tracing.py), starts recording when the
server starts listening -- loading the graph and the initial solve are
set-up, not stream -- and on exit writes the span summary to SPANS.json.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    import repro.serve
    from repro.cli import main as cli_main

    serve_tcp = repro.serve.serve_tcp

    async def traced_serve_tcp(*args, **kwargs):
        recorder.clear()
        return await serve_tcp(*args, **kwargs)

    # The CLI imports serve_tcp from the package when the command runs.
    repro.serve.serve_tcp = traced_serve_tcp
    code = cli_main(argv)
    with open(out, "w") as fh:
        json.dump(tracing.summarize(recorder.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
