"""Benchmark-owned worker launcher: one ``disagg.TcpWorker`` per process.

    python3 perfbench/worker.py --role prefill|decode --trace 0|1

Builds the reference model, binds 127.0.0.1 on a free port and prints one
JSON line ``{"port": N}`` once it can accept.  On SIGTERM it stops and
prints one JSON line with its peak resident memory and, when traced, its
spans.  The handler looks ``disagg.serve_prefill`` / ``serve_decode`` up at
call time, so the tracer's rebinding reaches the worker side too.  Spans
are tagged with the connection index: connection 0 is the warm-up request.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys

import program
import spans as spanlib


def _stop(signum, frame):
    raise SystemExit(0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["prefill", "decode"], required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop)

    modules = program.load()
    model, disagg = modules["model"], modules["disagg"]
    tracer = spanlib.Tracer(f"{args.role}_worker")
    if args.trace:
        tracer.install(spanlib.Patcher(), modules)
    tracer.request = -1

    weights = model.init_model(program.model_config(modules))
    if args.role == "prefill":
        precision = model.Precision.NVFP4

        def handler(stream):
            tracer.request += 1
            disagg.serve_prefill(stream, weights, precision)
    else:
        precision = model.Precision.HIGH

        def handler(stream):
            tracer.request += 1
            disagg.serve_decode(stream, weights, precision)

    worker = disagg.TcpWorker("127.0.0.1", 0, handler)
    print(json.dumps({"port": worker.address[1]}), flush=True)
    try:
        worker.serve_forever()
    except SystemExit:
        pass
    finally:
        worker.close()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_rss_kb": peak_kb, "spans": tracer.spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
