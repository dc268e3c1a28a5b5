"""phasequant benchmark: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics with nothing wrapped except
the phase clock of the in-process generate workloads (one timestamp when
the prompt pass returns).  Set-up runs ``SETUPS`` times and ``setup_s`` is
their median; the last set-up serves the timed phase, which sends one
request at a time until ``--seconds`` have passed.  Outputs are checked
after the timed phase.  Times and rates are scaled to the machine's nominal
speed, measured by ``reference.py`` between requests.

``--trace 1`` runs a fixed number of requests twice each, untraced and
traced in alternating order, with every public function of every module
wrapped from outside (see ``spans.py``), and reports per-layer counts and
self times split by phase.  Spans go to ``perfbench/out/`` when it ends.

The last stdout line is the JSON result; the line before it is a JSON
report with the environment, sample counts, tail percentiles and flags.
``--workload all`` runs each workload in a process of its own, so that
each peak RSS is that workload's own, and prints their results combined.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in the client and, by inheritance, in the workers: on a
# few shared cores a second thread per GEMM makes each run's medians swing
# with the neighbours' load.  All processes must use one count, because
# float32 GEMM bits depend on how the work is split.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import program
import reference
import spans as spanlib
import workloads as wl

SETUPS = 3
DEFAULT_SEED = 1
DIGEST_REQUESTS = 4  # dumps covered by the per-workload digest
SAMPLE_EVERY = 13  # checked call stride; coprime to the 14 linears per forward
COST_MODEL_THROUGHPUT_RATIO = 3.0  # 4-bit MACs per high-precision MAC, modeled
HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# environment

def _openblas_threads():
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# statistics

def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    no percentile qualifies and the maximum stands in, at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def digest(outputs):
    if len(outputs) < DIGEST_REQUESTS:
        return None
    return hashlib.sha256("\n--\n".join(outputs[:DIGEST_REQUESTS]).encode()).hexdigest()


def recorded_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload)


# ---------------------------------------------------------------------------
# end-to-end run

def _attempt(run, req, failures):
    try:
        return run(req)
    except Exception as exc:  # a failed request is counted, the run goes on
        failures.append(f"request {req.index}: {type(exc).__name__}: {exc}")
        return None


def end_to_end(m, spec, seed, seconds):
    setups, results, failures = [], [], []
    for i in range(SETUPS):
        client = wl.client(m, spec)
        start = time.perf_counter()
        try:
            client.setup()
        except BaseException:
            client.close()
            raise
        setups.append(time.perf_counter() - start)
        if i < SETUPS - 1:
            client.close()
    try:
        gen = wl.requests(spec, seed)
        start = time.perf_counter()
        attempted, ref_s = 0, []
        # Whole blocks only, so every run times the same mix of lengths.
        while attempted == 0 or time.perf_counter() - start < seconds:
            for _ in range(wl.STRATA):
                ref_s.append(reference.seconds())
                r = _attempt(client.run, next(gen), failures)
                attempted += 1
                if r is not None:
                    results.append(r)
        wall = time.perf_counter() - start - sum(ref_s)
        client_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        client.close()
    failures += [problem for _, problem in client.check(results)]
    if not results:
        raise RuntimeError(f"no request completed: {failures[:3]}")

    ttft = [r.first_s * 1e3 for r in results]
    tpot = [r.tpot_s * 1e3 for r in results]
    latency = [r.request_s * 1e3 for r in results]
    metrics, tails = {}, {}
    metrics["setup_s"] = (statistics.median(setups), "s")
    for name, values in (("ttft", ttft), ("tpot", tpot), ("request", latency)):
        value, pct, n = tail(values)
        metrics[f"{name}_p50_ms"] = (statistics.median(values), "ms")
        metrics[f"{name}_tail_ms"] = (value, "ms")
        tails[f"{name}_tail_ms"] = {"percentile": pct, "samples": n}
    metrics["prompt_tokens_per_s"] = (
        sum(len(r.request.prompt) for r in results) / sum(r.first_s for r in results), "tok/s")
    metrics["output_tokens_per_s"] = (sum(r.produced for r in results) / wall, "tok/s")

    # At the machine's nominal speed: times divided, rates multiplied.
    slowdown = reference.slowdown(ref_s)
    measured = {k: v for k, (v, _) in metrics.items()}
    metrics = {k: (v * slowdown if u == "tok/s" else v / slowdown, u)
               for k, (v, u) in metrics.items()}
    metrics["peak_rss_mb"] = ((client_kb + client.peak_rss_kb) / 1024.0, "MB")

    outputs = [r.output for r in results]
    report = {
        "machine_slowdown": slowdown,
        "reference_median_s": statistics.median(ref_s),
        "measured_at_machine_speed": measured,
        "setup_runs_s": setups,
        "timed_wall_s": wall,
        "failed_share": len(failures) / attempted,
        "failures": failures[:5],
        "tails": tails,
        "dump_digest": digest(outputs),
    }
    return metrics, attempted, len(failures), report


# ---------------------------------------------------------------------------
# traced run

def check_samples(m, samples):
    """Bitwise contracts on sampled kernel calls, run outside every span:
    ``qgemm_rows`` rows against row-wise ``qgemm_mirror``, and each
    ``quantize_rows`` row against ``quantize`` of that row alone."""
    quantizer, gemm = m["quantizer"], m["gemm"]
    failures = []
    for name, args, result in samples:
        if name == "gemm.qgemm_rows":
            act, w = args[0], args[1]
            rows = act.codes.shape[0]
            for r in sorted({0, rows // 2, rows - 1}):
                ref = gemm.qgemm_mirror(act.row(r), w)
                if ref[0].tobytes() != result[r].tobytes():
                    failures.append(f"qgemm_rows row {r} differs from qgemm_mirror")
        else:
            x = args[0]
            cfg = args[1] if len(args) > 1 else quantizer.QuantConfig()
            for r in range(x.shape[0]):
                one, got = quantizer.quantize(x[r:r + 1], cfg), result.row(r)
                if (one.codes.tobytes() != got.codes.tobytes()
                        or one.block_scales.tobytes() != got.block_scales.tobytes()
                        or one.tensor_scale.tobytes() != got.tensor_scale.tobytes()):
                    failures.append(f"quantize_rows row {r} differs from quantize")
    return failures


def traced(m, spec, seed, seconds):
    n = max(2, round(seconds * spec.traced_per_s))
    tracer = spanlib.Tracer("client")
    tracer.sample_every = {"gemm.qgemm_rows": SAMPLE_EVERY,
                           "quantizer.quantize_rows": SAMPLE_EVERY}
    failures, pairs, high_s = [], [], []
    bad = set()  # (request index, traced) of every run that failed
    plain = wl.client(m, spec)
    with_trace = plain if spec.kind != "disagg" else wl.client(m, spec, trace=True)
    replay = spec.name == "long_prompt_mixquant"
    try:
        if with_trace is not plain:
            plain.setup()
        with spanlib.Patcher() as p:
            tracer.install(p, m)
            with_trace.setup()
        gen = wl.requests(spec, seed)
        for i in range(n):
            req = next(gen)
            pair = {}
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not is_traced:
                    pair[False] = _attempt(plain.run, req, failures)
                    if replay:  # the float32 replay, timed beside its nvfp4 run
                        start = time.perf_counter()
                        m["model"].prefill(plain.weights, req.prompt, m["model"].Precision.HIGH)
                        replay_s = time.perf_counter() - start
                    continue
                tracer.request = i
                with spanlib.Patcher() as p:
                    tracer.install(p, m)
                    pair[True] = _attempt(with_trace.run, req, failures)
                problems = check_samples(m, tracer.samples)
                tracer.samples.clear()
                if problems:
                    failures += problems
                    bad.add((i, True))
            bad.update((i, flag) for flag, r in pair.items() if r is None)
            if None not in pair.values():
                if pair[True].output != pair[False].output:
                    failures.append(f"request {i}: traced output differs")
                    bad.add((i, True))
                pairs.append(pair)
                if replay:
                    high_s.append(replay_s)
    finally:
        plain.close()
        worker_spans = with_trace.close() if with_trace is not plain else []
    for flag in (False, True):
        for r, problem in plain.check([p[flag] for p in pairs]):
            failures.append(problem)
            bad.add((r.request.index, flag))
    if not pairs:
        raise RuntimeError(f"no request completed: {failures[:3]}")

    all_spans = [tracer.spans] + worker_spans
    profile = spanlib.Profile(all_spans)
    metrics = layer_metrics(profile)
    untraced_ms = statistics.median(p[False].request_s for p in pairs) * 1e3
    traced_ms = statistics.median(p[True].request_s for p in pairs) * 1e3
    # Per request, so the machine's slow phases cancel within each pair.
    metrics["trace.request_p50_overhead_ms"] = (
        statistics.median(p[True].request_s - p[False].request_s for p in pairs) * 1e3, "ms")
    cost = None
    if high_s:
        nvfp4_s = [p[False].first_s for p in pairs]
        metrics["model.prefill.nvfp4_to_high"] = (sum(nvfp4_s) / sum(high_s), "ratio")
        mean_len = round(statistics.mean(len(p[False].request.prompt) for p in pairs))
        cost = m["analysis"].cost_model(
            program.model_config(m), mean_len, spec.new_tokens,
            m["engine"].ExecutionMode.from_name(spec.mode), COST_MODEL_THROUGHPUT_RATIO)
        metrics["analysis.cost_model.modeled_prefill_speedup"] = (
            cost.modeled_prefill_speedup, "ratio")
        cost = {**cost.to_dict(), "prompt_len": mean_len}

    qgemm_calls = max(profile.n("gemm.qgemm_rows"), 1)
    codec_calls = {c: max(profile.n(f"formats.{c}"), 1) for c in ("encode_fp4", "decode_fp4")}
    report = {
        "traced_requests": len(pairs),
        "failed_share": len(bad) / (2 * n),
        "failures": failures[:5],
        "untraced_request_p50_ms": untraced_ms,
        "traced_request_p50_ms": traced_ms,
        "predictions": predictions(spec, profile),
        "kernel_counts_from_tensor_sizes": {
            "qgemm_rows_macs_per_call": profile.count("gemm.qgemm_rows", "macs") / qgemm_calls,
            "qgemm_rows_bytes_per_call": profile.count("gemm.qgemm_rows", "bytes") / qgemm_calls,
            "encode_fp4_elements_per_call":
                profile.count("formats.encode_fp4", "elements") / codec_calls["encode_fp4"],
            "decode_fp4_elements_per_call":
                profile.count("formats.decode_fp4", "elements") / codec_calls["decode_fp4"],
        },
        "cost_model": cost,
        "dump_digest": digest([p[False].output for p in pairs]),
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{spec.name}-seed{seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request", "phase",
                              "proc", "counts"], "spans": all_spans}, fh)
    return metrics, 2 * n, len(bad), report


def predictions(spec, p):
    """The exact counts the trace can be held to."""
    per_forward = 7 * program.MODEL_CONFIG["n_layers"]
    nvfp4 = [(q, g) for is_nvfp4, q, g in p.forwards if is_nvfp4]
    high = [(q, g) for is_nvfp4, q, g in p.forwards if not is_nvfp4]
    out = {
        "nvfp4_forwards": len(nvfp4),
        "nvfp4_forwards_with_14_quantize_rows_and_14_qgemm_rows":
            sum(q == per_forward and g == per_forward for q, g in nvfp4),
        "high_forwards": len(high),
        "high_forwards_with_no_4bit_call": sum(q == 0 and g == 0 for q, g in high),
        "four_bit_calls": p.four_bit_calls(),
        "shadow_hit_ratio": p.shadow_hits / p.shadow_calls if p.shadow_calls else None,
    }
    out["hold"] = (
        out["nvfp4_forwards"] == out["nvfp4_forwards_with_14_quantize_rows_and_14_qgemm_rows"]
        and out["high_forwards"] == out["high_forwards_with_no_4bit_call"]
        and (out["four_bit_calls"] == 0 if spec.mode == "baseline16"
             else out["shadow_hit_ratio"] == 1.0)
    )
    return out


PHASED = ("formats.encode_fp4", "formats.decode_fp4", "quantizer.quantize_rows",
          "gemm.qgemm_rows", "model.forward_block")


def layer_metrics(p):
    out = {}
    for name in PHASED:
        for phase in ("prefill", "decode"):
            out[f"{name}.{phase}.self_s"] = (p.phase(name, phase), "s")
    scored = p.count("analysis.perplexity", "scored_tokens")
    setup_and_timed = ("setup", "timed")
    out.update({
        "formats.encode_fp4.elements": (p.count("formats.encode_fp4", "elements"), "count"),
        "formats.decode_fp4.elements": (p.count("formats.decode_fp4", "elements"), "count"),
        "formats.e4m3.self_s": (p.total("formats.e4m3"), "s"),
        "quantizer.quantize_rows.calls": (p.n("quantizer.quantize_rows"), "count"),
        "quantizer.quantize_rows.rows": (p.count("quantizer.quantize_rows", "rows"), "count"),
        "quantizer.quantize.calls":
            (sum(p.n("quantizer.quantize", s) for s in setup_and_timed), "count"),
        "quantizer.quantize.self_s":
            (sum(p.total("quantizer.quantize", s) for s in setup_and_timed), "s"),
        "gemm.qgemm_rows.calls": (p.n("gemm.qgemm_rows"), "count"),
        "gemm.qgemm_rows.macs": (p.count("gemm.qgemm_rows", "macs"), "count"),
        "gemm.qgemm_rows.bytes_computed": (p.count("gemm.qgemm_rows", "bytes"), "B"),
        "model.prefill.calls": (p.n("model.prefill"), "count"),
        "model.prefill.tokens": (p.count("model.prefill", "tokens"), "count"),
        "model.prefill.self_s": (p.total("model.prefill"), "s"),
        "model.decode_step.calls": (p.n("model.decode_step"), "count"),
        "model.decode_step.self_s": (p.total("model.decode_step"), "s"),
        "model.shadow.hit_ratio":
            (p.shadow_hits / p.shadow_calls if p.shadow_calls else 0.0, "ratio"),
        "model.prefill.nvfp4_to_high": (0.0, "ratio"),
        "model.load.self_s": (p.total("model.load", "setup"), "s"),
        "engine.generate.calls": (p.n("engine.generate"), "count"),
        "engine.run_decode_loop.self_s": (p.total("engine.run_decode_loop"), "s"),
        "engine.decode_distribution.calls": (p.n("engine.decode_distribution"), "count"),
        "engine.decode_distribution.self_s": (p.total("engine.decode_distribution"), "s"),
        "engine.render_trajectory.self_s": (p.total("engine.render_trajectory"), "s"),
        "disagg.connect_tcp.self_s": (p.total("disagg.connect_tcp"), "s"),
        "disagg.write_frame.bytes": (p.count("disagg.write_frame", "bytes"), "B"),
        "disagg.write_frame.self_s": (p.total("disagg.write_frame"), "s"),
        "disagg.read_frame.bytes": (p.count("disagg.read_frame", "bytes"), "B"),
        "disagg.read_frame.wait_s": (p.client_read_s, "s"),
        "disagg.serialize_kv.self_s": (p.total("disagg.serialize_kv"), "s"),
        "disagg.serialize_kv.bytes": (p.count("disagg.serialize_kv", "bytes"), "B"),
        "disagg.deserialize_kv.self_s": (p.total("disagg.deserialize_kv"), "s"),
        "disagg.to_cache.self_s": (p.total("disagg.to_cache"), "s"),
        "disagg.serve_prefill.self_s": (p.total("disagg.serve_prefill"), "s"),
        "disagg.serve_decode.self_s": (p.total("disagg.serve_decode"), "s"),
        "disagg.error_frames": (p.count("disagg.read_frame", "error_frames"), "count"),
        "analysis.perplexity.self_s": (p.total("analysis.perplexity"), "s"),
        "analysis.perplexity.scored_tokens": (scored, "count"),
        "analysis.perplexity.prefill_tokens_per_scored":
            (p.count("model.prefill", "tokens") / scored if scored else 0.0, "ratio"),
        "analysis.cost_model.modeled_prefill_speedup": (0.0, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# entry point

def run_workload(m, name, seed, seconds, trace):
    spec = wl.WORKLOADS[name]
    load_start = loadavg()
    run = traced if trace else end_to_end
    metrics, attempted, failed, report = run(m, spec, seed, seconds)
    recorded = recorded_digest(name, seed)
    report.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "load_shape": "closed loop, one client, one request in flight",
        "environment": environment(),
        "loadavg_start": load_start, "loadavg_end": loadavg(),
        "dump_digest_recorded": recorded,
        "dump_digest_matches": None if recorded is None or report["dump_digest"] is None
        else report["dump_digest"] == recorded,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def run_all(args) -> int:
    """Each workload in a fresh process; their results combined."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One CPU for the client and, by inheritance, the workers.  Only one of
    # them computes at a time, and the speed of each CPU of a shared host
    # swings on its own, so the reference must run on the CPU it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        m = program.load()
    except (program.MissingProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    result, report = run_workload(m, args.workload, args.seed, args.seconds, args.trace)
    for metric, entry in result["metrics"].items():
        print(f"workload={args.workload} metric={metric} value={entry['value']!r} "
              f"unit={entry['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
