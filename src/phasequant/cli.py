"""Command-line surface for every workflow.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
runtime failure, 2 usage error.  Commands that draw randomness require an
explicit ``--seed``; nothing is seeded implicitly.
"""

from __future__ import annotations

import argparse
import sys


from . import analysis, disagg, formats, selftest
from .engine import (
    ExecutionMode,
    SamplerSpec,
    generate,
    render_trajectory,
)
from .model import (
    ModelConfig,
    Precision,
    init_model,
    load_model,
    save_model,
)


def _comma_ints(text: str) -> list:
    """Comma-separated integers; empty entries are skipped.  Raises
    ValueError otherwise."""
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ValueError(
            f"{text!r} is not a comma-separated list of integers") from None


def _int_list(text: str) -> list:
    """argparse type: ``_comma_ints`` as a usage error."""
    try:
        return _comma_ints(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _host_port(text: str) -> tuple:
    """argparse type: ``HOST:PORT`` (or a bare ``PORT``) with the port in
    0..65535; an empty host is 127.0.0.1."""
    host, _, port = text.rpartition(":")
    try:
        number = int(port)
    except ValueError:
        number = -1
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not HOST:PORT with a port in 0-65535")
    return host or "127.0.0.1", number


def _add_sampler_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-new", type=int, default=16)
    strategy = p.add_mutually_exclusive_group()
    strategy.add_argument("--greedy", action="store_true",
                          help="greedy decoding (default)")
    strategy.add_argument("--temperature", type=float, default=None,
                          help="temperature sampling; needs --seed")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--stop-token", type=int, default=None)


def _worker_flags(p: argparse.ArgumentParser, default_precision: str):
    p.add_argument("--model", required=True)
    p.add_argument("--precision", choices=[prec.value for prec in Precision],
                   default=default_precision)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--listen", type=_host_port, metavar="HOST:PORT")
    group.add_argument("--blob-dir", metavar="PATH")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasequant",
        description="Phase-aware 4-bit quantized inference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-model", help="create a seeded model weight file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vocab-size", type=int, default=256)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--ffn-hidden", type=int, default=0)
    p.add_argument("--max-seq-len", type=int, default=256)
    p.add_argument("--rope-base", type=float, default=10000.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="generate from a prompt under a mode")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--prompt-tokens", type=_int_list, required=True)
    _add_sampler_flags(p)

    p = sub.add_parser(
        "compare-modes",
        help="run every mode on one prompt and report each one's divergence "
             "from baseline16",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--prompt-tokens", type=_int_list, required=True)
    p.add_argument("--max-new", type=int, default=16)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze-attn", help="top-k attention mass report")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", default="baseline16")
    p.add_argument("--prompt-tokens", type=_int_list, required=True)
    p.add_argument("--k", type=_int_list, default="1,2,4,8")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cost", help="analytic compute model for a config")
    p.add_argument("--d-model", type=int, required=True)
    p.add_argument("--ffn-hidden", type=int, required=True)
    p.add_argument("--n-layers", type=int, default=1)
    p.add_argument("--prompt-len", type=int, required=True)
    p.add_argument("--gen-len", type=int, default=1)
    p.add_argument("--mode", required=True)
    p.add_argument("--throughput-ratio", type=float, default=1.0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("perplexity", help="teacher-forced perplexity of a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--corpus", required=True,
                   help="file with one comma-separated token sequence per line")

    p = sub.add_parser("prefill-worker", help="serve prompt passes")
    _worker_flags(p, default_precision="nvfp4")

    p = sub.add_parser("decode-worker", help="serve decode requests")
    _worker_flags(p, default_precision="high")

    sub.add_parser("dump-formats", help="print the 4-bit and 8-bit grid tables")

    sub.add_parser("selftest", help="run the oracle-backed self checks")

    return parser


def _cmd_init_model(args) -> int:
    cfg = ModelConfig(
        vocab_size=args.vocab_size,
        d_model=args.d_model,
        n_layers=args.n_layers,
        n_heads=args.n_heads,
        ffn_hidden=args.ffn_hidden,
        max_seq_len=args.max_seq_len,
        rope_base=args.rope_base,
        seed=args.seed,
    )
    # packs the config block, so a size its u32 field cannot hold is
    # refused before any weight is made
    digest = cfg.digest()
    save_model(init_model(cfg), args.out)
    print(f"digest={digest:016x}", file=sys.stderr)
    return 0


def _emit(report, args):
    """Write ``report`` to stdout: one JSON line with ``--json``, else its
    ``key=value`` text."""
    if args.json:
        sys.stdout.write(analysis.dump_json(report) + "\n")
    else:
        sys.stdout.write(report.render())


def _cmd_generate(args) -> int:
    weights = load_model(args.model)
    mode = ExecutionMode.from_name(args.mode)
    sampler = SamplerSpec(
        strategy="greedy" if args.temperature is None else "temperature",
        temperature=args.temperature,
        seed=args.seed,
        max_new_tokens=args.max_new,
        stop_token=args.stop_token,
    )
    traj = generate(weights, args.prompt_tokens, mode, sampler)
    sys.stdout.write(render_trajectory(traj))
    return 0


def _cmd_compare_modes(args) -> int:
    weights = load_model(args.model)
    sampler = SamplerSpec(max_new_tokens=args.max_new)
    # BASELINE16 is the first mode: the reference of every other
    ref, *others = (generate(weights, args.prompt_tokens, mode, sampler)
                    for mode in ExecutionMode)
    for traj in others:
        _emit(analysis.compare_trajectories(ref, traj), args)
    return 0


def _cmd_analyze_attn(args) -> int:
    weights = load_model(args.model)
    rows = analysis.record_attention(
        weights, args.prompt_tokens, ExecutionMode.from_name(args.mode),
    )
    _emit(analysis.topk_mass(rows, args.k), args)
    return 0


def _cmd_cost(args) -> int:
    # The cost model reads neither the vocabulary nor the head count; heads
    # of 16 fit every width the config accepts.
    cfg = ModelConfig(
        vocab_size=1,
        d_model=args.d_model,
        n_layers=args.n_layers,
        n_heads=max(args.d_model // 16, 1),
        ffn_hidden=args.ffn_hidden,
        max_seq_len=max(args.prompt_len + args.gen_len, 1),
        seed=0,
    )
    _emit(analysis.cost_model(
        cfg, args.prompt_len, args.gen_len,
        ExecutionMode.from_name(args.mode), args.throughput_ratio,
    ), args)
    return 0


def _cmd_perplexity(args) -> int:
    weights = load_model(args.model)
    with open(args.corpus) as fh:
        corpus = [seq for seq in map(_comma_ints, fh) if seq]
    value = analysis.perplexity(
        weights, ExecutionMode.from_name(args.mode), corpus
    )
    print(f"perplexity={value!r}")
    return 0


def _run_worker(args, serve) -> int:
    weights = load_model(args.model)
    precision = Precision(args.precision)

    def handler(stream):
        serve(stream, weights, precision)

    if args.blob_dir:
        disagg.serve_blob_dir(args.blob_dir, handler)
        return 0
    worker = disagg.TcpWorker(*args.listen, handler)
    print(f"listening {worker.address[0]}:{worker.address[1]}", file=sys.stderr)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        worker.close()
    return 0


def _cmd_dump_formats(_args) -> int:
    sys.stdout.write(formats.format_tables())
    return 0


def _cmd_selftest(_args) -> int:
    return selftest.run_selftest(sys.stdout)


_COMMANDS = {
    "init-model": _cmd_init_model,
    "generate": _cmd_generate,
    "compare-modes": _cmd_compare_modes,
    "analyze-attn": _cmd_analyze_attn,
    "cost": _cmd_cost,
    "perplexity": _cmd_perplexity,
    "prefill-worker": lambda a: _run_worker(a, disagg.serve_prefill),
    "decode-worker": lambda a: _run_worker(a, disagg.serve_decode),
    "dump-formats": _cmd_dump_formats,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "temperature", None) is not None and args.seed is None:
        parser.error("--temperature requires --seed")
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
