"""Spans and counters recorded from outside the program.

Nothing under ``src/`` knows about tracing.  A ``Patcher`` rebinds a public
function at the name its caller looks it up (``phasequant.model.qgemm_rows``
is what ``model._linear`` calls, ``phasequant.engine.prefill`` is what
``engine.generate`` calls) and puts the original back afterwards, so an
untraced run executes exactly the program's own code.

A span is ``[name, start, end, parent, request, phase, proc, counts]``:
times from ``time.perf_counter`` (CLOCK_MONOTONIC, shared by all processes
on the machine), ``parent`` the index of the enclosing span in the same
process or None, ``request`` the request id (``"setup"`` for set-up work),
``phase`` one of prefill / decode / other, inherited from the enclosing span
unless the trace point names one, ``proc`` the process that recorded it and
``counts`` a dict of work counts computed from argument and result sizes.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, REQUEST, PHASE, PROC, COUNTS = range(8)


class Patcher:
    """Rebinds attributes and restores the originals in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """Collects spans of one process; one thread, so children never overlap."""

    def __init__(self, proc: str):
        self.proc = proc
        self.request = "setup"
        self.spans = []
        self._stack = []
        # span name -> stride; every stride-th call keeps (name, args, result)
        # in ``samples`` for checks that run after the request, outside spans
        self.sample_every = {}
        self.samples = []
        self._seen = defaultdict(int)

    def wrap(self, name, fn, phase=None, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        every = self.sample_every.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            ph = phase or (spans[parent][PHASE] if parent is not None else "other")
            span = [name, 0.0, 0.0, parent, self.request, ph, self.proc, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, kwargs, result)
            if every:
                self._seen[name] += 1
                if self._seen[name] % every == 1:
                    self.samples.append((name, args, result))
            return result

        return traced

    def install(self, patcher: Patcher, modules: dict):
        """Wrap every trace point that exists in ``modules``."""
        for owner_path, attr, name, phase, count in TRACE_POINTS:
            module, _, cls = owner_path.partition(".")
            owner = modules[module]
            if cls:
                owner = getattr(owner, cls)
            if attr in vars(owner):
                patcher.patch(
                    owner, attr,
                    lambda fn, n=name, p=phase, c=count: self.wrap(n, fn, p, c),
                )


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _elements(args, kwargs, result):
    return {"elements": int(np.size(args[0]))}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(args[0])[0])}


def _qgemm(args, kwargs, result):
    # Kernel work from tensor sizes: operands as packed 4-bit codes, one
    # 8-bit scale per 16 elements, float32 tensor scales, float32 output.
    m, k = args[0].codes.shape
    n = args[1].codes.shape[0]
    operand = (m + n) * (k // 2 + k // 16)
    return {"macs": m * n * k, "bytes": operand + 4 * m + 4 + 4 * m * n}


def _forward(precision_index):
    def count(args, kwargs, result):
        precision = _arg(args, kwargs, precision_index, "precision")
        out = {"nvfp4": int(precision.value == "nvfp4")}
        if precision_index == 2:
            out["tokens"] = len(_arg(args, kwargs, 1, "tokens"))
        return out
    return count


def _frame_written(args, kwargs, result):
    body = args[2] if len(args) > 2 else kwargs.get("body", b"")
    return {"bytes": 5 + len(body)}


def _frame_read(args, kwargs, result):
    ftype, body = result
    return {"bytes": 5 + len(body), "error_frames": int(ftype.name == "ERROR")}


def _blob(args, kwargs, result):
    return {"bytes": len(result)}


def _scored(args, kwargs, result):
    corpus = _arg(args, kwargs, 2, "corpus")
    return {"scored_tokens": sum(max(len(seq) - 1, 0) for seq in corpus)}


# (owner, attribute, span name, phase, counter).  The owner is where the
# caller looks the name up, so each public function is wrapped at every
# module that imported it.
TRACE_POINTS = (
    ("formats", "encode_fp4", "formats.encode_fp4", None, _elements),
    ("formats", "decode_fp4", "formats.decode_fp4", None, _elements),
    ("gemm", "decode_fp4", "formats.decode_fp4", None, _elements),
    ("formats", "encode_e4m3", "formats.e4m3", None, _elements),
    ("formats", "decode_e4m3", "formats.e4m3", None, _elements),
    ("gemm", "decode_e4m3", "formats.e4m3", None, _elements),
    ("model", "quantize_rows", "quantizer.quantize_rows", None, _rows),
    ("model", "quantize", "quantizer.quantize", None, None),
    ("model", "qgemm_rows", "gemm.qgemm_rows", None, _qgemm),
    ("model.ModelWeights", "shadow", "model.shadow", None, None),
    ("model", "forward_block", "model.forward_block", None, None),
    ("model", "init_model", "model.load", None, None),
    ("engine", "prefill", "model.prefill", "prefill", _forward(2)),
    ("disagg", "prefill", "model.prefill", "prefill", _forward(2)),
    ("analysis", "prefill", "model.prefill", "prefill", _forward(2)),
    ("engine", "decode_step", "model.decode_step", "decode", _forward(3)),
    ("analysis", "decode_step", "model.decode_step", "decode", _forward(3)),
    ("engine", "generate", "engine.generate", None, None),
    ("engine", "run_decode_loop", "engine.run_decode_loop", "decode", None),
    ("disagg", "run_decode_loop", "engine.run_decode_loop", "decode", None),
    ("engine", "decode_distribution", "engine.decode_distribution", None, None),
    ("engine", "render_trajectory", "engine.render_trajectory", None, None),
    ("disagg", "render_trajectory", "engine.render_trajectory", None, None),
    ("disagg", "connect_tcp", "disagg.connect_tcp", None, None),
    ("disagg.FrameStream", "write_frame", "disagg.write_frame", None, _frame_written),
    ("disagg.FrameStream", "read_frame", "disagg.read_frame", None, _frame_read),
    ("disagg", "serialize_kv", "disagg.serialize_kv", None, _blob),
    ("disagg", "deserialize_kv", "disagg.deserialize_kv", None, None),
    ("disagg.KvBlob", "to_cache", "disagg.to_cache", None, None),
    ("disagg", "serve_prefill", "disagg.serve_prefill", "prefill", None),
    ("disagg", "serve_decode", "disagg.serve_decode", "decode", None),
    ("disagg", "request_prefill", "disagg.request_prefill", "prefill", None),
    ("disagg", "request_decode", "disagg.request_decode", "decode", None),
    ("analysis", "perplexity", "analysis.perplexity", None, _scored),
)


def self_times(spans):
    """Duration of each span minus the time its direct children cover.

    Spans of one process are strictly nested, so the children of a span are
    disjoint and their summed durations are exactly the covered part.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class Profile:
    """Per-layer totals over a set of spans from one or more processes."""

    def __init__(self, spans_by_proc):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.shadow_calls = 0
        self.shadow_hits = 0
        self.client_read_s = 0.0
        self.forwards = []  # (nvfp4, quantize_rows calls, qgemm_rows calls)
        for spans in spans_by_proc:
            self._add(spans)

    def _add(self, spans):
        own = self_times(spans)
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[PARENT] is not None:
                children[s[PARENT]].append(i)
        for i, s in enumerate(spans):
            stage = "setup" if s[REQUEST] == "setup" else "timed"
            name = s[NAME]
            key = (stage, name)
            self.self_s[key] += own[i]
            self.self_s[(stage, name, s[PHASE])] += own[i]
            self.calls[key] += 1
            for c, v in (s[COUNTS] or {}).items():
                self.counts[(stage, name, c)] += v
            if stage != "timed":
                continue
            if name == "model.shadow":
                self.shadow_calls += 1
                self.shadow_hits += not any(
                    spans[c][NAME] == "quantizer.quantize" for c in children[i]
                )
            elif name == "disagg.read_frame" and s[PROC] == "client":
                self.client_read_s += s[END] - s[START]
            if name in ("model.prefill", "model.decode_step"):
                inner = _descendant_names(spans, children, i)
                self.forwards.append((
                    s[COUNTS]["nvfp4"],
                    inner.count("quantizer.quantize_rows"),
                    inner.count("gemm.qgemm_rows"),
                ))

    def total(self, name, stage="timed"):
        return self.self_s[(stage, name)]

    def phase(self, name, phase):
        return self.self_s[("timed", name, phase)]

    def n(self, name, stage="timed"):
        return self.calls[(stage, name)]

    def count(self, name, what):
        return self.counts[("timed", name, what)]

    def four_bit_calls(self):
        """Calls into the quantizer, the 4-bit GEMM and the grid codecs,
        set-up included."""
        prefixes = ("quantizer.", "gemm.", "formats.")
        return sum(v for (stage, name), v in self.calls.items()
                   if name.startswith(prefixes))


def _descendant_names(spans, children, root):
    out, todo = [], list(children[root])
    while todo:
        i = todo.pop()
        out.append(spans[i][NAME])
        todo.extend(children[i])
    return out
