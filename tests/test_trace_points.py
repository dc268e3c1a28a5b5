"""The benchmark's tracer (``perfbench/spans.py``) rebinds names in src by
owner: a module, or a class in one.  A missing module or class makes
``Tracer.install`` raise, so every traced benchmark run fails; a missing
function is skipped there.  This checks the owners from the src side, pins
the trace points that resolve, and checks every other src name the
benchmark scripts read."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_owner_resolves_in_src():
    spans = load_perfbench("spans")
    modules = {}
    for owner, *_ in spans.TRACE_POINTS:
        module, _, cls = owner.partition(".")
        modules[module] = importlib.import_module(f"phasequant.{module}")
        if cls:
            assert inspect.isclass(getattr(modules[module], cls, None)), owner
    with spans.Patcher() as patcher:
        spans.Tracer("client").install(patcher, modules)


# Every trace point that resolves in src, by (owner, attribute).  The
# tracer skips one whose function is gone, and its metric with it, so a
# name dropped from src must be dropped here too, on purpose.
LIVE_TRACE_POINTS = {
    ("formats", "encode_fp4"), ("formats", "decode_fp4"),
    ("formats", "encode_e4m3"), ("formats", "decode_e4m3"),
    ("model", "quantize_rows"), ("model", "quantize"),
    ("model", "qgemm_rows"), ("model.ModelWeights", "shadow"),
    ("model", "forward_block"), ("model", "init_model"),
    ("engine", "prefill"), ("disagg", "prefill"), ("analysis", "prefill"),
    ("engine", "decode_step"), ("engine", "generate"),
    ("engine", "run_decode_loop"), ("disagg", "run_decode_loop"),
    ("engine", "decode_distribution"), ("engine", "render_trajectory"),
    ("disagg", "render_trajectory"), ("disagg", "connect_tcp"),
    ("disagg.FrameStream", "write_frame"), ("disagg.FrameStream", "read_frame"),
    ("disagg", "serialize_kv"), ("disagg", "deserialize_kv"),
    ("disagg.KvBlob", "to_cache"), ("disagg", "serve_prefill"),
    ("disagg", "serve_decode"), ("disagg", "request_prefill"),
    ("disagg", "request_decode"), ("analysis", "perplexity"),
}


def test_live_trace_points_are_pinned():
    # resolved as ``Tracer.install`` does: the attribute in the owner's vars
    live = set()
    for owner_path, attr, *_ in load_perfbench("spans").TRACE_POINTS:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"phasequant.{module}")
        if cls:
            owner = getattr(owner, cls)
        if attr in vars(owner):
            live.add((owner_path, attr))
    assert live == LIVE_TRACE_POINTS


def src_names_read(tree, modules) -> set:
    """``module.attr[.attr ...]`` of every src name a benchmark script
    reads: an attribute chain on a module taken from the module table
    (``m["engine"].generate``) or on a name bound to one in the same
    function (``quantizer, gemm = m["quantizer"], m["gemm"]``), and a name
    handed to ``patch`` as a string."""

    def table_module(node):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and node.slice.value in modules):
            return node.slice.value
        return None

    names = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple)
                         else zip(target.elts, getattr(node.value, "elts", ())))
                for name, value in pairs:
                    if isinstance(name, ast.Name) and table_module(value):
                        bound[name.id] = table_module(value)

        def module_of(node):
            if isinstance(node, ast.Name):
                return bound.get(node.id)
            return table_module(node)

        inner = {id(node.value) for node in ast.walk(scope)
                 if isinstance(node, ast.Attribute)}
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.insert(0, node.attr)
                    node = node.value
                if module_of(node):
                    names.add(".".join([module_of(node), *chain]))
            elif (isinstance(node, ast.Call) and len(node.args) >= 2
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "patch"
                  and module_of(node.args[0])
                  and isinstance(node.args[1], ast.Constant)):
                names.add(f"{module_of(node.args[0])}.{node.args[1].value}")
    return names


def test_every_src_name_the_benchmark_reads_resolves():
    modules = load_perfbench("program").MODULES
    names = set()
    for script in ("run.py", "workloads.py", "worker.py"):
        names |= src_names_read(ast.parse((PERFBENCH / script).read_text()),
                                modules)
    # one name per way of reading one, so the collector sees each
    assert {"engine.parse_trajectory_dump", "quantizer.QuantConfig",
            "disagg.serve_decode", "engine.prefill"} <= names
    for name in sorted(names):
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"phasequant.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
