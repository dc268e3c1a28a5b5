"""The benchmark's tracer (``perfbench/spans.py``) rebinds names in src by
owner: a module, or a class in one.  A missing module or class makes
``Tracer.install`` raise, so every traced benchmark run fails; a missing
function is skipped there.  This checks the owners from the src side."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_point_owner_resolves_in_src():
    spans = load_spans()
    modules = {}
    for owner, *_ in spans.TRACE_POINTS:
        module, _, cls = owner.partition(".")
        modules[module] = importlib.import_module(f"phasequant.{module}")
        if cls:
            assert inspect.isclass(getattr(modules[module], cls, None)), owner
    with spans.Patcher() as patcher:
        spans.Tracer("client").install(patcher, modules)
