"""Imports the program under test from this checkout's ``src/``.

The benchmark must measure the code beside it, never an installed copy, so
a checkout without ``src/phasequant`` is an error, not a fallback.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The README's reference width; one fixed model seed for every workload.
MODEL_CONFIG = dict(vocab_size=512, d_model=256, ffn_hidden=1024, n_layers=2,
                    n_heads=16, max_seq_len=1024, seed=20260517)

MODULES = ("formats", "quantizer", "gemm", "model", "engine", "disagg", "analysis")


class MissingProgram(RuntimeError):
    pass


def load() -> dict:
    """``{"model": phasequant.model, ...}`` for every module in MODULES."""
    package = SRC / "phasequant" / "__init__.py"
    if not package.is_file():
        raise MissingProgram(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"phasequant.{name}") for name in MODULES}
    where = Path(modules["model"].__file__).resolve()
    if SRC not in where.parents:
        raise MissingProgram(f"phasequant imported from {where}, not from {SRC}")
    return modules


def model_config(modules):
    return modules["model"].ModelConfig(**MODEL_CONFIG)
