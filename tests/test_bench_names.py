"""The names the benchmark under ``bench/`` looks up in ``verity``.

The benchmark finds its functions by name: ``Tracer.installed`` wraps every
name in ``bench/tracing.py``'s ``LAYERS`` with ``getattr``, and
``bench/run.py`` and ``bench/test_workloads.py`` import from ``verity``.  A
rename would break a benchmark run, so the names are pinned here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import verity

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# What bench/run.py and bench/test_workloads.py take from ``verity`` itself.
TOP_LEVEL = (
    "Not",
    "ResourceLimit",
    "ingest_corpus",
    "load_scenario",
    "oracle_classify",
    "oracle_entails",
    "oracle_satisfiable",
    "parse_formula",
    "parse_schema",
    "scan_misleading",
    "tally",
)


def _layers():
    """``LAYERS`` as written in ``bench/tracing.py``, read without running it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py assigns no LAYERS")


def test_every_traced_name_is_a_function_of_its_layer():
    layers = _layers()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"verity.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"verity.{layer}.{name}"


def test_verity_exports_what_the_benchmark_imports():
    for name in TOP_LEVEL:
        assert name in verity.__all__, name
        assert callable(getattr(verity, name)), name
