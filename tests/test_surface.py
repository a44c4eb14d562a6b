"""The public surface: every exported name resolves, removed duplicates stay
removed, and the benchmark tracer's entry points exist on the library."""

import importlib
import importlib.util
from pathlib import Path

import otpath

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

REMOVED = (
    "residual",
    "residual_jacobian",
    "residual_dt",
    "initial_state",
    "softmax_weights",
    "integrate_vector",
    "ode_rhs",
    "cell_measures",
    "smoothed_cell_field",
    "label_field",
    "cells_1d",
    "LaguerreDiagram1D",
    "integrate",
)


def _entry_points():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.ENTRY_POINTS


def test_exports_resolve():
    assert len(otpath.__all__) == len(set(otpath.__all__))
    for name in otpath.__all__:
        assert getattr(otpath, name, None) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in otpath.__all__
        assert not hasattr(otpath, name), name


def test_bench_entry_points_resolve():
    entries = _entry_points()
    assert entries
    for module_name, path, span_name, _ in entries:
        owner = importlib.import_module(f"otpath.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span_name}: otpath.{module_name}.{path}"
        assert callable(owner), span_name
