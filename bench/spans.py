"""In-memory span tracing around the public entry points of the otpath modules.

A span is one call of a wrapped function: ``[id, parent_id, name, start, end,
attrs, failed]``.  Ids grow in start order, so a parent's id is always smaller
than its children's.  Wrapping happens from outside the library: `instrument`
replaces every attribute of every loaded ``otpath`` module that *is* one of the
wrapped functions (so names a module imported into its own namespace, such as
``homotopy.solve_dual_system`` or ``residuals.power_cell_measures``, are caught
too) and restores the originals on exit.  No file under ``src/`` changes.

`layer_metrics` turns the spans of one traced repetition into the per-layer
table.  Times are inclusive unless the name says ``self``; self time is a
span's duration minus the time its direct children cover (calls are
single-threaded, so children never overlap).
"""

import contextlib
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Collects spans in memory; `write` dumps them when the benchmark ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = self._open(name)
        try:
            yield attrs
        except BaseException:
            record[6] = True
            raise
        finally:
            self._close(record, attrs or None)

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        record = [len(self.spans), parent, name, time.perf_counter(), 0.0, None, False]
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _close(self, record, attrs):
        record[4] = time.perf_counter()
        record[5] = attrs
        self._stack.pop()

    def wrap(self, name, fn, measure=None):
        """`fn` recording one span per call; `measure(args, kwargs, result)`
        returns the span's work attributes."""

        def traced(*args, **kwargs):
            record = self._open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    attrs = measure(args, kwargs, result)
                return result
            except BaseException:
                record[6] = True
                raise
            finally:
                self._close(record, attrs)

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """One line per span: id,parent,name,start_s,end_s,failed,attrs."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,failed,attrs\n")
            for sid, parent, name, start, end, attrs, failed in self.spans:
                extra = ";".join(f"{k}={v}" for k, v in (attrs or {}).items())
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},{int(failed)},{extra}\n")


def _grid_entries(args, kwargs, result):
    # KernelEvaluator.evaluate(self, psi, t): one softmax sweep over nodes x N
    ev = args[0]
    return {"entries": ev.grid.n_nodes * ev.n}


def _label_entries(args, kwargs, result):
    return {"entries": int(result.size) * int(args[1].n)}


def _result_size(args, kwargs, result):
    return {"entries": int(result.size)}


def _full_nodes(args, kwargs, result):
    return {"nodes": args[0].grid.n_nodes}


def _integrate_nodes(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return {"nodes": grid.n_nodes}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": int(bool(result.converged))}


def _trajectory_rows(args, kwargs, result):
    return {"rows": len(args[1].states), "bytes": os.path.getsize(args[0])}


def _snapshot_rows(args, kwargs, result):
    return {"rows": int(args[1].nodes.shape[0]), "bytes": os.path.getsize(args[0])}


# (module, attribute path, span name, work attributes).  Span names are the
# layer (module) followed by the entry point.
ENTRY_POINTS = (
    ("model", "build_problem", "model.build_problem", None),
    ("model", "cost_matrix", "model.cost_matrix", _result_size),
    ("quadrature", "build_grid", "quadrature.build_grid", None),
    ("kernel", "KernelEvaluator.evaluate", "kernel.evaluate", _grid_entries),
    ("kernel", "KernelEvaluator.node_weights", "kernel.node_weights", None),
    ("laguerre", "power_cell_measures", "laguerre.cell_measures", None),
    ("laguerre", "measure_jacobian", "laguerre.measure_jacobian", None),
    ("laguerre", "grid_labels", "laguerre.grid_labels", _label_entries),
    ("laguerre", "unregularized_residual", "laguerre.terminal_residual", None),
    ("residuals", "ResidualSystem.full", "residuals.full", _full_nodes),
    ("residuals", "ResidualSystem.initial_state", "residuals.initial_state", None),
    ("linsolve", "solve_dual_system", "linsolve.solve", None),
    ("newton", "solve_xi_star", "newton.xi_star", _iterations),
    ("newton", "newton_1d", "newton.newton_1d", _iterations),
    ("newton", "fixed_t_oracle", "newton.fixed_t_oracle", _iterations),
    ("homotopy", "integrate_homotopy", "homotopy.integrate", _integrate_nodes),
    ("cli", "write_trajectory_csv", "cli.write_trajectory", _trajectory_rows),
    ("cli", "write_snapshot_csv", "cli.write_snapshot", _snapshot_rows),
)


@contextlib.contextmanager
def instrument(tracer):
    """Route every entry point in ENTRY_POINTS through `tracer` while active."""
    modules = [m for n, m in list(sys.modules.items()) if n == "otpath" or n.startswith("otpath.")]
    undo = []
    try:
        for module_name, path, span_name, measure in ENTRY_POINTS:
            owner = sys.modules[f"otpath.{module_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(span_name, original, measure)
            targets = [owner] if cls_path else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for target in targets:
                undo.append((target, attr, original))
                setattr(target, attr, wrapper)
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


# Per-layer metric -> unit.  Counts of work repeat exactly between runs of the
# same code; times are inclusive unless the name says self.
LAYER_UNITS = {
    "kernel.evaluate_calls": "count",
    "kernel.evaluate_s": "s",
    "kernel.entries": "count",
    "kernel.entries_per_s": "1/s",
    "kernel.node_weights_s": "s",
    "kernel.solve_share": "%",
    "laguerre.cell_measures_calls": "count",
    "laguerre.cell_measures_s": "s",
    "laguerre.measure_jacobian_calls": "count",
    "laguerre.measure_jacobian_s": "s",
    "laguerre.label_entries": "count",
    "laguerre.terminal_residual_s": "s",
    "laguerre.solve_share": "%",
    "model.cost_matrix_calls": "count",
    "model.cost_matrix_entries": "count",
    "model.cost_matrix_s": "s",
    "model.build_problem_s": "s",
    "quadrature.build_grid_calls": "count",
    "quadrature.build_grid_s": "s",
    "residuals.full_calls": "count",
    "residuals.full_self_s": "s",
    "residuals.initial_state_s": "s",
    "linsolve.solve_calls": "count",
    "linsolve.solve_s": "s",
    "linsolve.failures": "count",
    "linsolve.residuals_solve_share": "%",
    "newton.xi_star_s": "s",
    "newton.xi_star_iterations": "count",
    "newton.baseline_s": "s",
    "newton.baseline_iterations": "count",
    "newton.baseline_converged": "count",
    "homotopy.solve_s": "s",
    "homotopy.stages": "count",
    "homotopy.boosted_stages": "count",
    "homotopy.self_s": "s",
    "cli.write_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "count",
}


def _self_times(spans):
    child = defaultdict(float)
    for sid, parent, name, start, end, attrs, failed in spans:
        if parent >= 0:
            child[parent] += end - start
    return {s[0]: (s[4] - s[3]) - child[s[0]] for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced repetition (see README for the table)."""
    by_id = {s[0]: s for s in spans}
    self_time = _self_times(spans)
    solve_root = {}  # span id -> id of the enclosing homotopy.integrate span
    for sid, parent, name, *_ in spans:
        if name == "homotopy.integrate":
            solve_root[sid] = sid
        elif parent in solve_root:
            solve_root[sid] = solve_root[parent]

    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)

    def spans_of(name):
        return by_name[name]

    def total(name, in_solve=False):
        return sum(s[4] - s[3] for s in spans_of(name) if not in_solve or s[0] in solve_root)

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans_of(name) if s[5])

    solve_s = total("homotopy.integrate")
    stages = [s for s in spans_of("residuals.full") if s[0] in solve_root]
    boosted = 0
    for s in stages:
        base = by_id[solve_root[s[0]]][5]  # None when the solve raised
        boosted += bool(s[5] and base and s[5]["nodes"] > base["nodes"])
    laguerre_in_solve = sum(
        s[4] - s[3]
        for s in spans
        if s[0] in solve_root
        and s[2].startswith("laguerre.")
        and not by_id[s[1]][2].startswith("laguerre.")
    )
    evaluate_s = total("kernel.evaluate")
    entries = attr_sum("kernel.evaluate", "entries")
    writes = spans_of("cli.write_trajectory") + spans_of("cli.write_snapshot")

    def share(seconds):
        return 100.0 * seconds / solve_s if solve_s > 0 else 0.0

    return {
        "kernel.evaluate_calls": len(spans_of("kernel.evaluate")),
        "kernel.evaluate_s": evaluate_s,
        "kernel.entries": entries,
        "kernel.entries_per_s": entries / evaluate_s if evaluate_s > 0 else 0.0,
        "kernel.node_weights_s": total("kernel.node_weights"),
        "kernel.solve_share": share(total("kernel.evaluate", in_solve=True)),
        "laguerre.cell_measures_calls": len(spans_of("laguerre.cell_measures")),
        "laguerre.cell_measures_s": total("laguerre.cell_measures"),
        "laguerre.measure_jacobian_calls": len(spans_of("laguerre.measure_jacobian")),
        "laguerre.measure_jacobian_s": total("laguerre.measure_jacobian"),
        "laguerre.label_entries": attr_sum("laguerre.grid_labels", "entries"),
        "laguerre.terminal_residual_s": total("laguerre.terminal_residual"),
        "laguerre.solve_share": share(laguerre_in_solve),
        "model.cost_matrix_calls": len(spans_of("model.cost_matrix")),
        "model.cost_matrix_entries": attr_sum("model.cost_matrix", "entries"),
        "model.cost_matrix_s": total("model.cost_matrix"),
        "model.build_problem_s": total("model.build_problem"),
        "quadrature.build_grid_calls": len(spans_of("quadrature.build_grid")),
        "quadrature.build_grid_s": total("quadrature.build_grid"),
        "residuals.full_calls": len(spans_of("residuals.full")),
        "residuals.full_self_s": sum(self_time[s[0]] for s in spans_of("residuals.full")),
        "residuals.initial_state_s": total("residuals.initial_state"),
        "linsolve.solve_calls": len(spans_of("linsolve.solve")),
        "linsolve.solve_s": total("linsolve.solve"),
        "linsolve.failures": sum(1 for s in spans_of("linsolve.solve") if s[6]),
        "linsolve.residuals_solve_share": share(
            total("linsolve.solve", in_solve=True)
            + sum(self_time[s[0]] for s in stages)
        ),
        "newton.xi_star_s": total("newton.xi_star"),
        "newton.xi_star_iterations": attr_sum("newton.xi_star", "iterations"),
        "newton.baseline_s": total("bench.baseline"),
        "newton.baseline_iterations": attr_sum("bench.baseline", "iterations"),
        "newton.baseline_converged": attr_sum("bench.baseline", "converged"),
        "homotopy.solve_s": solve_s,
        "homotopy.stages": len(stages),
        "homotopy.boosted_stages": boosted,
        "homotopy.self_s": sum(self_time[s[0]] for s in spans_of("homotopy.integrate")),
        "cli.write_s": sum(s[4] - s[3] for s in writes),
        "cli.rows_written": sum(s[5]["rows"] for s in writes if s[5]),
        "cli.bytes_written": sum(s[5]["bytes"] for s in writes if s[5]),
    }
