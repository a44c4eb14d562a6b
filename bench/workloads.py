"""The three benchmark workloads, driven through otpath's public API.

Each workload is a fixed list of problem instances.  The workload seed only
permutes the order of the targets (and, for `sweep1d`, the order of the
instances): the mathematical problems, the work they cost and their answers
up to that permutation stay the same, so one reference recorded in canonical
order checks every seed.

Every library call goes through a module attribute looked up at call time
(``otpath.integrate_homotopy``, ``cli.write_trajectory_csv``, ...), so the
traced run sees it once `spans.instrument` has wrapped that attribute.
"""

import contextlib
import hashlib
import time
from dataclasses import dataclass

import numpy as np

import otpath
import otpath.cli as cli
from otpath.model import default_target_box

PSI_TOL = 1e-9  # max |psi - reference| at t = 1, in canonical target order
ERROR_SUP_RTOL = 1e-6  # relative tolerance on the terminal residual sup-norm


@dataclass(frozen=True)
class Instance:
    key: str
    config: dict  # build_problem configuration with explicit, permuted targets
    perm: np.ndarray  # config target j is canonical target perm[j]
    dim: int
    panels: int
    order: int
    dt: float
    snapshot_times: tuple = ()
    baseline: bool = False

    def canonical(self, psi):
        out = np.empty(len(self.perm))
        out[self.perm] = psi
        return out


def _instance(key, variant, points, rng, dim, panels, order, dt, **extra):
    points = np.asarray(points, dtype=float)
    perm = np.arange(len(points)) if rng is None else rng.permutation(len(points))
    config = {"variant": variant, "dim": dim, "targets": points[perm].tolist()}
    if variant == "p3":
        config["anchor"] = [0.5] * dim  # domain center, as `otpath run` defaults it
    if variant == "p4":
        config["rho"] = {"kind": "gauss"}
    return Instance(key, config, perm, dim, panels, order, dt, **extra)


def _random_targets(variant, n, dim, seed=4):
    box = default_target_box(variant, otpath.unit_domain(dim))
    return otpath.sample_targets(n, dim, box, seed).points


def parabola2d(rng):
    # Acceptance criterion 9's layout at dt=1e-2 (300 stages) on a 24x6 grid
    # per axis: 20,736 nodes, and 82,944 once boosted past t=0.9.
    points = otpath.parabola_targets(12).points
    return [
        _instance("p1_parabola_n12", "p1", points, rng, 2, 24, 6, 1e-2,
                  snapshot_times=(0.5, 1.0))
    ]


def p4_2d(rng):
    return [_instance("p4_n6", "p4", _random_targets("p4", 6, 2), rng, 2, 24, 6, 1e-1)]


def sweep1d(rng):
    instances = [
        _instance(f"{v}_n{n}", v, _random_targets(v, n, 1), rng, 1, 64, 8, 2.5e-3, baseline=True)
        for v in ("p1", "p2", "p3", "p4")
        for n in (4, 8)
    ]
    if rng is not None:
        instances = [instances[i] for i in rng.permutation(len(instances))]
    return instances


WORKLOADS = {"parabola2d": parabola2d, "p4_2d": p4_2d, "sweep1d": sweep1d}


def make_instances(workload, seed):
    """Instances of `workload`; seed None keeps the canonical order."""
    rng = None if seed is None else np.random.default_rng(seed)
    return WORKLOADS[workload](rng)


def set_up(inst):
    """What a caller pays before integrating: problem, grid, residual system
    and the closed-form start (the equal-mass solve for p4)."""
    problem = otpath.build_problem(inst.config)
    grid = otpath.build_grid(otpath.unit_domain(inst.dim), inst.panels, inst.order)
    init = otpath.ResidualSystem(problem, grid).initial_state()
    return problem, grid, init.psi0


def _baseline(problem, grid):
    """The `otpath run --newton` block: plain Newton where the 1-D cells are
    exact, else the fixed-t oracle just below t = 1.  Returns (method, report)."""
    if problem.dim == 1 and problem.cost.exponent == 2.0 and problem.variant in ("p1", "p2"):
        return "newton_1d", otpath.newton_1d(problem)
    return "fixed_t_oracle", otpath.fixed_t_oracle(problem, cli.SURROGATE_T, tol=1e-8, grid=grid)


@dataclass
class Outcome:
    key: str
    error: str = None  # why the solve produced no checkable answer
    psi: np.ndarray = None  # canonical order
    error_sup: float = None
    baseline: dict = None
    trajectory_sha256: str = None


def run_instances(instances, problems, out_dir, tracer=None):
    """Solve every instance once, write its CSVs, and time the pieces.

    Returns (outcomes, solve_s, run_s).  Hashing happens after the clock stops.
    """
    span = tracer.span if tracer is not None else _no_span
    outcomes = []
    solve_s = 0.0
    start = time.perf_counter()
    for inst, (problem, grid, psi0) in zip(instances, problems):
        out = Outcome(inst.key)
        outcomes.append(out)
        t0 = time.perf_counter()
        try:
            traj = otpath.integrate_homotopy(
                problem, inst.dt, grid, snapshot_times=inst.snapshot_times
            )
        except otpath.SolverError as exc:
            out.error = f"solver error: {exc}"
            continue
        finally:
            solve_s += time.perf_counter() - t0
        if not np.array_equal(traj.states[0].psi, psi0):
            out.error = "trajectory does not start at the set-up's closed-form start"
            continue
        out.psi = inst.canonical(traj.report.psi)
        out.error_sup = traj.report.error_sup
        if inst.baseline:
            try:
                with span("bench.baseline") as attrs:
                    method, report = _baseline(problem, grid)
                    attrs.update(iterations=int(report.iterations), converged=int(report.converged))
            except otpath.SolverError as exc:
                out.error = f"baseline solver error: {exc}"
                continue
            out.baseline = {
                "method": method,
                "converged": bool(report.converged),
                "iterations": int(report.iterations),
            }
        cli.write_trajectory_csv(out_dir / f"{inst.key}.csv", traj)
        for t_snap, field in traj.snapshots:
            cli.write_snapshot_csv(out_dir / f"{inst.key}_t{t_snap:g}_cells.csv", field)
    run_s = time.perf_counter() - start
    for out in outcomes:
        if out.error is None:
            out.trajectory_sha256 = hashlib.sha256(
                (out_dir / f"{out.key}.csv").read_bytes()
            ).hexdigest()
    return outcomes, solve_s, run_s


@contextlib.contextmanager
def _no_span(name):
    yield {}


def mismatches(outcome, reference):
    """Reasons `outcome` disagrees with its recorded reference (empty if none)."""
    if outcome.error is not None:
        return [outcome.error]
    if reference is None:
        return ["no reference recorded"]
    problems = []
    gap = float(np.max(np.abs(outcome.psi - np.asarray(reference["psi"]))))
    if not gap <= PSI_TOL:
        problems.append(f"psi differs from the reference by {gap:.3g}")
    ref_err = reference["error_sup"]
    if not abs(outcome.error_sup - ref_err) <= ERROR_SUP_RTOL * ref_err:
        problems.append(f"error_sup {outcome.error_sup:.6g} vs reference {ref_err:.6g}")
    if not _same_baseline(outcome.baseline, reference["baseline"]):
        problems.append(f"baseline {outcome.baseline} vs reference {reference['baseline']}")
    return problems


def _same_baseline(got, ref):
    """Same method and outcome.  The undamped `newton_1d` iterates the same way
    for every target order, so its count must match exactly; the damped
    oracle's step halvings react to rounding (a permuted p3 N=8 instance takes
    14 to 22 iterations against 17), so it only has to stay within a factor 2."""
    if got is None or ref is None:
        return got is ref
    if got["method"] != ref["method"] or got["converged"] != ref["converged"]:
        return False
    if got["method"] == "newton_1d":
        return got["iterations"] == ref["iterations"]
    return ref["iterations"] / 2 <= got["iterations"] <= 2 * ref["iterations"]


def reference_entry(outcome):
    return {
        "psi": [float(v) for v in outcome.psi],
        "error_sup": outcome.error_sup,
        "baseline": outcome.baseline,
    }
