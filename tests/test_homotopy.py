import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import otpath
from otpath import (
    ConfigError,
    NearSingularJacobianError,
    NonFiniteValueError,
    ResidualSystem,
    RKTableau,
    SolverError,
    build_grid,
    build_problem,
    integrate_homotopy,
    parabola_targets,
    refine_grid,
    rk3_tableau,
    unit_domain,
    unregularized_residual,
)
from otpath import homotopy, laguerre, residuals
from otpath.cli import ExperimentConfig, run_experiment, write_trajectory_csv
from otpath.homotopy import BOOST_FACTOR
from otpath.linsolve import solve_dual_system
from otpath.model import cost_matrix
from conftest import on_matrix


def _slope(problem, psi, t, grid):
    """Trajectory slope psi'(t): the solution x of jac x = -dt at (psi, t)."""
    ev = ResidualSystem(problem, grid).full(psi, t)
    return solve_dual_system(ev.jac, -ev.dt)


def _exact_tableau(alpha, beta):
    """Independent oracle: the family's coefficients in exact rational
    arithmetic."""
    a, b = Fraction(alpha), Fraction(beta)
    return {
        "a21": a,
        "a31": (b / a) * (b - 3 * a * (1 - a)) / (3 * a - 2),
        "a32": -(b / a) * (b - a) / (3 * a - 2),
        "b1": 1 - (3 * a + 3 * b - 2) / (6 * a * b),
        "b2": (3 * b - 2) / (6 * a * (b - a)),
        "b3": (2 - 3 * a) / (6 * b * (b - a)),
    }


def test_paper_default_tableau_coefficients():
    tab = rk3_tableau(0.125, 0.25)
    exact = _exact_tableau(Fraction(1, 8), Fraction(1, 4))
    assert exact["b1"] == Fraction(17, 3)
    assert exact["b2"] == Fraction(-40, 3)
    assert exact["b3"] == Fraction(26, 3)
    assert exact["a31"] == Fraction(5, 52)
    assert exact["a32"] == Fraction(2, 13)
    assert tab.b == pytest.approx([17 / 3, -40 / 3, 26 / 3], abs=1e-14)
    assert tab.a31 == pytest.approx(5 / 52, abs=1e-16)
    assert tab.a32 == pytest.approx(2 / 13, abs=1e-16)
    assert np.allclose(tab.c, [0.0, 0.125, 0.25], atol=0)


def test_order_conditions_hold():
    tab = rk3_tableau(0.125, 0.25)
    assert np.abs(tab.order_defects()).max() <= 1e-12
    b1, b2, b3 = tab.b
    assert b1 + b2 + b3 == pytest.approx(1.0, abs=1e-12)
    assert b2 * tab.alpha + b3 * tab.beta == pytest.approx(0.5, abs=1e-12)
    assert b2 * tab.alpha**2 + b3 * tab.beta**2 == pytest.approx(1 / 3, abs=1e-12)
    # third-order coupling condition, with the second stage time alpha
    assert b3 * tab.a32 * tab.alpha == pytest.approx(1 / 6, abs=1e-12)


def test_order_conditions_across_the_family():
    rng = np.random.default_rng(17)
    count = 0
    while count < 100:
        alpha = rng.uniform(0.05, 0.95)
        beta = rng.uniform(0.05, 0.95)
        if abs(alpha - beta) < 0.02 or abs(alpha - 2 / 3) < 0.02:
            continue
        tab = rk3_tableau(alpha, beta)
        assert np.abs(tab.order_defects()).max() <= 1e-12
        assert tab.a31 + tab.a32 == pytest.approx(beta, abs=1e-12)
        count += 1


def test_tableau_parameter_constraints():
    with pytest.raises(ConfigError):
        rk3_tableau(1 / 3, 1 / 3)
    with pytest.raises(ConfigError):
        rk3_tableau(0.0, 0.25)
    with pytest.raises(ConfigError):
        rk3_tableau(0.125, 0.0)
    with pytest.raises(ConfigError):
        rk3_tableau(2 / 3, 0.25)


def test_tableau_rejects_non_finite_parameters():
    for alpha, beta in ((np.nan, 0.25), (0.125, np.nan), (np.inf, 0.25)):
        with pytest.raises(ConfigError, match="tableau"):
            rk3_tableau(alpha, beta)


def test_order_guard_fails_on_nan_defects(monkeypatch):
    monkeypatch.setattr(RKTableau, "order_defects", lambda self: np.full(4, np.nan))
    with pytest.raises(SolverError):
        rk3_tableau(0.125, 0.25)


def test_rhs_single_target_stationary(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.4]]})
    slope = _slope(prob, np.zeros(1), 0.5, grid1)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_rhs_symmetry(grid1, mirror_pair):
    for t in (0.0, 0.4, 0.8):
        slope = _slope(mirror_pair, np.log(2.0) * np.ones(2), t, grid1)
        assert slope[0] == pytest.approx(slope[1], abs=1e-12)


def test_rhs_solves_the_stage_system(grid1, p1_1d):
    rng = np.random.default_rng(20)
    psi = rng.uniform(-0.3, 0.3, 4)
    t = 0.45
    slope = _slope(p1_1d, psi, t, grid1)
    ev = ResidualSystem(p1_1d, grid1).full(psi, t)
    defect = np.abs(ev.jac @ slope + ev.dt).max()
    assert defect <= 1e-10 * max(1.0, np.abs(ev.dt).max())


def test_stationary_trajectory(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.4]]})
    traj = integrate_homotopy(prob, 1e-2, grid1)
    assert np.abs(traj.psi_matrix).max() <= 1e-12
    assert traj.report.error_sup <= 1e-10


def test_symmetric_closed_form(grid1, mirror_pair):
    traj = integrate_homotopy(mirror_pair, 1e-2, grid1)
    assert np.abs(traj.report.psi - np.log(2.0)).max() <= 1e-4


@pytest.mark.parametrize("variant", ["p1", "p2", "p3", "p4"])
@pytest.mark.parametrize("n", [2, 4])
def test_error_improves_with_smaller_step(grid1, variant, n):
    # Seeds pinned to healthy realizations: clustered targets are stiff
    # enough, and far-outside-the-domain targets raise the cost scale enough,
    # to stall the 10x-per-decade trend at default quadrature resolution.
    seed = 4 if variant in ("p1", "p2") else 3
    cfg = {"variant": variant, "dim": 1, "n_targets": n, "seed": seed}
    if variant == "p3":
        cfg["anchor"] = [0.5]
    if variant == "p4":
        cfg["rho"] = {"kind": "gauss"}
    prob = build_problem(cfg)
    coarse = integrate_homotopy(prob, 1e-1, grid1).report.error_sup
    fine = integrate_homotopy(prob, 1e-2, grid1).report.error_sup
    assert fine <= coarse / 5.0


def test_trajectory_lattice_and_finiteness(grid1, p1_1d):
    traj = integrate_homotopy(p1_1d, 1e-1, grid1)
    times = traj.times
    assert times[0] == 0.0
    assert times[-1] == 1.0  # exact landing, not within-epsilon
    assert np.all(np.diff(times) > 0)
    assert np.isfinite(traj.psi_matrix).all()
    assert len(traj.states) == 11
    # the terminal residual is evaluated on the boosted stage grid
    assert traj.report.grid.panels_per_axis == BOOST_FACTOR * grid1.panels_per_axis
    assert traj.report.residual.shape == (4,)


def test_mass_conservation_along_path(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 8, "seed": 4})
    traj = integrate_homotopy(prob, 1e-2, grid1)
    for state in traj.states:
        assert abs(np.exp(-state.psi).sum() - 1.0) <= 1e-3


def test_uniform_boundedness_along_path(grid1):
    # computed trajectories stay inside the a-priori box; the scaled-penalty
    # variants bound psi/t, the others psi itself
    for variant in ("p1", "p2", "p3", "p4"):
        cfg = {"variant": variant, "dim": 1, "n_targets": 4, "seed": 4}
        if variant == "p3":
            cfg["anchor"] = [0.5]
        if variant == "p4":
            cfg["rho"] = {"kind": "gauss"}
        prob = build_problem(cfg)
        cmax = cost_matrix(prob.targets.points, grid1.nodes, 2.0).max()
        bound = 10.0 * (2.0 * np.log(prob.n) + cmax)
        traj = integrate_homotopy(prob, 1e-2, grid1)
        for state in traj.states:
            value = state.psi / state.t if prob.scales_penalty and state.t > 0 else state.psi
            assert np.abs(value).max() <= bound


def test_jacobian_definite_along_accepted_path(grid1):
    # Cholesky of the negated Jacobian must succeed at every stored state
    prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": 4})
    system = ResidualSystem(prob, grid1)
    traj = integrate_homotopy(prob, 1e-1, grid1)
    for state in traj.states[:-1]:
        factor = np.linalg.cholesky(-system.full(state.psi, state.t).jac)
        assert np.all(np.diag(factor) > 0.0)


def test_symmetry_preserved_at_every_step(grid1):
    prob = build_problem(
        {"variant": "p1", "dim": 1, "targets": [[0.2], [0.8]]}
    )
    traj = integrate_homotopy(prob, 1e-2, grid1)
    for state in traj.states:
        assert abs(state.psi[0] - state.psi[1]) <= 1e-10


def test_continuity_into_the_endpoint(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": 4})
    dt = 1e-3
    traj = integrate_homotopy(prob, dt, grid1)
    last = traj.states[-2]
    slope = _slope(prob, last.psi, last.t, grid1)
    gap = np.abs(traj.report.psi - last.psi).max()
    assert gap <= 10.0 * dt * max(np.abs(slope).max(), 1e-12)


def test_singular_start_variants_run(grid1):
    # p2/p4 cannot evaluate the slope at t=0; the supplied derivative stands in
    prob2 = build_problem({"variant": "p2", "dim": 1, "n_targets": 3, "seed": 4})
    traj2 = integrate_homotopy(prob2, 1e-1, grid1)
    assert np.isfinite(traj2.report.error_sup)
    prob4 = build_problem(
        {"variant": "p4", "dim": 1, "n_targets": 3, "seed": 5, "rho": {"kind": "gauss"}}
    )
    traj4 = integrate_homotopy(prob4, 1e-1, grid1)
    assert np.isfinite(traj4.report.error_sup)


def test_snapshot_capture(grid2):
    prob = build_problem({"variant": "p1", "dim": 2, "n_targets": 3, "seed": 2})
    times = (0.0, 0.25, 0.5, 0.75, 1.0)
    traj = integrate_homotopy(prob, 0.25, grid2, snapshot_times=times)
    assert [t for t, _ in traj.snapshots] == list(times)
    for t, field in traj.snapshots:
        if t < 1.0:
            assert field.weights is not None
            assert np.abs(field.weights.sum(axis=1) - 1.0).max() <= 1e-12
        else:
            assert field.weights is None
    empty = integrate_homotopy(prob, 0.25, grid2)
    assert empty.snapshots == []


@pytest.mark.parametrize("t_snap", [np.inf, -np.inf, np.nan])
def test_non_finite_snapshot_time_refused(grid2, t_snap):
    prob = build_problem({"variant": "p1", "dim": 2, "n_targets": 3, "seed": 2})
    with pytest.raises(ConfigError, match=f"snapshot time {t_snap} is not on the step lattice"):
        integrate_homotopy(prob, 0.25, grid2, snapshot_times=(t_snap,))


def _count_cost_matrices(monkeypatch):
    """The node counts of every (N, M) matrix `model.cost_matrix` builds from
    here on, in every otpath module that calls it."""
    built = []

    def counting(*args):
        matrix = cost_matrix(*args)
        built.append(matrix.shape[1])
        return matrix

    for name, module in list(sys.modules.items()):
        if name.startswith("otpath") and getattr(module, "cost_matrix", None) is cost_matrix:
            monkeypatch.setattr(module, "cost_matrix", counting)
    return built


@pytest.mark.parametrize(
    "config, snapshot_times",
    [
        ({"variant": "p1", "dim": 2, "targets": parabola_targets(4).points.tolist()}, (0.5, 1.0)),
        ({"variant": "p4", "dim": 2, "n_targets": 3, "seed": 4, "rho": {"kind": "gauss"}}, ()),
    ],
    ids=["p1-snapshots", "p4"],
)
def test_one_cost_matrix_per_grid(monkeypatch, config, snapshot_times):
    # p1 stages take the separable route; the p4 rho cells of both grids,
    # the snapshots and the terminal residual stream the per-axis tables:
    # no (N, M) matrix at all
    grid = build_grid(unit_domain(2), 12, 4)
    prob = build_problem(config)
    built = _count_cost_matrices(monkeypatch)
    traj = integrate_homotopy(prob, 0.25, grid, snapshot_times=snapshot_times)
    assert len(traj.snapshots) == len(snapshot_times)
    assert built == []


def test_no_cost_matrix_in_a_2d_p4_newton_run(monkeypatch, tmp_path):
    # `otpath run --newton` also solves the fixed-t surrogate, on a residual
    # system of its own: its rho cells stream the tables too
    config = ExperimentConfig(
        variant="p4", dim=2, n_list=(3,), dt_list=(0.25,), seed=4, quad_panels=12,
        quad_order=4, run_newton=True, out_dir=str(tmp_path),
    )
    built = _count_cost_matrices(monkeypatch)
    run_experiment(config)
    report = json.loads((tmp_path / "p4_2d_n3_dt0.25.json").read_text())
    assert report["newton_baseline"]["method"].startswith("fixed_t_oracle")
    assert built == []


def test_2d_p4_run_holds_per_axis_grids_and_chunk_local_sweeps():
    # Without snapshots no solve path reads the (M, 2) nodes or (M,) weights
    # of either grid.  What grows with the grid: per node of either grid,
    # whose rho cells stream their per-axis tables, two node-mass vectors;
    # the labels of one sweep and the set-up and kernel scratch may add two
    # floats more per node.  0.5 MB covers what does not grow with the
    # grid.  The stage grid's (N, M) matrix, as its rho cells once held,
    # exceeds the bound, and full-length nodes, weights and sweep minima by
    # more.
    grid = build_grid(unit_domain(2), 24, 6)
    prob = build_problem({"variant": "p4", "dim": 2, "n_targets": 3, "seed": 4, "rho": {"kind": "gauss"}})
    integrate_homotopy(prob, 0.25, grid)  # the process-wide caches fill here
    grid = build_grid(unit_domain(2), 24, 6)
    tracemalloc.start()
    try:
        report = integrate_homotopy(prob, 0.25, grid).report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for held in (grid, report.grid):  # the base and the boosted (report) grid
        assert "nodes" not in vars(held) and "weights" not in vars(held)
    assert peak <= 8 * 4 * (grid.n_nodes + report.grid.n_nodes) + 2**19


def test_2d_p4_boosted_rho_cells_streamed_or_on_the_matrix_agree(monkeypatch, tmp_path):
    # the rho cells of both grids stream chunks of their per-axis tables,
    # the float sums of the (N, M) matrix: a run whose rho cells hold the
    # matrix (with dt = 0.1 three stages are past BOOST_AFTER) gives the
    # same bits
    grid = build_grid(unit_domain(2), 12, 4)
    prob = build_problem({"variant": "p4", "dim": 2, "n_targets": 5, "seed": 4, "rho": {"kind": "gauss"}})
    streamed = integrate_homotopy(prob, 0.1, grid)
    held = []

    def matrix_operands(targets, density, system_grid):
        cells = on_matrix(laguerre.cell_operands(targets, density, system_grid), system_grid)
        held.append(cells)
        return cells

    monkeypatch.setattr(residuals, "cell_operands", matrix_operands)
    matrix = integrate_homotopy(prob, 0.1, grid)
    assert [cells.cost.shape[1] for cells in held] == [grid.n_nodes, 4 * grid.n_nodes]
    assert np.array_equal(streamed.psi_matrix, matrix.psi_matrix)
    assert streamed.report.error_sup == matrix.report.error_sup
    for name, traj in (("streamed", streamed), ("matrix", matrix)):
        write_trajectory_csv(tmp_path / f"{name}.csv", traj)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "matrix.csv").read_bytes()


@pytest.mark.parametrize(
    "config",
    [
        {"variant": "p1", "dim": 2, "targets": parabola_targets(4).points.tolist()},
        {"variant": "p4", "dim": 2, "n_targets": 3, "seed": 4, "rho": {"kind": "gauss"}},
    ],
    ids=["p1", "p4"],
)
def test_2d_terminal_residual_equals_a_fresh_one_on_the_refined_grid(config):
    # the run reads the boosted system's cells; from scratch on the same grid
    # every operand is rebuilt, and the residual must not change by one bit
    grid = build_grid(unit_domain(2), 12, 4)
    prob = build_problem(config)
    report = integrate_homotopy(prob, 0.25, grid).report
    refined = refine_grid(grid, 2)
    fresh = unregularized_residual(prob, report.psi, refined)
    assert report.grid.n_nodes == refined.n_nodes
    assert np.array_equal(report.residual, fresh)
    assert report.error_sup == float(np.abs(fresh).max())


@pytest.mark.parametrize(
    "variant, exponent", [("p1", 2.0), ("p4", 2.0), ("p1", 3.0)], ids=["p1", "p4", "p1-cubic"]
)
def test_1d_terminal_residual_is_read_on_the_boosted_grid(grid1, variant, exponent):
    # as in 2-D, a fresh residual on the boosted grid is the run's to the bit;
    # under quadratic cost the interval cells read only the box, so a finer
    # grid, such as 4x, gives it too
    config = {"variant": variant, "dim": 1, "n_targets": 4, "seed": 4, "cost_exponent": exponent}
    if variant == "p4":
        config["rho"] = {"kind": "gauss"}
    prob = build_problem(config)
    report = integrate_homotopy(prob, 1e-1, grid1).report
    boosted = refine_grid(grid1, BOOST_FACTOR)
    assert report.grid.panels_per_axis == boosted.panels_per_axis
    assert np.array_equal(report.residual, unregularized_residual(prob, report.psi, boosted))
    if exponent == 2.0:
        old = unregularized_residual(prob, report.psi, refine_grid(grid1, 4))
        assert np.array_equal(report.residual, old)
        assert report.error_sup == float(np.abs(old).max())


def test_bad_steps_rejected(grid1, p1_1d):
    with pytest.raises(ConfigError):
        integrate_homotopy(p1_1d, 0.3, grid1)
    with pytest.raises(ConfigError):
        integrate_homotopy(p1_1d, 0.013, grid1)
    with pytest.raises(ConfigError):
        integrate_homotopy(p1_1d, 0.1, grid1, snapshot_times=(0.05,))
    with pytest.raises(ConfigError):
        integrate_homotopy(p1_1d, 0.1, grid1, tableau=rk3_tableau(0.5, 1.5))


def test_non_finite_state_refused(grid1, p1_1d, monkeypatch):
    # the third stage solve of the first step overflows (as a finite,
    # well-conditioned system whose solution overflows does), so the state
    # after that step is non-finite and the run stops there
    calls = []

    def overflowing(mat, rhs, **kwargs):
        calls.append(None)
        x = solve_dual_system(mat, rhs, **kwargs)
        return np.full_like(x, np.inf) if len(calls) == 3 else x

    monkeypatch.setattr(homotopy, "solve_dual_system", overflowing)
    with pytest.raises(NonFiniteValueError, match=r"state became non-finite at t=0\.25$"):
        integrate_homotopy(p1_1d, 0.25, grid1)
    assert len(calls) == 3


def test_state_lookup(grid1, p1_1d):
    traj = integrate_homotopy(p1_1d, 1e-1, grid1)
    assert traj.state_at(0.3).t == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(KeyError):
        traj.state_at(0.33)


def test_trajectory_arrays(grid1):
    # row k of the read-only arrays is the state at t = k / steps, exactly;
    # the per-row states are views of the rows
    prob = build_problem({"variant": "p2", "dim": 1, "n_targets": 3, "seed": 4})
    traj = integrate_homotopy(prob, 0.1, grid1)
    steps = 10
    assert traj.times.shape == (steps + 1,) and traj.psi_matrix.shape == (steps + 1, 3)
    assert [traj.times[k] for k in range(steps + 1)] == [k / steps for k in range(steps + 1)]
    for rows in (traj.times, traj.psi_matrix):
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0] = 1.0
    assert np.array_equal(traj.psi_matrix[0], ResidualSystem(prob, grid1).initial_state().psi0)
    assert np.array_equal(traj.psi_matrix[-1], traj.report.psi)
    assert len(traj.states) == steps + 1
    for k, state in enumerate(traj.states):
        for got in (state, traj.state_at(k / steps)):
            assert got.t == k / steps
            assert np.array_equal(got.psi, traj.psi_matrix[k])
            assert np.shares_memory(got.psi, traj.psi_matrix[k])


def test_library_refuses_a_lattice_it_cannot_hold():
    # 10**300 lattice states cannot be allocated: the call is refused before
    # any stage, in a fresh interpreter that a call which ran on would hold
    # past the timeout
    src = str(Path(otpath.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "from otpath import ConfigError, build_grid, build_problem, integrate_homotopy, unit_domain\n"
        "problem = build_problem({'variant': 'p1', 'dim': 1, 'n_targets': 2, 'seed': 4})\n"
        "try:\n"
        "    integrate_homotopy(problem, 1e-300, build_grid(unit_domain(1), 64, 8))\n"
        "except ConfigError as exc:\n"
        "    print(exc)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "dt=1e-300 takes too many steps for its trajectory to fit in memory; raise dt\n"
