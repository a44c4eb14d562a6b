import numpy as np
import pytest

from otpath import (
    NonFiniteValueError,
    ResidualSystem,
    build_problem,
    cell_operands,
    power_cell_measures,
    unit_domain,
)
from otpath import laguerre, residuals
from otpath.model import cost_matrix
from conftest import central_diff, central_diff_scalar_arg


def _problem(variant, n=3, seed=11, dim=1, cost=2):
    cfg = {"variant": variant, "dim": dim, "n_targets": n, "seed": seed, "cost_exponent": cost}
    if variant == "p3":
        cfg["anchor"] = [0.5] * dim
    if variant == "p4":
        cfg["rho"] = {"kind": "gauss"}
    return build_problem(cfg)


ALL_VARIANTS = ["p1", "p2", "p3", "p4"]


def test_initial_state_p1(grid1):
    init = ResidualSystem(_problem("p1", n=8), grid1).initial_state()
    assert np.allclose(init.psi0, np.log(8.0), atol=0)
    assert init.dpsi0 is None


def test_initial_state_p2(grid1):
    init = ResidualSystem(_problem("p2", n=4), grid1).initial_state()
    assert np.all(init.psi0 == 0.0)
    assert np.allclose(init.dpsi0, np.log(4.0), atol=0)


def test_initial_state_p3_symmetric(grid1):
    # equal anchor gaps collapse the start to log(2) on both components
    prob = build_problem(
        {"variant": "p3", "dim": 1, "targets": [[0.2], [0.8]], "anchor": [0.5]}
    )
    init = ResidualSystem(prob, grid1).initial_state()
    assert np.allclose(init.psi0, np.log(2.0), atol=1e-15)
    assert init.dpsi0 is None


def test_initial_state_p3_formula(grid1):
    prob = _problem("p3", n=5)
    init = ResidualSystem(prob, grid1).initial_state()
    half = 0.5 * prob.anchor_costs
    expected = half + np.log(np.exp(-half).sum())
    assert np.allclose(init.psi0, expected, atol=1e-12)


def test_initial_state_p4(grid1):
    prob = _problem("p4", n=3)
    init = ResidualSystem(prob, grid1).initial_state()
    assert np.all(init.psi0 == 0.0)
    masses = power_cell_measures(-init.dpsi0, cell_operands(prob.targets, prob.rho, grid1))
    assert np.abs(masses - 1.0 / 3.0).max() <= 1e-8
    assert init.dpsi0.mean() == pytest.approx(0.0, abs=1e-12)


def test_p4_2d_start_reuses_the_system_cells(grid2, monkeypatch):
    # the equal-mass solve runs on the system's rho cells: no new cost matrix
    system = ResidualSystem(_problem("p4", n=4, dim=2), grid2)
    built = []

    def counting(*args):
        built.append(args)
        return cost_matrix(*args)

    monkeypatch.setattr(laguerre, "cost_matrix", counting)
    init = system.initial_state()
    assert built == []
    masses = power_cell_measures(-init.dpsi0, system.rho_cells)
    assert np.abs(masses - 0.25).max() <= 1e-3


def test_p4_full_builds_one_measure_jacobian(grid1, monkeypatch):
    built = []
    original = residuals.measure_jacobian

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(residuals, "measure_jacobian", counting)
    psi = np.array([0.05, -0.02, 0.01])
    ev = ResidualSystem(_problem("p4"), grid1).full(psi, 0.5)
    assert len(built) == 1  # one measure Jacobian serves both blocks
    before = (ev.g.copy(), ev.jac.copy(), ev.dt.copy())
    psi[:] = 0.0  # the caller's array may change; the record is at the old point
    assert all(np.array_equal(a, b) for a, b in zip(before, (ev.g, ev.jac, ev.dt)))
    fresh = ResidualSystem(_problem("p4"), grid1).full(np.array([0.05, -0.02, 0.01]), 0.5)
    assert np.array_equal(ev.jac, fresh.jac) and np.array_equal(ev.dt, fresh.dt)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_initial_residual_vanishes_p1_p3(grid1, n):
    prob1 = _problem("p1", n=n, seed=4)
    r1 = ResidualSystem(prob1, grid1).full(np.log(float(n)) * np.ones(n), 1e-6).g
    assert np.abs(r1).max() <= 1e-5
    prob3 = _problem("p3", n=n, seed=4)
    sys3 = ResidualSystem(prob3, grid1)
    r3 = sys3.full(sys3.initial_state().psi0, 1e-6).g
    assert np.abs(r3).max() <= 1e-5


def test_p1_residual_sum_identity(grid1):
    system = ResidualSystem(_problem("p1", n=4), grid1)
    rng = np.random.default_rng(5)
    for _ in range(5):
        psi = rng.uniform(-1, 1, 4)
        t = rng.uniform(0.05, 0.9)
        r = system.full(psi, t).g
        assert r.sum() == pytest.approx(np.exp(-psi).sum() - 1.0, abs=1e-10)


def test_jacobian_two_targets_closed_form(grid1, mirror_pair):
    jac = ResidualSystem(mirror_pair, grid1).full(np.zeros(2), 0.0).jac
    assert np.allclose(jac, [[-1.25, 0.25], [0.25, -1.25]], atol=1e-12)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_jacobian_matches_finite_differences(grid1, variant):
    prob = _problem(variant)
    system = ResidualSystem(prob, grid1)
    rng = np.random.default_rng(6)
    tol = 1e-4 if variant == "p4" else 1e-5
    for _ in range(4):
        psi = rng.uniform(-0.4, 0.4, 3)
        t = rng.uniform(0.15, 0.85)
        jac = system.full(psi, t).jac
        fd = central_diff(lambda p: system.full(p, t).g, psi)
        assert np.abs(jac - fd).max() <= tol * max(1.0, np.abs(jac).max())


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_dt_matches_finite_differences(grid1, variant):
    prob = _problem(variant)
    system = ResidualSystem(prob, grid1)
    rng = np.random.default_rng(7)
    tol = 1e-4 if variant == "p4" else 1e-5
    for _ in range(4):
        psi = rng.uniform(-0.4, 0.4, 3)
        t = rng.uniform(0.15, 0.85)
        dt = system.full(psi, t).dt
        fd = central_diff_scalar_arg(lambda s: system.full(psi, s).g, t)
        assert np.abs(dt - fd).max() <= tol * max(1.0, np.abs(fd).max())


def test_p2_penalty_dt_vanishes_at_zero(grid1):
    prob = _problem("p2")
    system = ResidualSystem(prob, grid1)
    for t in (0.3, 0.7):
        dt = system.full(np.zeros(3), t).dt
        kernel_part = system.kernel.evaluate(np.zeros(3), t).dt_grad
        assert np.allclose(dt, kernel_part, atol=0)


def test_single_target_p1_dt_is_zero(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.4]]})
    dt = ResidualSystem(prob, grid1).full(np.array([0.2]), 0.5).dt
    assert dt == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_full_adds_the_penalty_terms_bit_for_bit(grid1, grid2, variant, dim):
    # the diagonal penalty Jacobians of p1-p3 go onto the Hessian's diagonal
    # in place; every block keeps the bits of the dense composition
    # hess + diag(...) and dt_grad + (the penalty's dt, zeros for p1 and p3)
    system = ResidualSystem(_problem(variant, dim=dim), grid2 if dim == 2 else grid1)
    rng = np.random.default_rng(3)
    for _ in range(3):
        psi, t = rng.uniform(-0.4, 0.4, 3), rng.uniform(0.1, 0.9)
        ev, ke = system.full(psi, t), system.kernel.evaluate(psi, t)
        if variant == "p4":
            masses, rho_jac = laguerre.measure_jacobian(-psi / t, system.rho_cells)
            pen = (masses, -rho_jac / t, rho_jac @ psi / t**2)
        elif variant == "p2":
            e = np.exp(-psi / t)
            pen = (e, np.diag(-e / t), e * psi / t**2)
        else:
            e = np.exp(-psi)
            pen = (e, np.diag(-e), np.zeros_like(psi))
        blocks = (pen[0] + ke.grad, ke.hess + pen[1], ke.dt_grad + pen[2])
        for got, ref in zip((ev.g, ev.jac, ev.dt), blocks):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("variant", ["p1", "p2", "p3"])
def test_jacobian_negative_definite(grid1, variant):
    system = ResidualSystem(_problem(variant), grid1)
    rng = np.random.default_rng(8)
    for _ in range(3):
        jac = system.full(rng.uniform(-0.3, 0.3, 3), rng.uniform(0.1, 0.9)).jac
        assert np.abs(jac - jac.T).max() <= 1e-10
        assert np.linalg.eigvalsh(jac).max() < 0.0


def test_p4_jacobian_singular_along_ones(grid1):
    system = ResidualSystem(_problem("p4"), grid1)
    jac = system.full(np.array([0.05, -0.02, 0.01]), 0.5).jac
    eigs = np.linalg.eigvalsh(jac)
    assert abs(eigs[-1]) <= 1e-10  # gauge direction
    assert eigs[-2] < -1e-8  # definite on the complement
    assert np.abs(jac @ np.ones(3)).max() <= 1e-10


def test_penalty_overflow_signals(grid1):
    system = ResidualSystem(_problem("p2"), grid1)
    with pytest.raises(NonFiniteValueError):
        system.full(np.array([-800.0, 0.0, 0.0]), 0.5)


def test_time_domain_per_variant(grid1):
    scaled = ResidualSystem(_problem("p2"), grid1)
    with pytest.raises(ValueError):
        scaled.full(np.zeros(3), 0.0)
    plain = ResidualSystem(_problem("p1"), grid1)
    plain.full(np.zeros(3), 0.0)  # regular at t=0
    with pytest.raises(ValueError):
        plain.full(np.zeros(3), 1.0)
