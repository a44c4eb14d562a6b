import numpy as np
import pytest

from otpath import (
    ConfigError,
    DensitySpec,
    KernelEvaluator,
    NearSingularJacobianError,
    ResidualSystem,
    build_problem,
    cell_operands,
    fixed_t_oracle,
    newton_1d,
    power_cell_measures,
    sample_targets,
    solve_xi_star,
    TargetSet,
    gaussian_bump_density,
    unit_domain,
    unregularized_residual,
)
from otpath import newton
from otpath.laguerre import IntervalCells


def test_single_target_is_immediate(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.4]]})
    report = newton_1d(prob, psi0=np.zeros(1))
    assert report.converged
    assert report.iterations == 0
    assert report.psi == pytest.approx(0.0, abs=1e-15)


def test_symmetric_pair_solution(grid1, mirror_pair):
    report = newton_1d(mirror_pair)
    assert report.converged
    assert np.allclose(report.psi, np.log(2.0), atol=1e-10)
    assert report.residual_sup < 1e-8


def test_stopping_rule_defaults(grid1, mirror_pair):
    import inspect

    sig = inspect.signature(newton_1d)
    assert sig.parameters["tol"].default == 1e-8
    assert newton.MAX_ITER == 100
    for solver in (newton_1d, fixed_t_oracle, solve_xi_star):
        assert "max_iter" not in inspect.signature(solver).parameters


def test_divergence_reported_not_raised(grid1):
    # far-flung targets make the plain iteration fragile from a zero start
    prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": 7})
    report = newton_1d(prob, psi0=np.zeros(4))
    assert not report.converged
    assert report.iterations == 100 or not np.isfinite(report.residual_sup)


def test_residual_sup_cross_check(grid1, mirror_pair):
    report = newton_1d(mirror_pair)
    recomputed = np.abs(unregularized_residual(mirror_pair, report.psi, grid1)).max()
    assert abs(report.residual_sup - recomputed) <= 1e-12


def test_newton_requires_quadratic_1d(grid1):
    prob2 = build_problem({"variant": "p1", "dim": 2, "n_targets": 2, "seed": 0})
    with pytest.raises(ConfigError):
        newton_1d(prob2)
    prob_cubic = build_problem(
        {"variant": "p1", "dim": 1, "n_targets": 2, "seed": 0, "cost_exponent": 3}
    )
    with pytest.raises(ConfigError):
        newton_1d(prob_cubic)
    # its equation, exp(-psi) = mu-cells(psi), is the t = 1 system of p1/p2
    # only; for these p3/p4 problems its answer leaves a true residual of 0.26
    # and 0.59
    for extra in ({"variant": "p3", "anchor": [0.5]}, {"variant": "p4", "rho": {"kind": "gauss"}}):
        with pytest.raises(ConfigError):
            newton_1d(build_problem({"dim": 1, "n_targets": 4, "seed": 4, **extra}))


def test_oracle_limit_at_zero(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": 4})
    report = fixed_t_oracle(prob, 1e-6, grid=grid1)
    assert report.converged
    assert np.abs(report.psi - np.log(4.0)).max() <= 1e-4


def test_oracle_meets_tolerance(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": 4})
    report = fixed_t_oracle(prob, 0.5, grid=grid1)
    assert report.converged
    assert np.abs(ResidualSystem(prob, grid1).full(report.psi, 0.5).g).max() < 1e-10


def test_oracle_warm_start(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": 4})
    cold = fixed_t_oracle(prob, 0.6, grid=grid1)
    warm = fixed_t_oracle(prob, 0.6, grid=grid1, psi0=cold.psi)
    assert warm.converged and warm.iterations == 0


def test_oracle_handles_p4_gauge(grid1):
    prob = build_problem(
        {"variant": "p4", "dim": 1, "n_targets": 3, "seed": 5, "rho": {"kind": "gauss"}}
    )
    report = fixed_t_oracle(prob, 0.5, tol=1e-9, grid=grid1)
    assert report.converged
    assert np.abs(ResidualSystem(prob, grid1).full(report.psi, 0.5).g).max() < 1e-9


def test_oracle_sweeps_once_per_trial_point(grid1, monkeypatch):
    swept = []
    original = KernelEvaluator.evaluate

    def counting(self, psi, t):
        swept.append(np.asarray(psi, dtype=float).tobytes())
        return original(self, psi, t)

    monkeypatch.setattr(KernelEvaluator, "evaluate", counting)
    prob = build_problem(
        {"variant": "p3", "dim": 1, "n_targets": 8, "seed": 4, "anchor": [0.5]}
    )
    # full Newton steps: the start plus one trial per iteration
    report = fixed_t_oracle(prob, 0.5, tol=1e-8, grid=grid1)
    assert report.converged
    assert len(swept) == report.iterations + 1
    # with step halving near t = 1: still no point swept twice, so an
    # accepted point's Jacobian comes from the sweep that tested it
    swept.clear()
    report = fixed_t_oracle(prob, 1.0 - 1e-4, tol=1e-8, grid=grid1)
    assert report.converged
    assert len(swept) > report.iterations + 1
    assert len(set(swept)) == len(swept)


def test_xi_star_symmetric(grid1):
    prob = build_problem(
        {
            "variant": "p4",
            "dim": 1,
            "targets": [[0.25], [0.75]],
            "rho": {"kind": "gauss"},
        }
    )
    report = solve_xi_star(cell_operands(prob.targets, prob.rho, grid1))
    assert report.converged
    assert np.allclose(report.psi, 0.0, atol=1e-10)


def test_xi_star_single_target(grid1):
    prob = build_problem(
        {"variant": "p4", "dim": 1, "targets": [[0.4]], "rho": {"kind": "uniform"}}
    )
    report = solve_xi_star(cell_operands(prob.targets, prob.rho, grid1))
    assert report.converged
    assert report.psi == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_xi_star_equalizes_masses(grid1, seed):
    dom = unit_domain(1)
    targets = sample_targets(5, 1, dom, seed=seed)
    rho = gaussian_bump_density(dom)
    cells = cell_operands(targets, rho, grid1)
    report = solve_xi_star(cells)
    assert report.converged
    masses = power_cell_measures(report.psi, cells)
    assert np.abs(masses - 0.2).max() <= 1e-8
    assert report.psi.mean() == pytest.approx(0.0, abs=1e-12)


def test_xi_star_permutation_equivariance(grid1):
    dom = unit_domain(1)
    targets = sample_targets(4, 1, dom, seed=9)
    rho = gaussian_bump_density(dom)
    base = solve_xi_star(cell_operands(targets, rho, grid1)).psi
    perm = np.array([2, 0, 3, 1])
    shuffled = TargetSet(points=targets.points[perm])
    permuted = solve_xi_star(cell_operands(shuffled, rho, grid1)).psi
    assert np.abs(permuted - base[perm]).max() <= 1e-10


def test_xi_star_regularizes_a_singular_start(monkeypatch):
    # at xi = 0 the target at 3.0 has an empty cell on [0, 1], so its
    # Jacobian row is zero and the plain solve refuses; the regularized
    # step of `_newton_direction` carries the iteration to equal masses
    outcomes = []
    original = newton.solve_dual_system

    def recording(mat, rhs, deflate=False):
        try:
            step = original(mat, rhs, deflate=deflate)
        except NearSingularJacobianError:
            outcomes.append("singular")
            raise
        outcomes.append("solved")
        return step

    monkeypatch.setattr(newton, "solve_dual_system", recording)
    cells = IntervalCells(
        TargetSet(points=np.array([[0.5], [2.0], [3.0]])),
        unit_domain(1),
        DensitySpec(kind="uniform", normalization=1.0),
    )
    assert power_cell_measures(np.zeros(3), cells)[2] == 0.0
    report = solve_xi_star(cells)
    assert outcomes[:2] == ["singular", "solved"]  # the fallback's first shift
    assert report.converged and report.residual_sup < 1e-8
    masses = power_cell_measures(report.psi, cells)
    assert np.abs(masses - 1.0 / 3.0).max() <= 1e-8


def test_initialization_sensitivity_diagnostic(grid1):
    """Qualitative reproduction of the baseline's fragility: from a 10x-random
    start the plain iteration fails or works harder than from zero on at
    least one seeded instance.  Recorded, not asserted per-seed."""
    rng = np.random.default_rng(0)
    rows = []
    for seed in (4, 8, 10):
        prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": seed})
        from_zero = newton_1d(prob, psi0=np.zeros(4))
        from_wild = newton_1d(prob, psi0=10.0 * rng.random(4))
        rows.append((seed, from_zero, from_wild))
        print(
            f"seed {seed}: zero-start conv={from_zero.converged} "
            f"({from_zero.iterations} it), 10x-random conv={from_wild.converged} "
            f"({from_wild.iterations} it)"
        )
    assert any(
        (not wild.converged) or wild.iterations > zero.iterations
        for _, zero, wild in rows
    )


def _count_diagrams(monkeypatch):
    calls = []
    original = IntervalCells.diagram

    def counting(self, weights):
        calls.append(np.array(weights))
        return original(self, weights)

    monkeypatch.setattr(IntervalCells, "diagram", counting)
    return calls


def test_one_interval_diagram_per_point(mirror_pair, grid1, monkeypatch):
    # masses and the measure Jacobian at one point share one diagram
    diagrams = _count_diagrams(monkeypatch)
    report = newton_1d(mirror_pair)
    assert report.converged and report.iterations > 0
    assert len(diagrams) == report.iterations + 1  # every Newton point is accepted

    diagrams.clear()
    points = []
    original = newton.power_cell_measures

    def recording(weights, cells):
        points.append(np.array(weights))
        return original(weights, cells)

    monkeypatch.setattr(newton, "power_cell_measures", recording)
    prob = build_problem({"variant": "p4", "dim": 1, "n_targets": 5, "seed": 3, "rho": {"kind": "gauss"}})
    report = solve_xi_star(cell_operands(prob.targets, prob.rho, grid1))
    assert report.converged and report.iterations > 0
    # one diagram per trial point; the Jacobians at accepted ones add none
    assert len(diagrams) == len(points)

    diagrams.clear()
    ev = ResidualSystem(prob, grid1).full(np.array([0.05, -0.02, 0.01, 0.0, -0.04]), 0.5)
    assert np.isfinite(ev.g).all() and np.isfinite(ev.jac).all() and np.isfinite(ev.dt).all()
    assert len(diagrams) == 1
