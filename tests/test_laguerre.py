from fractions import Fraction

import numpy as np
import pytest

from otpath import (
    ConfigError,
    Domain,
    KernelEvaluator,
    TargetSet,
    build_grid,
    build_problem,
    capture_snapshot,
    cell_operands,
    gaussian_bump_density,
    integrate_homotopy,
    power_cell_measures,
    sample_targets,
    triple_intersection_check,
    uniform_density,
    unit_domain,
    unregularized_residual,
)
from otpath import homotopy, laguerre
from otpath.laguerre import (
    FD_STEP,
    GridCells,
    IntervalCells,
    grid_labels,
    measure_jacobian,
)
from otpath import residuals
from otpath.kernel import _softmax
from otpath.model import cost_matrix, density_eval
from otpath.quadrature import refine_grid
from otpath.residuals import ResidualSystem
from conftest import on_matrix


def _interval_diagram(psi, targets, domain):
    """Interval operands under the uniform density, the (starts, ends) of
    their sorted cells at weights psi, and the per-target masses."""
    cells = IntervalCells(targets, domain, uniform_density(domain))
    starts, ends = cells.diagram(psi)
    return cells, starts, ends, power_cell_measures(psi, cells)


def _alive_ends(starts, ends):
    """Right ends of the nonempty sorted cells: the interfaces, then the
    domain end."""
    return ends[starts < ends]


def test_symmetric_boundary(dom1):
    targets = TargetSet(points=np.array([[0.0], [1.0]]))
    _, starts, ends, _ = _interval_diagram(np.zeros(2), targets, dom1)
    assert _alive_ends(starts, ends) == pytest.approx([0.5, 1.0], abs=1e-15)


def test_weighted_boundary_shift(dom1):
    # solving (x-0)^2 - d = (x-1)^2 by hand gives x = 1/2 + d/2
    targets = TargetSet(points=np.array([[0.0], [1.0]]))
    for delta in (0.1, -0.3, 0.42):
        _, starts, ends, _ = _interval_diagram(np.array([delta, 0.0]), targets, dom1)
        assert _alive_ends(starts, ends) == pytest.approx([0.5 + delta / 2, 1.0], abs=1e-14)


def test_dominant_middle_cell_absorbs_neighbors(dom1):
    targets = TargetSet(points=np.array([[0.1], [0.2], [0.9]]))
    _, starts, ends, measures = _interval_diagram(np.array([0.0, 50.0, 0.0]), targets, dom1)
    assert np.all(np.diff(ends) >= 0.0)
    assert list(starts < ends) == [False, True, False]
    assert measures[1] == pytest.approx(1.0, abs=1e-12)
    assert measures[0] == 0.0 and measures[2] == 0.0
    assert measures.sum() == pytest.approx(1.0, abs=1e-12)


def test_nonadjacent_domination(dom1):
    # weight 0.2 on the right target empties the middle cell (any weight
    # above 0.05 does) while leaving the left cell alive; the surviving
    # interface is the 0-2 bisector at 0.35 + (0 - 0.2) / (2 * 0.5) = 0.15
    targets = TargetSet(points=np.array([[0.1], [0.5], [0.6]]))
    _, starts, ends, measures = _interval_diagram(np.array([0.0, 0.0, 0.2]), targets, dom1)
    assert _alive_ends(starts, ends) == pytest.approx([0.15, 1.0], abs=1e-12)
    assert measures[1] == 0.0
    assert measures.sum() == pytest.approx(1.0, abs=1e-12)
    assert measures[0] == pytest.approx(0.15, abs=1e-12)
    assert measures[2] == pytest.approx(0.85, abs=1e-12)
    # the only interface joins targets 0 and 2; the emptied cell has none
    cells = IntervalCells(targets, dom1, uniform_density(dom1))
    masses, jac = measure_jacobian(np.array([0.0, 0.0, 0.2]), cells)
    assert np.array_equal(masses, measures)
    assert np.all(jac[1] == 0.0) and np.all(jac[:, 1] == 0.0)
    assert jac[0, 2] == pytest.approx(-1.0 / (2 * 0.5), abs=1e-15)


def test_unsorted_targets_handled(dom1):
    # construction order differs from coordinate order; the permutation tracks it
    targets = TargetSet(points=np.array([[0.7], [0.3]]))
    cells, starts, ends, measures = _interval_diagram(np.array([0.0, 0.0]), targets, dom1)
    assert list(cells.order) == [1, 0]
    assert _alive_ends(starts, ends) == pytest.approx([0.5, 1.0], abs=1e-15)
    assert measures == pytest.approx([0.5, 0.5], abs=1e-12)


def test_single_target_diagram_is_the_domain():
    box = Domain(lower=(-0.5,), upper=(2.0,))
    single = TargetSet(points=[[0.4]])
    cells, starts, ends, measures = _interval_diagram(np.array([3.0]), single, box)
    assert (starts[0], ends[0]) == (-0.5, 2.0)
    assert measures == pytest.approx([1.0], abs=1e-15)
    assert np.array_equal(measure_jacobian(np.array([3.0]), cells)[1], np.zeros((1, 1)))


def test_interval_cells_reject_higher_dim():
    two_d = TargetSet(points=np.array([[0.3, 0.0], [0.3, 1.0]]))
    with pytest.raises(ConfigError):
        IntervalCells(two_d, unit_domain(2), uniform_density(unit_domain(2)))


def cell_measures(psi, problem, grid):
    """Source-density cell masses at dual weights psi, on the route the
    problem's targets and cost pick."""
    cells = cell_operands(problem.targets, problem.mu, grid, problem.cost.exponent)
    return power_cell_measures(np.asarray(psi, dtype=float) - problem.offsets, cells)


def _grid_measures(psi, problem, grid):
    """cell_measures on the grid-label route, which 1-D quadratic cost skips."""
    cells = GridCells.build(problem.targets, grid, problem.mu)
    return power_cell_measures(np.asarray(psi, dtype=float) - problem.offsets, cells)


def test_symmetric_measures(dom1, grid1, mirror_pair):
    for m in (
        cell_measures(np.zeros(2), mirror_pair, grid1),
        _grid_measures(np.zeros(2), mirror_pair, grid1),
    ):
        assert np.allclose(m, [0.5, 0.5], atol=1e-9)


def test_modes_agree_on_random_instances(dom1, grid1):
    # Label-based masses carry one boundary sliver per interface, an
    # O(node spacing) error: ~1e-3 at the default 512 nodes, below 1e-4
    # at 8192 nodes.  Both levels are pinned here.
    fine = build_grid(dom1, 1024, 8)
    rng = np.random.default_rng(11)
    box = Domain(lower=(0.0,), upper=(5.0,))
    for trial in range(50):
        n = int(rng.integers(2, 17))
        targets = sample_targets(n, 1, box, seed=1000 + trial)
        psi = rng.uniform(-1.0, 1.0, n)
        density = uniform_density(dom1) if trial % 2 else gaussian_bump_density(dom1)
        exact = power_cell_measures(psi, cell_operands(targets, density, grid1))
        coarse = power_cell_measures(psi, GridCells.build(targets, grid1, density))
        refined = power_cell_measures(psi, GridCells.build(targets, fine, density))
        assert np.abs(exact - coarse).max() <= 5e-3
        assert np.abs(exact - refined).max() <= 1e-4
        assert exact.sum() == pytest.approx(1.0, abs=1e-9)


def test_measures_limit_of_kernel_grad(grid1, p1_1d):
    psi = np.array([0.2, -0.1, 0.3, 0.0])
    soft = -KernelEvaluator(p1_1d, grid1).evaluate(psi, 1.0 - 1e-4).grad
    hard = cell_measures(psi, p1_1d, grid1)
    assert np.abs(soft - hard).max() <= 1e-3


def test_shift_invariance(grid1, p1_1d):
    psi = np.array([0.5, -0.2, 0.1, 0.4])
    for measures in (cell_measures, _grid_measures):
        base = measures(psi, p1_1d, grid1)
        shifted = measures(psi + 3.3, p1_1d, grid1)
        assert np.abs(base - shifted).max() <= 1e-12


def test_measure_monotonicity(grid1, p1_1d):
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = rng.uniform(-0.5, 0.5, 4)
        j = int(rng.integers(0, 4))
        bump = np.zeros(4)
        bump[j] = rng.uniform(0.01, 0.5)
        before = cell_measures(psi, p1_1d, grid1)
        after = cell_measures(psi + bump, p1_1d, grid1)
        assert after[j] >= before[j] - 1e-12


def test_measure_jacobian_matches_finite_differences(dom1):
    rng = np.random.default_rng(13)
    targets = sample_targets(5, 1, dom1, seed=21)
    density = gaussian_bump_density(dom1)
    xi = rng.uniform(-0.2, 0.2, 5)
    cells = IntervalCells(targets, dom1, density)
    masses, jac = measure_jacobian(xi, cells)
    assert np.array_equal(masses, power_cell_measures(xi, cells))
    step = 1e-6
    fd = np.zeros((5, 5))
    for k in range(5):
        e = np.zeros(5)
        e[k] = step
        fd[:, k] = (
            power_cell_measures(xi + e, cells) - power_cell_measures(xi - e, cells)
        ) / (2 * step)
    assert np.abs(jac - fd).max() <= 1e-6
    assert np.abs(jac - jac.T).max() <= 1e-12
    assert np.abs(jac.sum(axis=1)).max() <= 1e-12


def test_smoothed_field_weights(grid1, p1_1d):
    field = capture_snapshot(ResidualSystem(p1_1d, grid1), np.zeros(4), 0.5)
    assert field.weights.shape == (grid1.n_nodes, 4)
    assert np.abs(field.weights.sum(axis=1) - 1.0).max() <= 1e-12
    assert field.labels.min() >= 0 and field.labels.max() < 4


def test_smoothed_field_sharpens_to_labels(grid1, p1_1d):
    psi = np.array([0.1, 0.0, -0.2, 0.3])
    field = capture_snapshot(ResidualSystem(p1_1d, grid1), psi, 1.0 - 1e-4)
    adjusted = (
        np.stack(
            [
                (grid1.nodes[:, 0] - y) ** 2
                for y in p1_1d.targets.points[:, 0]
            ],
            axis=1,
        )
        - psi[None, :]
    )
    gap = np.partition(adjusted, 1, axis=1)
    margin = gap[:, 1] - gap[:, 0]
    safe = margin > 0.01
    mass_on_label = field.weights[np.arange(grid1.n_nodes), field.labels]
    assert mass_on_label[safe].mean() >= 1.0 - 1e-6


def test_smoothed_field_single_target(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.5]]})
    system = ResidualSystem(prob, grid1)
    field = capture_snapshot(system, np.zeros(1), 0.7)
    assert np.all(field.weights == 1.0)
    assert np.all(field.labels == 0)
    with pytest.raises(ValueError):
        capture_snapshot(system, np.zeros(1), -0.1)  # no softmax before t = 0


def test_label_field_has_no_weights(grid1, p1_1d):
    system = ResidualSystem(p1_1d, grid1)
    field = capture_snapshot(system, np.zeros(4), 1.0)
    assert field.weights is None
    # the t = 1 labels are the kernel cells' labels at psi - offsets
    assert np.array_equal(field.labels, grid_labels(np.zeros(4), system.kernel.cells))


def test_unregularized_residual_single_target(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.4]]})
    for val in (0.0, 0.7, -0.3):
        res = unregularized_residual(prob, np.array([val]), grid1)
        assert res[0] == pytest.approx(np.exp(-val) - 1.0, abs=1e-12)


def test_unregularized_residual_symmetric_solution(grid1, mirror_pair):
    res = unregularized_residual(mirror_pair, np.log(2.0) * np.ones(2), grid1)
    assert np.abs(res).max() <= 1e-12


def test_unregularized_residual_p4_symmetric(grid1):
    # equal-mass symmetric instance: rho-cells(-psi) = mu-cells(psi) at psi = 0
    prob = build_problem(
        {
            "variant": "p4",
            "dim": 1,
            "targets": [[0.25], [0.75]],
            "rho": {"kind": "gauss"},
        }
    )
    res = unregularized_residual(prob, np.zeros(2), grid1)
    assert np.abs(res).max() <= 1e-12


def test_triple_intersection_trivial_cases(grid1, mirror_pair):
    assert triple_intersection_check(np.zeros(2), mirror_pair, grid1) == 0


def test_triple_intersection_detects_meeting_point(grid1):
    # equispaced targets: near x=0.5 the outer costs are within 0.09 of the
    # middle one, so a wide eps must flag nodes there
    prob = build_problem(
        {"variant": "p1", "dim": 1, "targets": [[0.2], [0.5], [0.8]]}
    )
    assert triple_intersection_check(np.zeros(3), prob, grid1, eps=0.1) >= 1
    # with a tight eps the same layout is clean
    assert triple_intersection_check(np.zeros(3), prob, grid1, eps=1e-6) == 0


def test_cell_operands_route(dom1, dom2, grid1, grid2):
    # the interval route covers 1-D quadratic cost only; cubic cost and 2-D
    # targets take grid labels
    targets = TargetSet(points=np.array([[0.2], [0.6]]))
    interval = cell_operands(targets, uniform_density(dom1), grid1)
    assert isinstance(interval, IntervalCells) and interval.domain == dom1
    assert power_cell_measures(np.zeros(2), interval) == pytest.approx([0.4, 0.6], abs=1e-15)
    cubic = cell_operands(targets, uniform_density(dom1), grid1, cost_exponent=3.0)
    assert isinstance(cubic, GridCells) and cubic.cost.shape == (2, grid1.n_nodes)
    planar = TargetSet(points=np.array([[0.2, 0.5], [0.6, 0.5]]))
    grid_cells = cell_operands(planar, uniform_density(dom2), grid2)
    assert isinstance(grid_cells, GridCells) and grid_cells.n == 2
    assert grid_cells.spacing == pytest.approx(1.0 / (48 * 6))
    with pytest.raises(ConfigError):
        IntervalCells(planar, dom2, uniform_density(dom2))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["uniform", "gauss"])
def test_node_masses_match_density_eval(dim, kind):
    # the per-axis construction is the same float expression as the
    # quadrature weights times `density_eval` at the nodes
    dom = Domain(lower=(-0.5, 0.25)[:dim], upper=(1.5, 1.0)[:dim])
    grid = build_grid(dom, 7, 5)
    targets = sample_targets(3, dim, dom, seed=1)
    if kind == "uniform":
        density = uniform_density(dom)
    else:
        density = gaussian_bump_density(dom, center=(0.3, 0.6)[:dim], sharpness=7.0)
    cells = GridCells.build(targets, grid, density, 3.0)
    assert np.array_equal(cells.node_mass, grid.weights * density_eval(density, grid.nodes))


def _first_sweep_bound(cells):
    """The largest |cost| as a chunked pass over the cost finds it."""
    bound = 0.0
    for _, block in cells.blocks():
        bound = max(bound, block.max(), -block.min())
    return float(bound)


@pytest.mark.parametrize("dim, exponent", [(1, 2.0), (1, 3.0), (2, 2.0), (2, 3.0)])
def test_jacobian_constants_fixed_at_build(dim, exponent):
    # the step and the cost bound set at construction are those a measure
    # Jacobian would form from the targets and from one sweep over the cost
    dom = unit_domain(dim)
    grid = build_grid(dom, 41 if dim == 2 else 64, 5)  # 2-D: a partial last chunk
    for seed in range(3):
        targets = sample_targets(5, dim, Domain(lower=(-0.5,) * dim, upper=(1.5,) * dim), seed)
        cells = GridCells.build(targets, grid, gaussian_bump_density(dom), exponent)
        assert (cells.tables is not None) == (dim == 2 and exponent == 2.0) == (cells.cost is None)
        assert cells._fd_step == _fd_step(cells)
        assert cells._cost_max == _first_sweep_bound(cells)
        assert cells._cost_max == np.abs(cost_matrix(targets.points, grid.nodes, exponent, grid.axes)).max()


def test_sweep_keeps_labels_and_boundary_minima(dom2):
    # the labels do not depend on `reach`; with it, the boundary nodes, their
    # minimum and runner-up, cost columns and runner-up label equal a
    # whole-matrix reference, though the chunked sweep keeps both values per
    # chunk only and the row pass compares in floats near cell boundaries only
    targets = sample_targets(6, 2, dom2, seed=5)
    grid = build_grid(dom2, 24, 6)  # 20,736 nodes: three chunks
    cells = GridCells.build(targets, grid, gaussian_bump_density(dom2))
    matrix = on_matrix(cells, grid)
    cost = cost_matrix(targets.points, None, 2.0, grid.axes)
    rng = np.random.default_rng(4)
    for _ in range(3):
        weights = rng.uniform(-0.2, 0.2, 6)
        shifted = cost - weights[:, None]
        values = np.sort(shifted, axis=0)
        for swept in (cells, matrix):
            labels = swept._sweep(weights)
            assert np.array_equal(labels, np.argmin(shifted, axis=0))
            for reach in (0.0, 1e-3, 0.05):
                got, nodes, columns, best, second, runner = swept._sweep(weights, reach)
                assert np.array_equal(got, labels)
                expected = np.flatnonzero(values[1] <= values[0] + reach)
                assert np.array_equal(nodes, expected)
                assert np.array_equal(best, values[0, expected]) and np.array_equal(second, values[1, expected])
                assert np.array_equal(columns, cost[:, expected])
                others = shifted[:, expected]
                others[labels[expected], np.arange(expected.size)] = np.inf
                assert np.array_equal(runner, np.argmin(others, axis=0))


def test_grid_labels_match_argmin_on_exact_ties():
    # small integers make exact ties between targets common
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7):
        cost = rng.integers(0, 4, size=(n, 500)).astype(float)
        weights = rng.integers(0, 3, size=n).astype(float)
        expected = np.argmin((cost - weights[:, None]).T, axis=1)
        targets = TargetSet(points=np.arange(n, dtype=float)[:, None])
        cells = GridCells(targets=targets, cost=cost, node_mass=np.ones(500), spacing=1.0)
        assert np.array_equal(grid_labels(weights, cells), expected)


@pytest.mark.parametrize("dim, exponent", [(1, 2.0), (2, 2.0), (2, 3.0)])
def test_grid_labels_match_argmin(dim, exponent):
    grid = build_grid(unit_domain(dim), 16, 4)
    density = uniform_density(unit_domain(dim))
    rng = np.random.default_rng(dim)
    for trial in range(5):
        targets = sample_targets(6, dim, unit_domain(dim), seed=trial)
        weights = rng.uniform(-0.2, 0.2, 6)
        costs = cost_matrix(targets.points, grid.nodes, exponent).T
        expected = np.argmin(costs - weights[None, :], axis=1)
        cells = GridCells.build(targets, grid, density, exponent)
        assert np.array_equal(grid_labels(weights, cells), expected)
    # a node equidistant from two equal-weight targets goes to the lower index
    pair = TargetSet(points=np.array([[0.75] * dim, [0.25] * dim]))
    mid = build_grid(unit_domain(dim), 1, 3)  # the node at the box center
    labels = grid_labels(np.zeros(2), GridCells.build(pair, mid, density, exponent))
    assert labels[(mid.n_nodes - 1) // 2] == 0


def _bincount_masses(weights, targets, grid, density):
    """Node-major argmin labels and bincount: the pre-target-major route."""
    costs = cost_matrix(targets.points, grid.nodes, 2.0).T
    labels = np.argmin(costs - weights[None, :], axis=1)
    node_mass = grid.weights * density_eval(density, grid.nodes)
    return np.bincount(labels, weights=node_mass, minlength=targets.n)


def _bincount_jacobian(weights, targets, grid, density, step):
    """Central differences of full-cell totals: the 2N-sweep route."""
    n = targets.n
    jac = np.zeros((n, n))
    for k in range(n):
        bump = np.zeros(n)
        bump[k] = step
        plus = _bincount_masses(weights + bump, targets, grid, density)
        minus = _bincount_masses(weights - bump, targets, grid, density)
        jac[:, k] = (plus - minus) / (2.0 * step)
    return 0.5 * (jac + jac.T)


def _fd_step(cells):
    pts = cells.targets.points
    gaps = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return max(FD_STEP, 2.0 * cells.spacing * float(gaps.max()))


def _moved_node_jacobian(weights, cells, cost):
    """Naive 2N-sweep reference of the grid measure Jacobian on the (N, M)
    matrix `cost` of the cells.

    Labels every node by argmin at weights and at weights +- step on each
    coordinate; column k sums, in node order, the masses of the nodes whose
    label changed under +step, then those under -step: + on row k, - on the
    row the node left (+step) or went to (-step)."""
    n = cells.n
    step = _fd_step(cells)
    mass = cells.node_mass
    base = np.argmin(cost - weights[:, None], axis=0)
    jac = np.zeros((n, n))
    for k in range(n):
        bump = np.zeros(n)
        bump[k] = step
        plus = np.argmin(cost - (weights + bump)[:, None], axis=0)
        minus = np.argmin(cost - (weights - bump)[:, None], axis=0)
        up = np.flatnonzero(plus != base)
        down = np.flatnonzero(minus != base)
        assert np.all(plus[up] == k) and np.all(base[down] == k)
        rows = np.concatenate([np.full(up.size, k), base[up], np.full(down.size, k), minus[down]])
        moved = np.concatenate([mass[up], -mass[up], mass[down], -mass[down]])
        jac[:, k] = np.bincount(rows, weights=moved, minlength=n) / (2.0 * step)
    return 0.5 * (jac + jac.T)


def test_p4_2d_grid_cells_bit_identical_to_bincount(dom2):
    grid = build_grid(dom2, 24, 6)
    prob = build_problem(
        {"variant": "p4", "dim": 2, "n_targets": 6, "seed": 4, "rho": {"kind": "gauss"}}
    )
    system = ResidualSystem(prob, grid)
    # the kernel's and the rho cells stream tables of their own; the same
    # rho cells on the matrix give the same bits
    cost = cost_matrix(prob.targets.points, grid.nodes, 2.0, grid.axes)
    assert system.kernel.cells.cost is None and system.rho_cells.cost is None
    held = on_matrix(system.rho_cells, grid)
    assert np.array_equal(held.cost, cost)
    step = _fd_step(system.rho_cells)
    rng = np.random.default_rng(8)
    for _ in range(3):
        xi = rng.uniform(-0.1, 0.1, 6)
        expected = _bincount_masses(xi, prob.targets, grid, prob.rho)
        totals = _bincount_jacobian(xi, prob.targets, grid, prob.rho, step)
        for cells in (cell_operands(prob.targets, prob.rho, grid), system.rho_cells, held):
            assert np.array_equal(power_cell_measures(xi, cells), expected)
            masses, jac = measure_jacobian(xi, cells)
            assert np.array_equal(masses, expected)
            assert np.array_equal(jac, _moved_node_jacobian(xi, cells, cost))
            # the moved-node sums agree with differences of full-cell totals
            assert np.abs(jac - totals).max() <= 1e-12
    cubic = build_problem(
        {"variant": "p4", "dim": 2, "n_targets": 6, "seed": 4, "rho": {"kind": "gauss"},
         "cost_exponent": 3}
    )
    cubic_cells = ResidualSystem(cubic, grid).rho_cells  # the inner cost stays quadratic
    assert cubic_cells.cost is None
    for got, ref in zip(cubic_cells.tables, system.rho_cells.tables):
        assert np.array_equal(got, ref)


def test_grid_jacobian_runs_at_most_one_label_sweep(dom2, monkeypatch):
    sweeps = []
    original = GridCells._sweep

    def counting(self, *args):
        sweeps.append(1)
        return original(self, *args)

    monkeypatch.setattr(GridCells, "_sweep", counting)
    targets = sample_targets(6, 2, dom2, seed=3)
    cells = GridCells.build(targets, build_grid(dom2, 8, 4), gaussian_bump_density(dom2))
    measure_jacobian(np.random.default_rng(0).uniform(-0.1, 0.1, 6), cells)
    assert len(sweeps) == 1  # masses and Jacobian together


def _held(cells):
    """Every attribute of the operands, and each of their per-axis tables."""
    held = {f"cells.{k}": v for k, v in vars(cells).items()}
    for d, table in enumerate(getattr(cells, "tables", None) or ()):
        held[f"cells.tables[{d}]"] = table
    return held


def _assert_holds(cells, before):
    """`cells` hold the very objects of `before`, and no array they hold
    can be written."""
    after = _held(cells)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(v.flags.writeable for v in after.values() if isinstance(v, np.ndarray))


def test_cell_operands_keep_no_evaluation(dom1, dom2, monkeypatch):
    # masses, Jacobians and labels are returned, not kept: after evaluations
    # at two weight vectors the operands hold what they were built with (the
    # cost as per-axis tables or as the matrix, the node masses, and the
    # Jacobian's step and largest |cost|, both set at build)
    rng = np.random.default_rng(3)
    interval = IntervalCells(sample_targets(5, 1, dom1, seed=2), dom1, gaussian_bump_density(dom1))
    grid = build_grid(dom2, 8, 4)
    targets = sample_targets(5, 2, dom2, seed=2)
    planar = GridCells.build(targets, grid, gaussian_bump_density(dom2))
    held = on_matrix(planar, grid)
    cost = cost_matrix(targets.points, grid.nodes, 2.0, grid.axes)
    assert planar.cost is None and held.tables is None and np.array_equal(held.cost, cost)
    for cells in (interval, planar, held):
        before = _held(cells)
        for _ in range(2):
            weights = rng.uniform(-0.1, 0.1, 5)
            power_cell_measures(weights, cells)
            measure_jacobian(weights, cells)
            if cells is not interval:
                grid_labels(weights, cells)
        if cells is not interval:
            assert before["cells._cost_max"] == np.abs(cost).max()
            node_length = [k for k, v in before.items() if getattr(v, "shape", None) == (grid.n_nodes,)]
            assert node_length == ["cells.node_mass"]
        _assert_holds(cells, before)

    # a p4 2-D run: stages, equal-mass start and terminal residual on the
    # base and boosted systems leave their kernel and rho cells as built
    systems = []

    class Recording(ResidualSystem):
        def __init__(self, problem, grid):
            super().__init__(problem, grid)
            systems.append([(c, _held(c)) for c in (self.kernel.cells, self.rho_cells)])

    monkeypatch.setattr(homotopy, "ResidualSystem", Recording)
    prob = build_problem(
        {"variant": "p4", "dim": 2, "n_targets": 4, "seed": 4, "rho": {"kind": "gauss"}}
    )
    integrate_homotopy(prob, 0.25, build_grid(dom2, 8, 4), snapshot_times=(0.5, 1.0))
    assert len(systems) == 2
    for (kernel_cells, kernel_held), (rho_cells, rho_held) in systems:
        assert kernel_cells.cost is None and rho_cells.cost is None
        _assert_holds(kernel_cells, kernel_held)
        _assert_holds(rho_cells, rho_held)


@pytest.mark.parametrize("panels, order", [(24, 6), (31, 5), (1, 3)])
def test_streamed_blocks_are_the_matrix_columns(panels, order):
    # every chunk formed from the per-axis tables is the matrix's block to
    # the bit, for targets in and far outside the box, chunks cutting axis
    # rows (24x6, 31x5) and a grid smaller than one chunk
    dom = Domain(lower=(-0.5, 0.25), upper=(1.5, 1.0))
    grid = build_grid(dom, panels, order)
    for seed, spread in ((0, 1.0), (1, 1e3)):
        box = Domain(lower=(-spread, -spread), upper=(spread, spread))
        targets = sample_targets(5, 2, box, seed)
        cells = GridCells.build(targets, grid, uniform_density(dom))
        matrix = cost_matrix(targets.points, grid.nodes, 2.0, grid.axes)
        covered = 0
        for lo, block in cells.blocks():
            assert np.array_equal(block, matrix[:, lo : lo + block.shape[1]])
            covered += block.shape[1]
        assert cells.tables is not None and covered == grid.n_nodes


@pytest.mark.parametrize("kind", ["uniform", "gauss"])
def test_measure_jacobian_same_bits_from_tables_and_matrix(dom2, kind):
    # the boundary-node columns gathered from the per-axis tables are the
    # matrix's entries, so masses and Jacobian keep every bit
    grid = build_grid(dom2, 24, 6)  # chunk boundaries inside axis rows
    density = uniform_density(dom2) if kind == "uniform" else gaussian_bump_density(dom2)
    rng = np.random.default_rng(7)
    for seed in range(3):
        tables = GridCells.build(sample_targets(6, 2, dom2, seed), grid, density)
        matrix = on_matrix(tables, grid)
        for scale in (0.02, 0.2):
            weights = rng.uniform(-scale, scale, 6)
            weights[seed] -= 1.0 if scale == 0.2 else 0.0  # an empty or small cell
            for got, ref in zip(measure_jacobian(weights, tables), measure_jacobian(weights, matrix)):
                assert np.array_equal(got, ref)


def _assert_matches_moved_node_reference(weights, cells, cost):
    jac = measure_jacobian(weights, cells)[1]
    assert np.array_equal(jac, _moved_node_jacobian(weights, cells, cost))
    return jac


def _check_one_sweep(weights, cells, cost):
    """Masses and Jacobian at `weights` from one `measure_jacobian` call,
    against `power_cell_measures`, grid_labels + bincount and the moved-node
    reference on the matrix `cost`."""
    labels = grid_labels(weights, cells)
    expected = np.bincount(labels, weights=cells.node_mass, minlength=cells.n)
    masses, jac = measure_jacobian(weights, cells)
    assert np.array_equal(masses, expected)
    assert np.array_equal(masses, power_cell_measures(weights, cells))
    assert np.array_equal(jac, _moved_node_jacobian(weights, cells, cost))
    return masses


def test_grid_jacobian_matches_moved_node_reference_on_random_weights(dom1, dom2):
    # bit-identity needs the same moved nodes on both sides: one node more
    # or less shifts an entry by a whole node mass.  The masses come from the
    # Jacobian's sweep, as in a stage.
    rng = np.random.default_rng(11)
    operands = []
    for dim, exponent, n in ((2, 2.0, 1), (2, 2.0, 2), (2, 2.0, 6), (2, 3.0, 5), (1, 3.0, 4), (2, 2.0, 9)):
        dom = unit_domain(dim)
        targets = sample_targets(n, dim, dom, seed=n)
        grid = build_grid(dom, 8 if dim == 2 else 32, 4)
        cells = GridCells.build(targets, grid, gaussian_bump_density(dom), exponent)
        operands.append((cells, cost_matrix(targets.points, grid.nodes, exponent, grid.axes)))
    # small integer costs and weights with a dyadic step: exact ties
    cost = rng.integers(0, 4, size=(4, 700)).astype(float)
    tied = GridCells(
        targets=TargetSet(points=np.arange(4.0)[:, None]),
        cost=cost,
        node_mass=rng.uniform(0.5, 1.5, 700),
        spacing=0.25,
    )
    operands.append((tied, cost))
    emptied = 0
    for trial in range(1000):
        cells, cost = operands[trial % len(operands)]
        if cells is tied:
            weights = rng.integers(0, 3, size=cells.n).astype(float)
        else:
            scale = (0.02, 0.2, 1.0)[trial % 3]
            weights = rng.uniform(-scale, scale, cells.n)
        if trial % 5 == 0 and cells.n > 1:
            weights[0] = -10.0  # far out of reach: cell 0 is empty
        emptied += _check_one_sweep(weights, cells, cost)[0] == 0.0 and cells.n > 1
        # the caller changes its array in place between calls
        weights[trial % cells.n] += 1.0 if cells is tied else 0.05
        _check_one_sweep(weights, cells, cost)
    assert emptied >= 150


def test_grid_jacobian_matches_reference_along_the_p4_2d_trajectory(dom2, monkeypatch):
    # every stage Jacobian of the p4_2d benchmark run, base and boosted grids
    prob = build_problem(
        {"variant": "p4", "dim": 2, "n_targets": 6, "seed": 4, "rho": {"kind": "gauss"}}
    )
    calls = []
    original = residuals.measure_jacobian

    def recording(weights, cells):
        calls.append((np.array(weights), cells))
        return original(weights, cells)

    monkeypatch.setattr(residuals, "measure_jacobian", recording)
    grid = build_grid(dom2, 24, 6)
    integrate_homotopy(prob, 0.1, grid)
    costs = {
        g.n_nodes: cost_matrix(prob.targets.points, g.nodes, 2.0, g.axes)
        for g in (grid, refine_grid(grid, homotopy.BOOST_FACTOR))
    }
    assert {cells.node_mass.size for _, cells in calls} == set(costs) == {20736, 82944}
    for weights, cells in calls:
        _assert_matches_moved_node_reference(weights, cells, costs[cells.node_mass.size])


class _ReadCounter(np.ndarray):
    """A cost matrix that logs the entries each indexing reads.  The views it
    hands out are plain arrays, so a chunk is counted once, when taken."""

    def __getitem__(self, key):
        part = np.ndarray.__getitem__(self, key).view(np.ndarray)
        gather = any(isinstance(k, np.ndarray) for k in (key if isinstance(key, tuple) else (key,)))
        self.reads.append((gather, part.size))
        return part


def test_p4_stage_jacobian_sweeps_the_rho_matrix_once(dom2):
    # masses and Jacobian at one point: one pass over the (N, M) matrix,
    # whose chunks hand on the boundary nodes' columns, so none is read again
    prob = build_problem(
        {"variant": "p4", "dim": 2, "n_targets": 6, "seed": 4, "rho": {"kind": "gauss"}}
    )
    grid = build_grid(dom2, 24, 6)
    system = ResidualSystem(prob, grid)
    rho = system.rho_cells
    cost = cost_matrix(prob.targets.points, grid.nodes, 2.0)
    counted = cost.view(_ReadCounter)
    counted.reads = []
    system.rho_cells = GridCells(
        targets=rho.targets, cost=counted, node_mass=rho.node_mass, spacing=rho.spacing
    )
    psi = np.random.default_rng(2).uniform(-0.05, 0.05, 6)
    jac = system.full(psi, 0.5).jac
    n, m = cost.shape
    swept = sum(size for gather, size in counted.reads if not gather)
    gathers = [size for gather, size in counted.reads if gather]
    assert swept == n * m
    assert gathers == []
    # the same bits as the streamed rho cells
    assert np.array_equal(jac, ResidualSystem(prob, grid).full(psi, 0.5).jac)


def test_grid_jacobian_single_target_is_zero(dom2):
    single = TargetSet(points=np.array([[0.3, 0.6]]))
    grid = build_grid(dom2, 8, 4)
    cells = GridCells.build(single, grid, uniform_density(dom2))
    cost = cost_matrix(single.points, grid.nodes, 2.0, grid.axes)
    jac = _assert_matches_moved_node_reference(np.array([0.4]), cells, cost)
    assert np.array_equal(jac, np.zeros((1, 1)))


def test_grid_jacobian_with_empty_cells(dom2):
    targets = sample_targets(5, 2, dom2, seed=2)
    grid = build_grid(dom2, 8, 4)
    cells = GridCells.build(targets, grid, gaussian_bump_density(dom2))
    cost = cost_matrix(targets.points, grid.nodes, 2.0, grid.axes)
    step = _fd_step(cells)
    weights = np.zeros(5)
    cand = cost - weights[:, None]
    # target 0 just out of reach: empty, but +step on it takes nodes
    weights[0] += (cand[0] - cand[1:].min(axis=0)).min() - 0.5 * step
    assert power_cell_measures(weights, cells)[0] == 0.0
    jac = _assert_matches_moved_node_reference(weights, cells, cost)
    assert jac[0, 0] > 0.0
    # target 0 far out of reach: its row and column vanish
    weights[0] = -10.0
    jac = _assert_matches_moved_node_reference(weights, cells, cost)
    assert np.all(jac[0] == 0.0) and np.all(jac[:, 0] == 0.0)


def test_grid_jacobian_on_exact_ties():
    # small integer costs and weights with a dyadic step make exact ties
    # between rows common, before and after each perturbation
    rng = np.random.default_rng(5)
    tied = 0
    for n in (1, 2, 3, 7):
        targets = TargetSet(points=np.arange(n, dtype=float)[:, None])
        for spacing in (0.25, 0.5):
            for _ in range(20):
                cost = rng.integers(0, 4, size=(n, 500)).astype(float)
                weights = rng.integers(0, 3, size=n).astype(float)
                mass = rng.uniform(0.5, 1.5, 500)
                cells = GridCells(targets=targets, cost=cost, node_mass=mass, spacing=spacing)
                raised = cost - (weights + _fd_step(cells))[:, None]
                tied += np.count_nonzero(raised == (cost - weights[:, None]).min(axis=0))
                _assert_matches_moved_node_reference(weights, cells, cost)
    assert tied > 0


def _assert_row_pass_is_the_sweep(weights, cells, grid):
    """The label pass of `cells` against the chunked sweep of the same cells
    on the matrix, bit for bit: labels, boundary nodes with their columns,
    values and runner-up labels at three reaches, masses and Jacobian; the
    Jacobian also against the moved-node reference."""
    matrix = on_matrix(cells, grid)
    labels = grid_labels(weights, cells)
    assert np.array_equal(labels, np.argmin(matrix.cost - weights[:, None], axis=0))
    assert np.array_equal(labels, grid_labels(weights, matrix))
    for reach in (0.0, cells._fd_step, 0.05):
        for got, ref in zip(cells._sweep(weights, reach), matrix._sweep(weights, reach)):
            assert np.array_equal(got, ref)
    assert np.array_equal(power_cell_measures(weights, cells), power_cell_measures(weights, matrix))
    masses, jac = measure_jacobian(weights, cells)
    ref_masses, ref_jac = measure_jacobian(weights, matrix)
    assert np.array_equal(masses, ref_masses) and np.array_equal(jac, ref_jac)
    assert np.array_equal(jac, _moved_node_jacobian(weights, cells, matrix.cost))
    return labels


def _spy_row_runs(monkeypatch):
    """The (N, n1, n2) of every call of the row function from now on."""
    calls = []
    original = laguerre._row_runs

    def recording(coords, axis, d1, weights, margin):
        calls.append(d1.shape + axis.shape)
        return original(coords, axis, d1, weights, margin)

    monkeypatch.setattr(laguerre, "_row_runs", recording)
    return calls


@pytest.mark.parametrize("n", [1, 2, 6, 12, 17, 24])
def test_row_pass_matches_the_sweep_on_random_cells(n, monkeypatch):
    # p4 rho cells and p1 kernel cells on the base grid and the boosted one;
    # every pass of the tables labels row by row, N = 17 and 24 on the 144
    # nodes of a base axis row included
    calls = _spy_row_runs(monkeypatch)
    base = build_grid(unit_domain(2), 24, 6)
    rng = np.random.default_rng(n)
    for grid in (base, refine_grid(base, homotopy.BOOST_FACTOR)):
        p4 = build_problem({"variant": "p4", "dim": 2, "n_targets": n, "seed": 4, "rho": {"kind": "gauss"}})
        p1 = build_problem({"variant": "p1", "dim": 2, "n_targets": n, "seed": 9})
        for cells in (ResidualSystem(p4, grid).rho_cells, KernelEvaluator(p1, grid).cells):
            calls.clear()
            for scale in (0.02, 0.3):
                _assert_row_pass_is_the_sweep(rng.uniform(-scale, scale, n), cells, grid)
            assert calls and set(calls) == {(n,) + tuple(a.size for a in grid.axes)}


def test_row_pass_edge_cases(monkeypatch):
    calls = _spy_row_runs(monkeypatch)
    dom = unit_domain(2)
    grid = build_grid(dom, 8, 4)  # 32 nodes per axis row
    density = gaussian_bump_density(dom)

    def cells_of(points):
        return GridCells.build(TargetSet(points=np.array(points, dtype=float)), grid, density)

    rng = np.random.default_rng(6)
    # two targets share a second coordinate: parallel lines on every row,
    # so every row takes the float pass
    shared = cells_of([[0.2, 0.5], [0.8, 0.5], [0.5, 0.1], [0.4, 0.9]])
    for weights in ([0.0, 0.0, 0.0, 0.0], [0.05, 0.0, 0.0, 0.0], [0.0, 0.36, 0.0, 0.0]):
        _assert_row_pass_is_the_sweep(np.array(weights), shared, grid)
    for _ in range(20):
        _assert_row_pass_is_the_sweep(rng.uniform(-0.2, 0.2, 4), shared, grid)
    assert calls == []
    # targets outside the box, an empty cell, and one cell that swallows
    # whole rows (here every row)
    outside = cells_of([[-0.5, 1.7], [1.4, -0.3], [0.5, 0.5], [2.0, 0.4]])
    for _ in range(10):
        _assert_row_pass_is_the_sweep(rng.uniform(-0.5, 0.5, 4), outside, grid)
    assert calls
    labels = _assert_row_pass_is_the_sweep(np.array([0.0, 0.0, -10.0, 0.0]), outside, grid)
    assert not np.any(labels == 2)
    labels = _assert_row_pass_is_the_sweep(np.array([0.0, 0.0, 5.0, 0.0]), outside, grid)
    assert np.all(labels == 2)
    rows = grid_labels(np.array([0.0, 0.0, 0.6, -0.3]), outside).reshape(32, 32)
    assert np.all(rows == rows[:, :1], axis=1).any()  # some row has one owner
    # six targets on 32 nodes per axis row (N^2 > n2) label row by row too,
    # with the bits of the chunked sweep
    many = cells_of(rng.uniform(0.0, 1.0, (6, 2)))
    weights = rng.uniform(-0.2, 0.2, 6)
    reach = many._fd_step
    calls.clear()
    for got, ref in zip(many._sweep(weights, reach), on_matrix(many, grid)._sweep(weights, reach)):
        assert np.array_equal(got, ref)
    assert calls == [(6, 32, 32)]
    # nodes exactly on a bisector go to the lower index: on the 3x5 grid the
    # middle node of each axis is 0.5, and (0.75 - 0.5)^2 = (0.25 - 0.5)^2
    mid = build_grid(dom, 3, 5)
    for points in ([[0.3, 0.75], [0.3, 0.25], [0.9, 0.9]], [[0.3, 0.25], [0.3, 0.75], [0.9, 0.9]]):
        cells = GridCells.build(TargetSet(points=np.array(points)), mid, density)
        assert mid.axes[1][7] == 0.5
        calls.clear()
        labels = _assert_row_pass_is_the_sweep(np.array([0.0, 0.0, -2.0]), cells, mid)
        assert np.all(labels.reshape(15, 15)[:, 7] == 0)  # the third cell is empty
        assert calls


def test_row_pass_keeps_its_rounding_slack():
    # two targets on one vertical line, 2^-30 apart, on the axis row p
    # where d1 = 0: at node (p, q) target 1's exact value lies 1e-19 below
    # target 0's, far under one rounding of either, and the float sweep
    # gives the node to target 0.  The node lies 5e-11 inside target 1's
    # side of the exact bisector, beyond the bounds' own slack of 1e-12
    # times the largest |coordinate|, so only the margin's rounding slack
    # (margin = reach + 1e-12 * (...)) keeps it out of target 1's run.
    dom = unit_domain(2)
    grid = build_grid(dom, 8, 4)
    (x0, x1), p, q, a, delta = grid.axes, 5, 9, 0.5, 2.0**-30
    x = Fraction(float(x1[q]))
    omega = float((Fraction(a + delta) - x) ** 2 - (Fraction(a) - x) ** 2 + Fraction(1, 10**19))
    advantage = (Fraction(a) - x) ** 2 - (Fraction(a + delta) - x) ** 2 + Fraction(omega)
    assert 0.5e-19 < advantage < 2e-19 and advantage / (2 * Fraction(delta)) > 2e-11
    points = np.array([[x0[p], a], [x0[p], a + delta]])
    cells = GridCells.build(TargetSet(points=points), grid, gaussian_bump_density(dom))
    labels = _assert_row_pass_is_the_sweep(np.array([0.0, omega]), cells, grid)
    assert labels[p * x1.size + q] == 0


# 1,024 nodes (one chunk); 10,000 (100 per axis row: the chunk boundary at
# node 8,192 falls inside row 81); 20,736 (two full chunks and a partial one,
# the boundaries inside rows 56 and 113)
_STREAM_GRIDS = ((8, 4), (20, 5), (24, 6))


@pytest.mark.parametrize("panels, order", _STREAM_GRIDS)
def test_streamed_passes_match_the_matrix_route(panels, order):
    # labels, sweeps, masses and softmax weights formed chunk by chunk
    # from the per-axis tables equal, bit for bit, those read from a matrix
    grid = build_grid(unit_domain(2), panels, order)
    assert grid.n_nodes <= laguerre.CHUNK_NODES or grid.n_nodes % laguerre.CHUNK_NODES
    prob = build_problem({"variant": "p3", "dim": 2, "n_targets": 7, "seed": 6, "anchor": [0.4, 0.6]})
    ke = KernelEvaluator(prob, grid)
    cells = ke.cells
    matrix = on_matrix(cells, grid)
    rng = np.random.default_rng(panels)
    for _ in range(3):
        weights = rng.uniform(-0.3, 0.3, prob.n)
        expected = np.argmin(matrix.cost - weights[:, None], axis=0)
        assert np.array_equal(grid_labels(weights, cells), expected)
        assert np.array_equal(grid_labels(weights, matrix), expected)
        assert np.array_equal(cells._sweep(weights), matrix._sweep(weights))
        for got, ref in zip(cells._sweep(weights, 0.01), matrix._sweep(weights, 0.01)):
            assert np.array_equal(got, ref)
        assert np.array_equal(power_cell_measures(weights, cells), power_cell_measures(weights, matrix))
        psi = prob.offsets + weights
        for t in (0.0, 0.5, 0.99):
            # the unchunked softmax over the whole matrix
            whole = _softmax(psi - prob.offsets, t, matrix.cost).T
            assert np.array_equal(ke.node_weights(psi, t), whole)
    assert cells.cost is None  # every pass above streamed, and no matrix was kept


@pytest.mark.parametrize("exponent", [2.0, 3.0])
@pytest.mark.parametrize("variant", ["p1", "p4"])
def test_streamed_terminal_residual_matches_the_matrix_route(monkeypatch, variant, exponent):
    # fresh operands stream their quadratic cost (the p4 rho cells from
    # tables of their own) and build no matrix; on explicit matrices the
    # residual is the same, bit for bit
    grid = build_grid(unit_domain(2), 20, 5)
    config = {"variant": variant, "dim": 2, "n_targets": 6, "seed": 4, "cost_exponent": exponent}
    if variant == "p4":
        config["rho"] = {"kind": "gauss"}
    prob = build_problem(config)
    built = []

    def counting(*args):
        built.append(args)
        return cost_matrix(*args)

    monkeypatch.setattr(laguerre, "cost_matrix", counting)
    psi = np.random.default_rng(1).uniform(-0.1, 0.1, prob.n)
    streamed = unregularized_residual(prob, psi, grid)
    assert len(built) == (exponent == 3.0)  # the cubic mu cells hold a matrix
    mu = on_matrix(GridCells.build(prob.targets, grid, prob.mu, exponent), grid, exponent)
    rho = None
    if variant == "p4":
        rho = on_matrix(GridCells.build(prob.targets, grid, prob.rho), grid)
    assert np.array_equal(streamed, unregularized_residual(prob, psi, grid, mu, rho))


def _triple_count_full_matrix(psi, prob, grid, eps=None):
    """`triple_intersection_check` on the whole (N, M) cost matrix at once."""
    costs = cost_matrix(prob.targets.points, grid.nodes, prob.cost.exponent, grid.axes)
    if eps is None:
        eps = 1e-3 * float(costs.max() - costs.min())
    adjusted = costs - (psi - prob.offsets)[:, None]
    gap = adjusted - adjusted.min(axis=0)
    near = gap <= eps
    return int(np.count_nonzero((near[:-2] & near[1:-1] & near[2:]).any(axis=0)))


@pytest.mark.parametrize("exponent", [2.0, 3.0])
def test_triple_intersection_chunked_count_matches_full_matrix(dom2, exponent, monkeypatch):
    grid = build_grid(dom2, 41, 5)  # 42,025 nodes: the last chunk is partial
    assert grid.n_nodes % laguerre.CHUNK_NODES != 0
    targets = [[0.3, 0.3], [0.7, 0.3], [0.5, 0.65], [0.3, 0.8], [0.75, 0.85]]
    prob = build_problem({"variant": "p1", "dim": 2, "targets": targets, "cost_exponent": exponent})
    psi = np.array([0.01, -0.02, 0.0, 0.015, -0.01])
    expected = [_triple_count_full_matrix(psi, prob, grid, eps) for eps in (None, 1e-2)]
    assert 0 < expected[0] < expected[1]
    if exponent == 2.0:  # quadratic cost is swept from its per-axis tables

        def refuse(*args, **kwargs):
            raise AssertionError("cost_matrix called")

        monkeypatch.setattr(laguerre, "cost_matrix", refuse)
    got = [triple_intersection_check(psi, prob, grid, eps=eps) for eps in (None, 1e-2)]
    assert got == expected
