"""Laguerre (power) cells: geometry, measures, and terminal-residual pieces.

Cell j of weight vector w is the set of source points where
cost(x, y_j) - w_j is minimal over the targets.  Cell masses take one of two
routes.  `cell_operands` is the one place that picks it, and the operands it
returns carry the choice:

  IntervalCells  1-D targets with quadratic cost: cells are intervals whose
                 endpoints solve the pairwise bisector equations in closed
                 form, and masses come from closed-form interval integrals.
  GridCells      everything else (2-D, or cubic cost): label every quadrature
                 node by its minimizing target and sum the density-weighted
                 quadrature weights per label.

`power_cell_measures` and `measure_jacobian` read the route off the operands
they are given; there is no option to choose.  The interval route is exact up
to rounding; the grid route carries an O(node spacing) boundary error, which
is why it is never used where the acceptance tolerances are tighter than that.

`grid_labels` is the one label routine: a running minimum over the N rows of
the target-major (N, M) cost matrix, each pass vectorized along the nodes.  A
row takes over a node only when strictly smaller, so ties go to the lowest
index exactly as `np.argmin` resolves them.  A `GridCells` is built once per
grid and then shared: the kernel holds the source-density cells, the residual
system the rho cells (on the kernel's matrix when both costs are quadratic),
and snapshots label with the kernel's.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    DensitySpec,
    Domain,
    TargetSet,
    cost_matrix,
    density_eval,
    interval_mass,
    uniform_density,
)

FD_STEP = 1e-5  # least central-difference step of the grid measure Jacobian


@dataclass(frozen=True)
class LaguerreDiagram1D:
    """Interval cells in 1-D: sorted-order permutation, the N-1 cut points
    (clipped to the domain, nondecreasing; equal cuts flag empty cells), and
    the per-target masses in original target order."""

    order: np.ndarray
    boundaries: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        for name in ("order", "boundaries", "measures"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class CellField:
    """Per-node cell labels on a grid, optionally with softmax weights."""

    nodes: np.ndarray
    labels: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        self.labels.setflags(write=False)
        if self.weights is not None:
            self.weights.setflags(write=False)


def _sorted_cells(y, w, lo, hi):
    """Exact interval cells for coordinate-sorted targets y with weights w.

    Cell boundaries solve (x - y_i)^2 - w_i = (x - y_j)^2 - w_j pairwise.
    Returns (cells, cuts): `cells` lists (sorted_index, a, b) for every
    nonempty cell, in increasing position; `cuts` are the N-1 partition
    points.  Non-adjacent domination (a weight large enough to swallow
    neighbors) is handled by the max/min over all pairs, not just neighbors.
    """
    n = y.size
    if n == 1:
        return [(0, lo, hi)], np.empty(0)
    diff = y[None, :] - y[:, None]  # y_j - y_i
    with np.errstate(divide="ignore", invalid="ignore"):
        bnd = 0.5 * (y[:, None] + y[None, :]) + (w[:, None] - w[None, :]) / (2.0 * diff)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    right = np.where(upper, bnd, np.inf).min(axis=1)
    left = np.where(upper.T, bnd.T, -np.inf).max(axis=1)
    starts = np.clip(np.maximum(left, lo), lo, hi)
    ends = np.clip(np.minimum(right, hi), lo, hi)
    cells = [(k, starts[k], ends[k]) for k in range(n) if starts[k] < ends[k]]
    cuts = np.empty(n - 1)
    cur = lo
    ends_by_idx = {k: b for k, _, b in cells}
    for k in range(n - 1):
        cur = ends_by_idx.get(k, cur)
        cuts[k] = cur
    return cells, cuts


def cells_1d(psi, targets, domain, density=None):
    """1-D Laguerre diagram for quadratic cost; masses under `density`
    (uniform on the domain when omitted)."""
    if targets.dim != 1:
        raise ConfigError("cells_1d requires 1-D targets")
    if density is None:
        density = uniform_density(domain)
    psi = np.asarray(psi, dtype=float)
    coords = targets.points[:, 0]
    order = np.argsort(coords)
    y = coords[order]
    if np.any(np.diff(y) <= 0.0):
        raise ConfigError("duplicate target coordinates")
    cells, cuts = _sorted_cells(y, psi[order], domain.lower[0], domain.upper[0])
    measures = np.zeros(targets.n)
    for k, a, b in cells:
        measures[order[k]] = interval_mass(density, a, b)
    return LaguerreDiagram1D(order=order, boundaries=cuts, measures=measures)


@dataclass(frozen=True)
class IntervalCells:
    """Operands of exact interval cell masses: 1-D targets (quadratic cost),
    the domain interval and the density."""

    targets: TargetSet
    domain: Domain
    density: DensitySpec

    def __post_init__(self):
        if self.targets.dim != 1:
            raise ConfigError("interval cells need 1-D targets")

    @property
    def n(self):
        return self.targets.n


@dataclass(frozen=True)
class GridCells:
    """Operands of grid-label cell masses for one (grid, targets, density,
    cost): the targets, the target-major (N, M) cost matrix, the
    density-weighted node masses, and the largest node spacing of the grid."""

    targets: TargetSet
    cost: np.ndarray
    node_mass: np.ndarray
    spacing: float

    def __post_init__(self):
        self.cost.setflags(write=False)
        self.node_mass.setflags(write=False)

    @property
    def n(self):
        return self.targets.n

    @classmethod
    def build(cls, targets, grid, density, cost_exponent=2.0, cost=None):
        """`cost` passes in an existing target-major matrix of the same
        targets, grid and exponent instead of building another."""
        if cost is None:
            cost = cost_matrix(targets.points, grid.nodes, cost_exponent)
        counts = grid.panels_per_axis * grid.order
        spacing = max((hi - lo) / counts for lo, hi in zip(grid.lower, grid.upper))
        node_mass = grid.weights * density_eval(density, grid.nodes)
        return cls(targets=targets, cost=cost, node_mass=node_mass, spacing=spacing)

    def masses(self, weights):
        labels = grid_labels(weights, self)
        return np.bincount(labels, weights=self.node_mass, minlength=self.n)


def grid_labels(weights, cells):
    """Per-node argmin of cost(x, y_j) - weights_j over the rows of the
    GridCells' target-major matrix; ties go to the lowest index."""
    cost = cells.cost
    weights = np.asarray(weights, dtype=float)
    best = cost[0] - weights[0]
    labels = np.zeros(cost.shape[1], dtype=np.intp)
    for j in range(1, cost.shape[0]):
        cand = cost[j] - weights[j]
        labels[cand < best] = j
        np.minimum(best, cand, out=best)
    return labels


def cell_operands(targets, density, grid, cost_exponent=2.0, cost=None):
    """Cell-mass operands of `targets` under `density` over the box of `grid`.

    The only place the route is decided: IntervalCells for 1-D targets with
    quadratic cost, GridCells otherwise.  `cost` passes an existing
    target-major matrix to the grid route instead of building another.
    """
    if targets.dim == 1 and cost_exponent == 2.0:
        return IntervalCells(targets, Domain(lower=grid.lower, upper=grid.upper), density)
    return GridCells.build(targets, grid, density, cost_exponent, cost)


def power_cell_measures(weights, cells):
    """Masses of the power cells of `weights` under the density of `cells`."""
    weights = np.asarray(weights, dtype=float)
    if isinstance(cells, IntervalCells):
        return cells_1d(weights, cells.targets, cells.domain, cells.density).measures
    return cells.masses(weights)


def measure_jacobian(weights, cells):
    """Jacobian of weights -> cell masses (quadratic cost).

    Interval cells: each interface point between consecutive nonempty cells
    i, j contributes density(x_ij) / (2|y_i - y_j|) on the diagonal and its
    negative off-diagonal.  Grid cells: central differences of grid-label
    masses; the step is widened from FD_STEP so cell boundaries move by at
    least one node spacing, because grid-label masses are piecewise constant
    below that scale.
    """
    weights = np.asarray(weights, dtype=float)
    n = cells.n
    if isinstance(cells, IntervalCells):
        coords = cells.targets.points[:, 0]
        order = np.argsort(coords)
        y = coords[order]
        lo, hi = cells.domain.lower[0], cells.domain.upper[0]
        intervals, _ = _sorted_cells(y, weights[order], lo, hi)
        jac = np.zeros((n, n))
        for (ka, _, end_a), (kb, _, _) in zip(intervals[:-1], intervals[1:]):
            cut = end_a
            if not lo < cut < hi:
                continue
            i, j = order[ka], order[kb]
            gain = density_eval(cells.density, np.array([cut])) / (2.0 * abs(y[kb] - y[ka]))
            jac[i, i] += gain
            jac[j, j] += gain
            jac[i, j] -= gain
            jac[j, i] -= gain
        return jac
    pts = cells.targets.points
    gaps = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    step = max(FD_STEP, 2.0 * cells.spacing * float(gaps.max()))
    jac = np.zeros((n, n))
    for k in range(n):
        bump = np.zeros(n)
        bump[k] = step
        plus = cells.masses(weights + bump)
        minus = cells.masses(weights - bump)
        jac[:, k] = (plus - minus) / (2.0 * step)
    return 0.5 * (jac + jac.T)


def unregularized_residual(problem, psi, grid):
    """Residual of the t = 1 optimality system; its sup-norm is the reported
    terminal error.

    The transport term becomes exact cell masses of the source density at
    weights psi - offsets (the argmin convention cost_j(x) - psi_j - offset_j
    used everywhere).  For p4 the penalty term is also a cell mass: rho-cells
    of -psi under the quadratic inner cost, against mu-cells of psi under the
    outer cost; when the outer cost is quadratic too, both share one matrix.
    """
    psi = np.asarray(psi, dtype=float)
    exponent = problem.cost.exponent
    mu_cells = cell_operands(problem.targets, problem.mu, grid, exponent)
    mu_mass = power_cell_measures(psi - problem.offsets, mu_cells)
    if problem.variant == "p4":
        shared = mu_cells.cost if isinstance(mu_cells, GridCells) and exponent == 2.0 else None
        rho_cells = cell_operands(problem.targets, problem.rho, grid, cost=shared)
        penalty = power_cell_measures(-psi, rho_cells)
    else:
        penalty = np.exp(-psi)
    return penalty - mu_mass


def triple_intersection_check(psi, problem, grid, eps=None):
    """Count grid nodes where three consecutive targets are all within eps of
    the pointwise minimum of cost_j(x) - psi_j - offset_j.

    A zero count certifies (at grid resolution) that consecutive cells meet
    only pairwise, i.e. the cell layout is nested along the target ordering.
    """
    psi = np.asarray(psi, dtype=float)
    n = problem.n
    if n < 3:
        return 0
    costs = cost_matrix(problem.targets.points, grid.nodes, problem.cost.exponent)
    if eps is None:
        eps = 1e-3 * float(costs.max() - costs.min())
    adjusted = costs - (psi - problem.offsets)[:, None]
    gap = adjusted - adjusted.min(axis=0)
    near = gap <= eps
    triple = near[:-2] & near[1:-1] & near[2:]
    return int(np.count_nonzero(triple.any(axis=0)))
