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
`measure_jacobian` returns the masses with the Jacobian, so the pair at one
weight vector costs one interval diagram or one pass over the cost.  The
operands keep no evaluation between calls.  The grid Jacobian is a central
difference formed from the nodes that change owner, not from 2N label sweeps.

Grid cost: every `GridCells` holds its own target-major cost of the targets
at the nodes, in the one form `_node_cost` sets from the grid's dimension
and the cost exponent.  For quadratic cost on a 2-D tensor grid that is the
per-axis tables (y_jd - x_d)^2, N*(n1 + n2) numbers, from which any node's
column is formed as the same float sum as the (N, M) matrix; every other
cost is the matrix.  So no pass of a 2-D quadratic run builds the matrix:
the kernel's refused stages and the snapshot weights read the tables in
chunks (`GridCells.blocks`), each a new array of the size its reader asks
for (CHUNK_NODES for the sweeps, the writer's row block for snapshots),
and the p4 rho cells at every stage, the snapshots and the terminal
residual label them row by row.

Grid passes: one pass per call labels every node.  Its float part takes the
cost in blocks of nodes, one row at a time, each vectorized along the
nodes.  Per node of the block it keeps the running minimum of
cost - weights with its label and, for the measure Jacobian alone, the
runner-up value and label.  A row takes over a node only when strictly
smaller, so ties go to the lowest index exactly as `np.argmin` resolves
them, and the masses are the bincount of those labels.  The nodes whose
runner-up lies within the Jacobian's step of the minimum are the only ones
that can change owner; each block hands on just those, with their cost
columns, values and runner-up labels, so the Jacobian reads no cost again.
`grid_labels` returns the labels of that pass, for callers that want the
labels themselves (snapshots), so the tie rule lives in the pass alone.

Row diagrams: on the per-axis tables most nodes are labelled before any
float comparison.  On axis row p, target j's value at node (p, q) is
(y_j2 - x_q)^2 + d1[j, p] - w_j; two targets differ by a linear function of
x_q, so each owns one interval of the row, a 1-D power diagram of the
second coordinates with row weights w_j - d1[j, p].  Its bisectors come
from the formula of `IntervalCells.diagram`, for every row at once in each
call (`_row_runs`): O(n1 N^2) work.  A node more than
margin / (2 |y_j2 - y_k2|) inside j's side of the bisector with every other
k is one where j's exact value lies below every other by more than the
margin.  The margin is the Jacobian's reach plus a slack of over 1e3 times
the rounding of any value, of fl(best + reach) and of a bound, so at such a
node the float comparison would pick j strictly and find no runner-up
within reach: the node takes j's label, filled by run length, and is no
boundary node.  Only the nodes between the runs, the boundary nodes and a
thin guard beside them, go through the float pass, from their gathered
columns.  Labels, boundary nodes, values, masses and Jacobian are thus
those of the full sweep, bit for bit.  Where two targets share a second
coordinate the rows hold parallel lines, and the tables are swept in
chunks as the matrix is.  Against that chunked sweep (one BLAS thread,
random targets, N = 6 to 48 on 144- and 288-node axis rows) the row pass
forms the masses in 0.3-0.8 of the time at every N; the Jacobian in
0.6-0.93 up to N = 12 on 144-node rows and N = 32 on 288-node ones (even
at 48), and in 1.03-1.23 from 17 to 48 on 144-node rows, where most nodes
lie within its reach of a bisector (80% at N = 48) and take the float pass
from gathered columns.

A `GridCells` is built once per grid and then shared: the kernel holds the
source-density cells, the residual system the rho cells, snapshots label
with the kernel's, and the 2-D terminal residual reads both on the boosted
grid.  No two operands share a cost.  Everything a `GridCells` holds is
fixed at build: the cost, the node masses, formed from the per-axis factors
of the grid weights and the density, and the Jacobian's step and cost
bound, the largest |cost|, which on the per-axis tables is the largest
fl(max d1_j + max d2_j).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteValueError
from .model import (
    DENSITY_UNIFORM,
    Domain,
    axis_sq_dists,
    cost_matrix,
    density_eval,
    interval_mass,
)
from .quadrature import tensor_weights

FD_STEP = 1e-5  # least central-difference step of the grid measure Jacobian
CHUNK_NODES = 8192  # nodes per sweep chunk: (N, CHUNK_NODES) temporaries stay in cache


@dataclass(frozen=True)
class CellField:
    """The cells of a run at homotopy time `t`: per node of the kernel's
    grid, the label of the target whose cell holds it and, for t < 1, the
    softmax weights over the N targets.

    It holds the dual weights `psi`, `t` and the `kernel` (a
    `KernelEvaluator`) whose grid and cells the run already holds, and no
    array whose size grows with the node count.  `labels`, `weights` and
    `nodes` are formed on each read.  `cli.write_snapshot_csv` reads the
    labels once, and neither weights nor nodes: it streams the weights
    chunk by chunk and takes coordinates from per-axis text tables.
    """

    kernel: object
    psi: np.ndarray
    t: float

    def __post_init__(self):
        psi = np.array(self.psi, dtype=float)  # a copy the run cannot change
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"a cell field needs t in [0, 1], got {self.t}")
        if not np.all(np.isfinite(psi)):
            raise NonFiniteValueError("dual weights contain non-finite entries")

    @property
    def n(self):
        return self.kernel.n

    @property
    def grid(self):
        return self.kernel.grid

    @property
    def nodes(self):
        return self.grid.nodes

    @property
    def labels(self):
        """Per-node label: the argmin of cost - (psi - offsets) (`grid_labels`)."""
        return grid_labels(self.psi - self.kernel.offsets, self.kernel.cells)

    @property
    def weights(self):
        """(M, N) softmax weights for t < 1, else None."""
        return None if self.t == 1.0 else self.kernel.node_weights(self.psi, self.t)


class IntervalCells:
    """Operands of exact interval cell masses: 1-D targets (quadratic cost),
    the domain interval and the density.

    The coordinate sort does not depend on the weights, so it is done once
    here: `order` sorts the targets into the coordinates `y` (both
    read-only), and `lo`, `hi` are the domain ends.
    """

    def __init__(self, targets, domain, density):
        if targets.dim != 1:
            raise ConfigError("interval cells need 1-D targets")
        self.targets = targets
        self.domain = domain
        self.density = density
        coords = targets.points[:, 0]
        self.order = np.argsort(coords)
        self.y = coords[self.order]
        self.order.setflags(write=False)
        self.y.setflags(write=False)
        self.lo, self.hi = domain.lower[0], domain.upper[0]

    @property
    def n(self):
        return self.targets.n

    def diagram(self, weights):
        """Clipped (starts, ends) of every cell in sorted order; start >= end
        marks an empty cell.

        Cell boundaries solve (x - y_i)^2 - w_i = (x - y_j)^2 - w_j pairwise.
        Non-adjacent domination (a weight large enough to swallow neighbors)
        is handled by the max/min over all pairs, not just neighbors.
        """
        y, lo, hi = self.y, self.lo, self.hi
        w = np.asarray(weights, dtype=float)[self.order]
        with np.errstate(divide="ignore", invalid="ignore"):
            bnd = 0.5 * (y[:, None] + y[None, :]) + (w[:, None] - w[None, :]) / (
                2.0 * (y[None, :] - y[:, None])
            )
        upper = y[:, None] < y[None, :]  # the pairs j > i, as y increases strictly
        right = np.where(upper, bnd, np.inf).min(axis=1)
        left = np.where(upper.T, bnd, -np.inf).max(axis=1)  # bnd[i, j] == bnd[j, i] exactly
        starts = np.minimum(np.maximum(left, lo), hi)
        ends = np.maximum(np.minimum(right, hi), lo)
        return starts, ends


def _node_cost(targets, grid, exponent):
    """The target-major cost of `targets` at the nodes of `grid`: for
    quadratic cost on a 2-D tensor grid the per-axis tables (d1, d2), the
    (N, n1) and (N, n2) squared distances (y_jd - x_d)^2, where node
    p*n2 + q costs d1[:, p] + d2[:, q]; otherwise the (N, M) matrix."""
    if grid.dim == 2 and exponent == 2.0:
        return tuple(axis_sq_dists(targets.points, grid.axes))
    return cost_matrix(targets.points, None, exponent, grid.axes)


def _cost_blocks(cost, size=CHUNK_NODES):
    """(lo, block) per block of `size` nodes of a `_node_cost`: the (N, k)
    cost of nodes lo to lo + k, a view of the matrix, or a new array formed
    from the tables by one broadcast add, the float sum fl(d1 + d2) that
    `cost_matrix` forms.  No block shares storage with another, so a block
    kept by its reader stays as it was."""
    if isinstance(cost, np.ndarray):
        for lo in range(0, cost.shape[1], size):
            yield lo, cost[:, lo : lo + size]
        return
    d1, d2 = cost
    n, n2 = d2.shape
    m = d1.shape[1] * n2
    for lo in range(0, m, size):
        hi = min(lo + size, m)
        p0, p1 = lo // n2, -(-hi // n2)  # the axis rows that hold the block
        rows = np.add(d1[:, p0:p1, None], d2[:, None, :])
        yield lo, rows.reshape(n, -1)[:, lo - p0 * n2 : hi - p0 * n2]


def _row_runs(coords, axis, d1, weights, margin):
    """(starts, ends, owners) of the runs of nodes, in node order, that the
    row diagrams (see the module docstring) label for certain: each node
    from starts[r] to ends[r] has owners[r] as its unique minimizer, with
    every other target more than `margin` above it.

    `coords` are the targets' second coordinates, at least the least normal
    float apart (no parallel lines, every reciprocal below finite), and
    `axis` the grid's second axis, ascending.  Target j keeps the nodes
    where it stays the minimizer when its value rises by the margin against
    each other target k in turn: the bisector formula with j's row weight
    w_j - d1[j, p] lowered by the margin, whose bound on x_q is pulled into
    j's interval by margin / (2 |y_j - y_k|).  The bounds are then moved in
    by `tol`, the rounding slack of a bound on the axis, so their rounding
    cannot let a node through.  The O(N^2) weight-free constants are formed
    here, and the (N, N, n1) bounds of all rows at once.
    """
    order = np.argsort(coords)
    y = coords[order]
    gap = y[:, None, None] - y[:, None]  # y_k - y_j at [k, j, 0]
    # the targets k that bound j's interval from the left and from the right
    below, above = gap < 0.0, gap > 0.0
    tol = 1e-12 * (max(-y[0], y[-1]) + max(-axis[0], axis[-1]))
    row_w = weights[order][:, None] - d1[order]
    # a bound that overflows reads as an unbounded or empty interval, and
    # one that is nan (from infinite weights) as an empty one; the k = j
    # bounds (a division by zero) are masked out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b = np.subtract(row_w, row_w[:, None])  # W_j - W_k at [k, j, p]
        b -= margin
        b *= 0.5 / gap
        b += 0.5 * (y[:, None, None] + y[:, None])
        # (n1, N) per-row bounds, so the runs come out in node order
        lo = np.max(b, axis=0, where=below, initial=-np.inf).T
        hi = np.min(b, axis=0, where=above, initial=np.inf).T
        lo += tol
        hi -= tol
        r, j = np.nonzero(lo < hi)
    first = np.searchsorted(axis, lo[r, j], "right")
    stop = np.searchsorted(axis, hi[r, j], "left")
    held = first < stop
    offset = r[held] * axis.size
    return offset + first[held], offset + stop[held], order[j[held]]


def _ranges(starts, ends):
    """The integers of the ranges starts[i] to ends[i], concatenated."""
    lengths = ends - starts
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


class GridCells:
    """Operands of grid-label cell masses for one (grid, targets, density,
    cost): the targets, their target-major cost, the density-weighted node
    masses, and the largest node spacing of the grid.

    `cost` is given as the (N, M) matrix or as the per-axis tables (d1, d2)
    of a `_node_cost`, and held as `cost` or `tables`, the other None.  With
    the tables comes `axis`, the grid's second axis, and every pass labels
    row by row (`_row_runs`), whatever N, unless two targets' second
    coordinates are closer than the least normal float (parallel lines):
    then the tables are swept in chunks like the matrix (the measured
    crossover is in the module docstring).  The two constants of the measure
    Jacobian are fixed at construction: its central-difference step and the
    largest |cost|, which bounds the rounding slack of its boundary-node
    filter and of the row diagrams' margin.  Nothing is assigned after
    construction.
    """

    def __init__(self, targets, cost, node_mass, spacing, axis=None):
        self.targets = targets
        self.tables = None if isinstance(cost, np.ndarray) else tuple(cost)
        self.cost = cost if self.tables is None else None
        self.node_mass = node_mass
        self.spacing = spacing
        for held in (node_mass,) + (self.tables or (cost,)):
            held.setflags(write=False)
        pts = targets.points
        gaps = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        self._fd_step = max(FD_STEP, 2.0 * spacing * float(gaps.max()))
        self._axis = axis
        # the cost is nonnegative; from the tables, the largest entry of
        # row j is fl(max d1_j + max d2_j), since rounding is monotone
        if self.tables is not None:
            d1, d2 = self.tables
            self._cost_max = float((d1.max(axis=1) + d2.max(axis=1)).max())
        else:
            self._cost_max = float(cost.max())

    @property
    def n(self):
        return self.targets.n

    @classmethod
    def build(cls, targets, grid, density, cost_exponent=2.0):
        counts = grid.panels_per_axis * grid.order
        spacing = max((hi - lo) / counts for lo, hi in zip(grid.lower, grid.upper))
        cost = _node_cost(targets, grid, cost_exponent)
        return cls(targets, cost, _node_mass(grid, density), spacing, grid.axes[-1])

    def blocks(self, size=CHUNK_NODES):
        """(lo, block) per block of `size` nodes: the (N, k) cost of nodes
        lo to lo + k, each block its own array or view (see `_cost_blocks`)."""
        return _cost_blocks(self.tables or self.cost, size)

    def _sweep(self, weights, reach=None):
        """Labels: per node the argmin of cost - weights, ties to the lowest
        index, as `np.argmin` resolves them.

        With `reach`, returns (labels, nodes, cost, best, second, runner):
        the boundary nodes, those whose runner-up lies within `reach` of
        their minimum (second <= best + reach), in node order, with their
        (N, k) cost columns, both values and the runner-up's label (the
        lowest index among the other rows).

        The float pass takes the cost in blocks of at most CHUNK_NODES
        nodes, one row at a time, keeping per node of the block the running
        minimum with its label and, with `reach`, the running runner-up
        value (+inf for one row) with its label; a row takes over a node
        only when strictly smaller.  The blocks are the columns of the nodes
        the row diagrams leave (`_row_labels`), or, for the matrix and for
        parallel lines, the chunks of `blocks`.  A block hands on its
        boundary nodes' columns.
        """
        n, m = self.n, self.node_mass.size
        y = None if self.tables is None else np.sort(self.targets.points[:, 1])
        if y is None or np.diff(y).min(initial=np.inf) < np.finfo(float).tiny:
            labels = np.zeros(m, dtype=np.intp)
            blocks = ((slice(lo, lo + b.shape[1]), b) for lo, b in self.blocks())
        else:
            labels, blocks = self._row_labels(weights, reach)
        width = min(m, CHUNK_NODES)
        low_buf, cand, run_buf, upper = (np.empty(width) for _ in range(4))
        took_buf, beat_buf = (np.empty(width, dtype=bool) for _ in range(2))
        rlab_buf = None if reach is None else np.empty(width, dtype=np.intp)
        found = []
        for nodes, block in blocks:
            k = block.shape[1]
            low, c, run, hi, took = low_buf[:k], cand[:k], run_buf[:k], upper[:k], took_buf[:k]
            chunk = isinstance(nodes, slice)  # else the nodes a row pass left
            lab = labels[nodes]  # a view of a chunk, a copy of the nodes left
            lab.fill(0)
            np.subtract(block[0], weights[0], out=low)
            if reach is not None:
                beat, rlab = beat_buf[:k], rlab_buf[:k]
                rlab.fill(0)
                run.fill(np.inf)
            for j in range(1, n):
                np.subtract(block[j], weights[j], out=c)
                np.less(c, low, out=took)
                if reach is not None:
                    # j is the runner-up where it beats the old one, and
                    # the old owner is where j takes over
                    np.copyto(rlab, j, where=np.less(c, run, out=beat))
                    np.copyto(rlab, lab, where=took)
                    np.minimum(run, np.maximum(low, c, out=hi), out=run)
                np.copyto(lab, j, where=took)
                np.minimum(low, c, out=low)
            if not chunk:
                labels[nodes] = lab
            if reach is not None:
                near = np.flatnonzero(run <= np.add(low, reach, out=c))
                at = near + nodes.start if chunk else nodes[near]
                found.append((at, block[:, near], low[near], run[near], rlab[near]))
        if reach is None:
            return labels
        nodes, cost, best, second, runner = (
            part[0] if len(part) == 1 else np.concatenate(part, axis=-1) for part in zip(*found)
        )
        return labels, nodes, cost, best, second, runner

    def _row_labels(self, weights, reach):
        """Labels from the row diagrams, and the blocks of the nodes they
        leave to the float pass: (nodes, (N, k) cost columns
        fl(d1[:, p] + d2[:, q])), at least one block, possibly empty.

        The diagrams' margin is `reach` (0 for labels alone) plus a slack of
        1e-12 * (largest |cost| + largest |weight| + reach), over 1e3 times
        the rounding of any value, of fl(best + reach) and of a bound.  So a
        node of a run has the float label of the run's owner and is no
        boundary node; a node between runs (-1 here) goes to the float pass.
        """
        d1, d2 = self.tables
        width = 0.0 if reach is None else reach
        margin = width + 1e-12 * (self._cost_max + np.abs(weights).max() + width)
        y = self.targets.points[:, 1]
        starts, ends, owners = _row_runs(y, self._axis, d1, weights, margin)
        # the runs and the gaps between them; a run's length repeats its owner
        cuts = np.empty(2 * starts.size + 2, dtype=np.intp)
        cuts[0], cuts[-1] = 0, self.node_mass.size
        cuts[1:-1:2], cuts[2:-1:2] = starts, ends
        values = np.full(2 * starts.size + 1, -1, dtype=np.intp)
        values[1::2] = owners
        labels = np.repeat(values, np.diff(cuts))
        gaps = _ranges(cuts[::2], cuts[1::2])

        def blocks():
            for lo in range(0, gaps.size or 1, CHUNK_NODES):  # once with no gap
                nodes = gaps[lo : lo + CHUNK_NODES]
                p, q = np.divmod(nodes, d2.shape[1])
                cost = np.take(d1, p, axis=1)
                cost += np.take(d2, q, axis=1)
                yield nodes, cost

        return labels, blocks()

    def _masses(self, labels):
        return np.bincount(labels, weights=self.node_mass, minlength=self.n)


def _node_mass(grid, density):
    """Quadrature weight times density at every node of `grid`, from the
    per-axis factors of the weights and the density: the float expressions
    of `grid.weights` and of `density_eval` on `grid.nodes`, so the same
    bits, without forming either on the grid.  Node p * n2 + q has squared
    distance fl(s1[p] + s2[q]) to a Gaussian's center, as the per-node sum
    over the two axes forms it.  The Gaussian factor is formed in place in
    the squared distances, so one node-length array is held beside the
    weights (each product is the same rounding in either order)."""
    weights = tensor_weights(grid.axis_weights)
    if density.kind == DENSITY_UNIFORM:
        return weights * density.normalization
    gaps = [(x - c) ** 2 for x, c in zip(grid.axes, density.center)]
    mass = gaps[0] if len(gaps) == 1 else np.add.outer(*gaps).ravel()
    np.multiply(mass, -density.sharpness, out=mass)
    np.exp(mass, out=mass)
    np.multiply(mass, density.normalization, out=mass)
    return np.multiply(mass, weights, out=mass)


def grid_labels(weights, cells):
    """Per-node argmin of cost(x, y_j) - weights_j over the targets of the
    GridCells, from one sweep; ties go to the lowest index."""
    return cells._sweep(np.asarray(weights, dtype=float))


def cell_operands(targets, density, grid, cost_exponent=2.0, grid_cells=None):
    """Cell-mass operands of `targets` under `density` over the box of `grid`.

    The only place the route is decided: IntervalCells for 1-D targets with
    quadratic cost, GridCells otherwise (`grid_cells`, when already built).
    """
    if targets.dim == 1 and cost_exponent == 2.0:
        return IntervalCells(targets, Domain(lower=grid.lower, upper=grid.upper), density)
    if grid_cells is None:
        grid_cells = GridCells.build(targets, grid, density, cost_exponent)
    return grid_cells


def _interval_masses(cells, starts, ends):
    """Per-target masses of the sorted cells (starts, ends) of `diagram`."""
    masses = np.zeros(cells.n)
    masses[cells.order] = interval_mass(cells.density, starts, ends)
    return masses


def power_cell_measures(weights, cells):
    """Masses of the power cells of `weights` under the density of `cells`."""
    weights = np.asarray(weights, dtype=float)
    if isinstance(cells, IntervalCells):
        return _interval_masses(cells, *cells.diagram(weights))
    return cells._masses(cells._sweep(weights))


def measure_jacobian(weights, cells):
    """Cell masses and the Jacobian of weights -> cell masses (quadratic
    cost), as (masses, jac), from one interval diagram or one grid sweep.
    The masses are those of `power_cell_measures`, bit for bit.

    Interval cells: each interface point between consecutive nonempty cells
    i, j contributes density(x_ij) / (2|y_i - y_j|) on the diagonal and its
    negative off-diagonal.  Grid cells: symmetrized central differences of
    grid-label masses; the step is widened from FD_STEP so cell boundaries
    move by at least one node spacing, because grid-label masses are
    piecewise constant below that scale.  Column k is formed from the nodes
    that change owner under +-step on weight k, found in one pass with the
    float expressions and tie rule of the perturbed label sweeps: it sums
    their masses instead of subtracting two full-cell totals.
    """
    weights = np.asarray(weights, dtype=float)
    n = cells.n
    if isinstance(cells, IntervalCells):
        starts, ends = cells.diagram(weights)
        alive = np.flatnonzero(starts < ends)
        left, right = alive[:-1], alive[1:]
        cut = ends[left]
        inner = (cells.lo < cut) & (cut < cells.hi)
        left, right, cut = left[inner], right[inner], cut[inner]
        gain = density_eval(cells.density, cut[:, None]) / (2.0 * (cells.y[right] - cells.y[left]))
        i, j = cells.order[left], cells.order[right]  # each index at most once
        jac = np.zeros((n, n))
        jac[i, i] += gain
        jac[j, j] += gain
        jac[i, j] -= gain
        jac[j, i] -= gain
        return _interval_masses(cells, starts, ends), jac
    step = cells._fd_step
    # Only nodes where a second row lies within `step` of the minimum can
    # change owner.  Rounding moves a perturbed value off its exact shift by
    # a few ulps of |cost| + |weights| + step; the slack is over 1e3 times that.
    reach = step + 1e-12 * (cells._cost_max + np.abs(weights).max() + step)
    labels, nodes, cost, best, second, runner = cells._sweep(weights, reach)
    masses = cells._masses(labels)
    owner = labels[nodes]
    pos = np.arange(nodes.size)
    # +step on row k: k takes the node iff fl(cost_k - fl(w_k + step)) beats
    # the owner's value, ties going to the lower index as in the sweep: a
    # row above the owner must fall below `best`, one below it only reach
    # it, that is, fall below the next float up.
    raised = cost - (weights + step)[:, None]
    bar = np.where(np.arange(n)[:, None] < owner, np.nextafter(best, np.inf), best)
    gain = raised < bar
    gain[owner, pos] = False
    # -step on the owner: it keeps the node iff it still beats the runner-up.
    lowered = cost[owner, pos] - (weights[owner] - step)
    lose = ~((lowered < second) | ((lowered == second) & (owner < runner)))
    # Column k of plus - minus: each moved node's mass enters row k with +
    # and the row it left (plus) or went to (minus) with -.  Every entry
    # sums its +step moves, then its -step moves, each in node order.
    k, at = np.divmod(np.flatnonzero(gain), nodes.size)
    mass = cells.node_mass[nodes]
    gained, lost, left = mass[at], mass[lose], owner[lose]
    flat = np.concatenate([k * (n + 1), owner[at] * n + k, left * (n + 1), runner[lose] * n + left])
    moved = np.concatenate([gained, -gained, lost, -lost])
    diff = np.bincount(flat, weights=moved, minlength=n * n).reshape(n, n)
    jac = diff / (2.0 * step)
    return masses, 0.5 * (jac + jac.T)


def unregularized_residual(problem, psi, grid, mu_cells=None, rho_cells=None):
    """Residual of the t = 1 optimality system; its sup-norm is the reported
    terminal error.

    The transport term becomes exact cell masses of the source density at
    weights psi - offsets (the argmin convention cost_j(x) - psi_j - offset_j
    used everywhere).  For p4 the penalty term is also a cell mass: rho-cells
    of -psi under the quadratic inner cost, against mu-cells of psi under the
    outer cost.  `mu_cells` and `rho_cells` pass operands already built on
    `grid` (a residual system's); the missing ones are built here.  Where the
    mu route is exact intervals, `mu_cells` may be grid cells (a kernel's)
    and intervals are used instead.
    """
    psi = np.asarray(psi, dtype=float)
    mu_cells = cell_operands(problem.targets, problem.mu, grid, problem.cost.exponent, mu_cells)
    mu_mass = power_cell_measures(psi - problem.offsets, mu_cells)
    if problem.variant == "p4":
        if rho_cells is None:
            rho_cells = cell_operands(problem.targets, problem.rho, grid)
        penalty = power_cell_measures(-psi, rho_cells)
    else:
        penalty = np.exp(-psi)
    return penalty - mu_mass


def triple_intersection_check(psi, problem, grid, eps=None):
    """Count grid nodes where three consecutive targets are all within eps of
    the pointwise minimum of cost_j(x) - psi_j - offset_j.

    A zero count certifies (at grid resolution) that consecutive cells meet
    only pairwise, i.e. the cell layout is nested along the target ordering.
    The cost is swept chunk by chunk, as the grid cells sweep it; the
    default eps, 1e-3 times the cost's range, takes one more pass.
    """
    psi = np.asarray(psi, dtype=float)
    if problem.n < 3:
        return 0
    cost = _node_cost(problem.targets, grid, problem.cost.exponent)
    if eps is None:
        lo, hi = np.inf, -np.inf
        for _, block in _cost_blocks(cost):
            lo, hi = min(lo, block.min()), max(hi, block.max())
        eps = 1e-3 * float(hi - lo)
    shift = (psi - problem.offsets)[:, None]
    count = 0
    for _, block in _cost_blocks(cost):
        gap = block - shift
        gap -= gap.min(axis=0)
        near = gap <= eps
        count += int(np.count_nonzero((near[:-2] & near[1:-1] & near[2:]).any(axis=0)))
    return count
