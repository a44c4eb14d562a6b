"""Regularized transport kernel: softmax cell weights and their derivatives.

For dual weights psi at homotopy time t < 1, each source point x carries a
softmax distribution pi(x) over the targets with exponents
(a_j - t*C_j(x)) / (1 - t), where a = psi - offsets and C_j(x) is the cost
to target j.  This module evaluates, by quadrature against the source
density (node weights w),

  grad       -integral of the softmax weights (one entry per target),
  hessian    1/(1-t) * integral of (pi pi^T - diag(pi)),
  dt_grad    the time derivative of grad.

Two routes compute the same sums; the data picks one, with no option to
force either.  Both form S = sum w pi pi^T and spread = sum w pi*(C - pi.C)
(sums over nodes), and then, since sum_k pi_k = 1, the row sums of S are
col = sum w pi, so col is read off S instead of summed over the nodes again,
and grad = -col and hess = (S - diag(col))/(1-t); each Hessian row then
sums to zero up to the rounding of one N-term sum.  The time derivative
needs no second pass.  Expanding the mean-depth form
sum w pi_j (pi.(a - C) - (a_j - C_j)) gives the identity

  dt_grad = (S a - sum w pi (pi.C) - col*a + sum w pi*C) / (1-t)^2
          = (sum_k S_jk (a_k - a_j) + spread_j) / (1-t)^2,

where the second form uses sum_k S_jk = col_j.  It is the one computed: the
a-terms and the C-terms of the first form each nearly cancel for t near 1,
and (1-t)^-2 would amplify their separate rounding errors.

Separable route (2-D, quadratic cost).  On the tensor grids of
`quadrature.build_grid` a node is a pair (p, q) of axis nodes, and the cost
splits per axis, C_j(p, q) = D1_j(p) + D2_j(q) with D_d = (y_jd - x_d)^2.
So does the exponent: it is alpha_j(p) + beta_j(q) with
alpha = a/(1-t) - s*D1 and beta = -s*D2, s = t/(1-t).  With per-axis shifts,
U = exp(alpha - max_j alpha) (N, n1) and V = exp(beta - max_j beta) (N, n2)
cost N*(n1 + n2) exponentials instead of N*M, and

  pi_j(p, q) = U_j(p) V_j(q) / total(p, q),   total = U^T V (n1, n2).

With R = w / total^2 and, over the P = N(N+1)/2 target pairs j <= k,
W1 = U_j U_k (P, n1), W2 = V_j V_k (P, n2) and dD_d = D_d,j - D_d,k,

  [T1; T2] = [W1; W1*dD1] @ R                       (2P, n2)
  S_jk = sum_q W2 T1,   Z_jk = sum_q W2 (dD2 T1 + T2)

where Z_jk = sum w pi_j pi_k (C_j - C_k).  Z is antisymmetric and
spread_j = sum_k Z_jk, a sum of exact per-pair cost differences with no
mean to cancel against.  No (N, M) array is formed.  Every BLAS product is
split into row blocks that keep m*n*k within GEMM_SMALL (see below); R is
the untransposed right operand, which OpenBLAS takes on that small-matrix
kernel (with R transposed it took the blocked path, which holds about
0.7 MB more resident memory).  Here the split saves memory, not time: for
[W1; W1*dD1] @ R at N = 12, one product took 111 us against 192 us split
on 20,736 nodes and 422 us against 889 us on 82,944 (2-core Xeon), but on
the 2-D p1 parabola benchmark it cut the solve by only about 3%, within
run-to-run spread, and raised the peak RSS from 85.3 to 86.3 MB (three
alternating pairs).  The tables that depend only on the grid and the
targets (D, dD, the pairs) are built on the route's first call.

Range guard.  The per-axis shifts can undershoot the per-node maximum: the
gap g(p, q) = max_j alpha(p) + max_j beta(q) - max_j (alpha + beta)(p, q)
is at most the range over j of beta(q) (take j the argmax of alpha(p)), and
likewise of alpha(p).  So g <= min(max_p range_j alpha, max_q range_j beta)
(`_gap_bound`), and then total >= exp(-g).  The route runs only when that
bound is at most MAX_AXIS_GAP = 300: total^2 >= exp(-600) ~ 3e-261 stays
far above the smallest normal double, and R <= w*exp(600) far below the
largest.  A weight U_j that underflows belongs to a pi_j below
exp(-745 + 300), which no sum can see.  Stages that the guard refuses (t
near 1 with targets far outside the box) take the chunked route.

Chunked route (1-D, cubic cost, and refused stages).  The cost matrix is
stored once per (grid, targets) pair, target-major with shape (N, M), so
every per-node reduction (the softmax max and sum) runs across the N rows
and stays vectorized along the long node axis.  It and the node masses are
the source density's `laguerre.GridCells`, which snapshots label with and
the 2-D terminal residual sweeps too.  `evaluate` passes over the nodes in
chunks of CHUNK_NODES columns, so the temporaries stay in cache, and
accumulates S and spread with piw = pi*w.  Passes per chunk: the exponents
are formed as a/(1-t) - (t/(1-t))*C (one scale and one row shift), shifted
by their per-node maximum, exponentiated, and normalized by multiplying
with the reciprocal of the per-node sum.  Then piw, S, pi.C and spread (two
`einsum` contractions, which form no product array) follow.  Shifting by
the maximum is required: the raw exponentials overflow for t close to 1.
S is summed over column blocks of the chunk (`_gram_block`): OpenBLAS takes
an (N, k) @ (k, N) product with N*N*k <= GEMM_SMALL on its small-matrix
kernel and a larger one on a path that costs about twice as much per
column, so from N = 12 to 22 a whole chunk is split into blocks that stay
under that bound.

1-D stays chunked, for two reasons.  There the pairs cost more than the
rows: P = N(N+1)/2 pair rows of the one axis against N rows of the sweep.
And the unchunked reference formulas that the tests hold the kernel to
share the chunked form's rounding, which the pairwise form does not: where
one target holds nearly every node, C - pi.C is a difference of nearly
equal numbers and dt_grad, then of order 1e-15, can come out wrong by its
own size from the chunked form, while the pairwise form stays within
3e-15 relative of a long-double evaluation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValueError
from .laguerre import CHUNK_NODES, GridCells
from .model import axis_sq_dists

# GEMM_SMALL bounds m*n*k for OpenBLAS's small-matrix dgemm kernel (see the
# module docstring).  For the chunked Gram product it is a speed bound: N = 12,
# k = 8192 on a 2-core Xeon: 196 us in one product, 100 us in 6944-column
# blocks.  Blocks narrower than MIN_GRAM_BLOCK lose that gain to per-call
# cost: past N = 22 one product is as fast.  For the separable route's pair
# product it bounds memory instead (one product is faster there).
GEMM_SMALL = 100**3
MIN_GRAM_BLOCK = 2048
# MAX_AXIS_GAP bounds how far the per-axis shifts of the separable route may
# undershoot the per-node maximum (see the module docstring): the node sums
# then stay above exp(-300) and w / sum^2 below w * exp(600), far from both
# underflow and overflow.
MAX_AXIS_GAP = 300.0


@dataclass(frozen=True)
class DualState:
    """Homotopy time t in [0, 1] paired with the N dual weights."""

    t: float
    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        psi.setflags(write=False)
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {self.t}")
        if not np.all(np.isfinite(psi)):
            raise NonFiniteValueError("dual weights contain non-finite entries")


@dataclass(frozen=True)
class KernelEval:
    """Gradient, Hessian, and mixed time derivative from one quadrature sweep."""

    grad: np.ndarray
    hess: np.ndarray
    dt_grad: np.ndarray


def _check_time(t):
    if not 0.0 <= t < 1.0:
        raise ValueError(f"kernel derivatives require t in [0, 1), got {t}")


def _gram_block(n, width):
    """Columns per Gram product for N = `n` targets and chunks of `width`
    nodes: the widest block that keeps n*n*block within GEMM_SMALL, or the
    whole chunk when that block would be narrower than MIN_GRAM_BLOCK."""
    block = GEMM_SMALL // (n * n)
    return block if MIN_GRAM_BLOCK <= block < width else width


def _gap_bound(alpha, beta):
    """Upper bound on how far the sum of the per-axis maxima of `alpha`
    (N, n1) and `beta` (N, n2) exceeds the per-node maximum of alpha + beta."""
    return min(np.ptp(alpha, axis=0).max(), np.ptp(beta, axis=0).max())


def _small_products(x, y):
    """x @ y, in row blocks of x that keep each product within GEMM_SMALL."""
    rows = max(1, GEMM_SMALL // (x.shape[1] * y.shape[1]))
    if rows >= x.shape[0]:
        return x @ y
    out = np.empty((x.shape[0], y.shape[1]))
    for lo in range(0, x.shape[0], rows):
        np.matmul(x[lo : lo + rows], y, out=out[lo : lo + rows])
    return out


@dataclass(frozen=True)
class _PairTables:
    """Operands of the separable route on a 2-D tensor grid: the per-axis
    squared distances d1 (N, n1) and d2 (N, n2), the target pairs j <= k,
    their per-axis cost differences dd1 = d1[j] - d1[k] and dd2, and the
    node masses w as an (n1, n2) view."""

    d1: np.ndarray
    d2: np.ndarray
    j: np.ndarray
    k: np.ndarray
    dd1: np.ndarray
    dd2: np.ndarray
    w: np.ndarray

    @classmethod
    def build(cls, targets, grid, node_mass):
        d1, d2 = axis_sq_dists(targets.points, grid.axes)
        j, k = np.triu_indices(targets.n)
        w = node_mass.reshape(d1.shape[1], d2.shape[1])
        return cls(d1=d1, d2=d2, j=j, k=k, dd1=d1[j] - d1[k], dd2=d2[j] - d2[k], w=w)


def _softmax(a, t, cost, out=None, peak=None):
    """Target-major softmax weights for the (N, m) cost block `cost`; `out`
    (N, m) and `peak` (m,) are optional scratch buffers."""
    out = np.multiply(cost, -t / (1.0 - t), out=out)
    out += (a / (1.0 - t))[:, None]
    peak = np.max(out, axis=0, out=peak)
    out -= peak
    np.exp(out, out=out)
    total = np.sum(out, axis=0, out=peak)
    out *= np.reciprocal(total, out=total)
    return out


class KernelEvaluator:
    """Kernel derivatives for one (problem, grid) pair.

    Builds the source density's grid cells (the target-major (N, M) cost
    matrix and the density-weighted quadrature weights) once; repeated
    evaluations (ODE stages, Newton iterations) should share one instance.
    """

    def __init__(self, problem, grid):
        self.problem = problem
        self.grid = grid
        self.cells = GridCells.build(problem.targets, grid, problem.mu, problem.cost.exponent)
        self.offsets = np.asarray(problem.offsets, dtype=float)
        self.n = problem.n
        # quadratic cost on a 2-D tensor grid splits per axis; the separable
        # route's tables are built when it first runs
        self._splits = grid.dim == 2 and problem.cost.exponent == 2.0
        self._pairs = None

    def _depth(self, psi, t):
        """Validated a = psi - offsets."""
        _check_time(t)
        psi = np.asarray(psi, dtype=float)
        if not np.all(np.isfinite(psi)):
            raise NonFiniteValueError("dual weights contain non-finite entries")
        return psi - self.offsets

    def node_weights(self, psi, t):
        """(M, N) softmax weights at every quadrature node."""
        return _softmax(self._depth(psi, t), t, self.cells.cost).T

    def value(self, psi, t):
        """Dual transport value -(1-t) * integral of log-sum-exp.

        Only used as the independent reference for derivative checks; the
        solver itself never needs it.
        """
        a = self._depth(psi, t)
        expo = (a[:, None] - t * self.cells.cost) / (1.0 - t)
        m = expo.max(axis=0)
        lse = m + np.log(np.exp(expo - m).sum(axis=0))
        return -(1.0 - t) * float(np.sum(self.cells.node_mass * lse))

    def evaluate(self, psi, t):
        """Gradient, Hessian and time derivative: from per-axis tables when
        the cost splits per axis and the range guard admits the stage, else
        from one chunked node sweep."""
        a = self._depth(psi, t)
        if self._splits:
            alpha, beta = self._axis_exponents(a, t)
            if _gap_bound(alpha, beta) <= MAX_AXIS_GAP:
                return self._separable(a, t, alpha, beta)
        return self._chunked(a, t)

    def _axis_exponents(self, a, t):
        """The per-axis exponents alpha = a/(1-t) - (t/(1-t))*D1, (N, n1),
        and beta = -(t/(1-t))*D2, (N, n2), whose sum over a node (p, q) is
        its exponent a/(1-t) - (t/(1-t))*C."""
        if self._pairs is None:
            self._pairs = _PairTables.build(self.problem.targets, self.grid, self.cells.node_mass)
        scale = -t / (1.0 - t)
        alpha = self._pairs.d1 * scale
        alpha += (a / (1.0 - t))[:, None]
        return alpha, self._pairs.d2 * scale

    def _separable(self, a, t, alpha, beta):
        """The three blocks from the per-axis exponents `alpha` (N, n1) and
        `beta` (N, n2) of a 2-D quadratic cost (see the module docstring)."""
        pairs = self._pairs
        n, p = self.n, pairs.j.size
        u = np.exp(alpha - alpha.max(axis=0))
        v = np.exp(beta - beta.max(axis=0))
        # R = w / total**2 with the node sums total = U^T V, (n1, n2)
        r = _small_products(u.T, v)
        np.divide(pairs.w, np.multiply(r, r, out=r), out=r)
        # pair rows (j, k >= j) in `triu_indices` order: W1 = U_j U_k then
        # W1 * dD1, and W2 = V_j V_k
        stack = np.empty((2 * p, u.shape[1]))
        w2 = np.empty((p, v.shape[1]))
        lo = 0
        for j in range(n):
            hi = lo + n - j
            np.multiply(u[j], u[j:], out=stack[lo:hi])
            np.multiply(v[j], v[j:], out=w2[lo:hi])
            lo = hi
        np.multiply(stack[:p], pairs.dd1, out=stack[p:])
        t12 = _small_products(stack, r)
        t1, t2 = t12[:p], t12[p:]
        s_pairs = np.einsum("pi,pi->p", w2, t1)
        t2 += np.multiply(t1, pairs.dd2, out=t1)
        z_pairs = np.einsum("pi,pi->p", w2, t2)
        outer = np.empty((n, n))
        outer[pairs.j, pairs.k] = s_pairs
        outer[pairs.k, pairs.j] = s_pairs
        z = np.empty((n, n))
        z[pairs.j, pairs.k] = z_pairs
        z[pairs.k, pairs.j] = -z_pairs
        return _blocks(outer, z.sum(axis=1), a, t)

    def _chunked(self, a, t):
        """The three blocks from one chunked sweep over the (N, M) cost."""
        n, m = self.cells.cost.shape
        width = min(m, CHUNK_NODES)
        block = _gram_block(n, width)
        # scratch reused by every chunk: fresh large temporaries per chunk
        # cost more in page faults than the arithmetic on them
        pi_buf, piw_buf, peak_buf = np.empty((n, width)), np.empty((n, width)), np.empty(width)
        outer = np.zeros((n, n))
        spread = np.zeros(n)
        for lo in range(0, m, CHUNK_NODES):
            cost = self.cells.cost[:, lo : lo + CHUNK_NODES]
            w = self.cells.node_mass[lo : lo + CHUNK_NODES]
            k = w.size
            pi = _softmax(a, t, cost, out=pi_buf[:, :k], peak=peak_buf[:k])
            piw = np.multiply(pi, w, out=piw_buf[:, :k])
            for b in range(0, k, block):
                outer += piw[:, b : b + block] @ pi[:, b : b + block].T
            mean_cost = np.einsum("jm,jm->m", pi, cost)
            # pi is not needed past here: its buffer takes C_j - pi.C
            dev = np.subtract(cost, mean_cost, out=pi)
            spread += np.einsum("jm,jm->j", dev, piw)
        return _blocks(outer, spread, a, t)


def _blocks(outer, spread, a, t):
    """grad, hess and dt_grad from S = `outer` and `spread`."""
    col = outer.sum(axis=1)
    pull = (outer * (a[None, :] - a[:, None])).sum(axis=1)
    return KernelEval(
        grad=-col,
        hess=(outer - np.diag(col)) / (1.0 - t),
        dt_grad=(pull + spread) / (1.0 - t) ** 2,
    )
