"""Regularized transport kernel: softmax cell weights and their derivatives.

For dual weights psi at homotopy time t < 1, each source point x carries a
softmax distribution pi(x) over the targets with exponents
(a_j - t*C_j(x)) / (1 - t), where a = psi - offsets and C_j(x) is the cost
to target j.  This module evaluates, by quadrature against the source
density (node weights w),

  grad       -integral of the softmax weights (one entry per target),
  hessian    1/(1-t) * integral of (pi pi^T - diag(pi)),
  dt_grad    the time derivative of grad.

Layout: the cost matrix is stored once per (grid, targets) pair, target-major
with shape (N, M), so every per-node reduction (the softmax max and sum) runs
across the N rows and stays vectorized along the long node axis.  It and the
node masses are the source density's `laguerre.GridCells`, which snapshots
label with and the 2-D terminal residual sweeps too.

One sweep: `evaluate` passes over the nodes in chunks of CHUNK_NODES columns,
so the temporaries stay in cache, and accumulates with piw = pi*w

  S = sum piw pi^T,   spread = sum piw*(C - pi.C)

(sums over nodes).  Since sum_k pi_k = 1, the row sums of S are
col = sum piw, so col is read off S instead of summed over the nodes again,
and grad = -col and hess = (S - diag(col))/(1-t); each Hessian row then
sums to zero up to the rounding of one N-term sum.  The time derivative
needs no second pass.  Expanding the mean-depth form
sum piw_j (pi.(a - C) - (a_j - C_j)) gives the identity

  dt_grad = (S a - sum piw (pi.C) - col*a + sum piw*C) / (1-t)^2
          = (sum_k S_jk (a_k - a_j) + spread_j) / (1-t)^2,

where the second form uses sum_k S_jk = col_j.  It is the one computed: the
a-terms and the C-terms of the first form each nearly cancel for t near 1,
and (1-t)^-2 would amplify their separate rounding errors.

Passes per chunk: the exponents are formed as a/(1-t) - (t/(1-t))*C (one
scale and one row shift), shifted by their per-node maximum, exponentiated,
and normalized by multiplying with the reciprocal of the per-node sum.  Then
piw, S, pi.C and spread (two `einsum` contractions, which form no product
array) follow.  Shifting by the maximum is required: the raw exponentials
overflow for t close to 1.  S is summed over column blocks of the chunk
(`_gram_block`): OpenBLAS takes an (N, k) @ (k, N) product with
N*N*k <= GEMM_SMALL on its small-matrix kernel and a larger one on a path
that costs about twice as much per column, so from N = 12 to 22 a whole
chunk is split into blocks that stay under that bound.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValueError
from .laguerre import CHUNK_NODES, GridCells

# GEMM_SMALL bounds m*n*k for OpenBLAS's small-matrix dgemm kernel (see the
# module docstring).  N = 12, k = 8192 on a 2-core Xeon: 196 us in one
# product, 100 us in 6944-column blocks.  Blocks narrower than MIN_GRAM_BLOCK
# lose that gain to per-call cost: past N = 22 one product is as fast.
GEMM_SMALL = 100**3
MIN_GRAM_BLOCK = 2048


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
        """Gradient, Hessian and time derivative from one chunked node sweep."""
        a = self._depth(psi, t)
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
        col = outer.sum(axis=1)
        pull = (outer * (a[None, :] - a[:, None])).sum(axis=1)
        return KernelEval(
            grad=-col,
            hess=(outer - np.diag(col)) / (1.0 - t),
            dt_grad=(pull + spread) / (1.0 - t) ** 2,
        )
