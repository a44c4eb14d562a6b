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
mean to cancel against.  No (N, M) array is formed.  D1 and D2 are the
per-axis tables that the source density's `laguerre.GridCells` holds as its
cost; the tables built from them (dD, the pairs) are built on the route's
first call.

Range guard.  The per-axis shifts can undershoot the per-node maximum: the
gap g(p, q) = max_j alpha(p) + max_j beta(q) - max_j (alpha + beta)(p, q)
is at most the range over j of beta(q) (take j the argmax of alpha(p)), and
likewise of alpha(p).  So g <= min(max_p range_j alpha, max_q range_j beta)
(`_gap_bound`, from the maxima the shifts take), and then total >= exp(-g).  The route runs only when that
bound is at most MAX_AXIS_GAP = 300: total^2 >= exp(-600) ~ 3e-261 stays
far above the smallest normal double, and R <= w*exp(600) far below the
largest.  A weight U_j that underflows belongs to a pi_j below
exp(-745 + 300), which no sum can see.  Stages that the guard refuses (t
near 1 with targets far outside the box) take the chunked route.

Chunked route (1-D, cubic cost, and refused stages).  It sweeps the
target-major (N, M) cost matrix, so every per-node reduction (the softmax
max and sum) runs across the N rows and stays vectorized along the long
node axis.  It reads the cost chunk by chunk from the source density's
`laguerre.GridCells` (`blocks`): columns of the matrix, or, for a 2-D
quadratic cost that the cells hold as per-axis tables, chunks formed from
those tables, so a refused stage builds no (N, M) matrix.  The one-off
passes (the labels, the 2-D terminal residual) read the same chunks, and so
do the snapshot weights: `_weight_blocks` yields the softmax of one chunk at
a time, the snapshot writer formats each before the next is formed, and
`node_weights` fills the whole (M, N) array from it.  `evaluate` passes over
the nodes in chunks of `laguerre.CHUNK_NODES` columns, so the temporaries
stay in cache, and accumulates S and spread with piw = pi*w.  Passes per
chunk: the exponents are formed as a/(1-t) - (t/(1-t))*C (one scale and one
row shift), shifted by their per-node maximum, exponentiated, and normalized by
multiplying with the reciprocal of the per-node sum.  Then piw, S (one
product piw @ pi^T), pi.C and spread (two `einsum` contractions, which form
no product array) follow.  Shifting by the maximum is required: the raw
exponentials overflow for t close to 1.  Each chunk allocates its own
temporaries; the malloc thresholds set at import (`otpath.__init__`) serve
them from the heap, so a chunk reuses the pages the one before it freed.

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
from .laguerre import GridCells

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


def _gap_bound(alpha, beta, peaks):
    """Upper bound on how far the sum of the per-axis maxima `peaks` of
    `alpha` (N, n1) and `beta` (N, n2) over the targets exceeds the per-node
    maximum of alpha + beta."""
    return min((peaks[0] - alpha.min(axis=0)).max(), (peaks[1] - beta.min(axis=0)).max())


@dataclass(frozen=True)
class _PairTables:
    """Operands of the separable route on a 2-D tensor grid: the grid cells'
    per-axis squared distances d1 (N, n1) and d2 (N, n2), the target pairs
    j <= k in `triu_indices` order, their per-axis cost differences
    dd1 = d1[j] - d1[k] and dd2, the flat indices of (j, k) and (k, j) in an
    (N, N) array, and the node masses w as an (n1, n2) view."""

    d1: np.ndarray
    d2: np.ndarray
    j: np.ndarray
    k: np.ndarray
    dd1: np.ndarray
    dd2: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    w: np.ndarray

    @classmethod
    def build(cls, cells):
        d1, d2 = cells.tables
        n = cells.n
        j, k = np.triu_indices(n)
        w = cells.node_mass.reshape(d1.shape[1], d2.shape[1])
        return cls(
            d1=d1, d2=d2, j=j, k=k, dd1=d1[j] - d1[k], dd2=d2[j] - d2[k],
            upper=j * n + k, lower=k * n + j, w=w,
        )


def _softmax(a, t, cost, out=None):
    """Target-major softmax weights for the (N, m) cost block `cost`, written
    into `out` (N, m) if given."""
    out = np.multiply(cost, -t / (1.0 - t), out=out)
    out += (a / (1.0 - t))[:, None]
    peak = np.max(out, axis=0)
    out -= peak
    np.exp(out, out=out)
    total = np.sum(out, axis=0, out=peak)
    out *= np.reciprocal(total, out=total)
    return out


class KernelEvaluator:
    """Kernel derivatives for one (problem, grid) pair.

    Builds the source density's grid cells (the target-major cost and the
    density-weighted quadrature weights) once; repeated evaluations (ODE
    stages, Newton iterations) should share one instance.
    """

    def __init__(self, problem, grid):
        self.problem = problem
        self.grid = grid
        self.cells = GridCells.build(problem.targets, grid, problem.mu, problem.cost.exponent)
        self.offsets = np.asarray(problem.offsets, dtype=float)
        self.n = problem.n
        # quadratic cost on a 2-D tensor grid splits per axis (the cells keep
        # its tables); the separable route's pair tables are built when it
        # first runs
        self._splits = self.cells.tables is not None
        self._pairs = None

    def _depth(self, psi, t):
        """Validated a = psi - offsets."""
        _check_time(t)
        psi = np.asarray(psi, dtype=float)
        if not np.all(np.isfinite(psi)):
            raise NonFiniteValueError("dual weights contain non-finite entries")
        return psi - self.offsets

    def node_weights(self, psi, t):
        """(M, N) softmax weights at every quadrature node, filled from
        `_weight_blocks`."""
        out = np.empty((self.n, self.cells.node_mass.size))
        for lo, pi in self._weight_blocks(psi, t):
            out[:, lo : lo + pi.shape[1]] = pi
        return out.T

    def _weight_blocks(self, psi, t):
        """(lo, pi) per chunk of the cells' `blocks`: the (N, k) softmax
        weights of nodes lo to lo + k, each chunk formed when the one before
        it has been taken.  psi and t are checked on the call."""
        a = self._depth(psi, t)
        return ((lo, _softmax(a, t, cost)) for lo, cost in self.cells.blocks())

    def value(self, psi, t):
        """Dual transport value -(1-t) * integral of log-sum-exp.

        Only used as the independent reference for derivative checks; the
        solver itself never needs it.
        """
        a = self._depth(psi, t)
        lse = np.empty(self.cells.node_mass.size)
        for lo, cost in self.cells.blocks():
            expo = (a[:, None] - t * cost) / (1.0 - t)
            m = expo.max(axis=0)
            lse[lo : lo + m.size] = m + np.log(np.exp(expo - m).sum(axis=0))
        return -(1.0 - t) * float(np.sum(self.cells.node_mass * lse))

    def evaluate(self, psi, t):
        """Gradient, Hessian and time derivative: from per-axis tables when
        the cost splits per axis and the range guard admits the stage, else
        from one chunked node sweep."""
        a = self._depth(psi, t)
        if self._splits:
            alpha, beta = self._axis_exponents(a, t)
            peaks = alpha.max(axis=0), beta.max(axis=0)
            if _gap_bound(alpha, beta, peaks) <= MAX_AXIS_GAP:
                return self._separable(a, t, alpha, beta, peaks)
        return self._chunked(a, t)

    def _axis_exponents(self, a, t):
        """The per-axis exponents alpha = a/(1-t) - (t/(1-t))*D1, (N, n1),
        and beta = -(t/(1-t))*D2, (N, n2), whose sum over a node (p, q) is
        its exponent a/(1-t) - (t/(1-t))*C."""
        if self._pairs is None:
            self._pairs = _PairTables.build(self.cells)
        scale = -t / (1.0 - t)
        alpha = self._pairs.d1 * scale
        alpha += (a / (1.0 - t))[:, None]
        return alpha, self._pairs.d2 * scale

    def _separable(self, a, t, alpha, beta, peaks):
        """The three blocks from the per-axis exponents `alpha` (N, n1) and
        `beta` (N, n2) of a 2-D quadratic cost and their maxima `peaks` over
        the targets (see the module docstring).  Overwrites alpha and beta."""
        pairs = self._pairs
        n, p = self.n, pairs.j.size
        u = np.exp(np.subtract(alpha, peaks[0], out=alpha), out=alpha)
        v = np.exp(np.subtract(beta, peaks[1], out=beta), out=beta)
        # R = w / total**2 with the node sums total = U^T V, (n1, n2)
        r = u.T @ v
        np.divide(pairs.w, np.multiply(r, r, out=r), out=r)
        # pair rows (j, k >= j): W1 = U_j U_k then W1 * dD1, and W2 = V_j V_k
        stack = np.empty((2 * p, u.shape[1]))
        np.multiply(u[pairs.j], u[pairs.k], out=stack[:p])
        np.multiply(stack[:p], pairs.dd1, out=stack[p:])
        w2 = np.multiply(v[pairs.j], v[pairs.k])
        t12 = stack @ r
        t1, t2 = t12[:p], t12[p:]
        s_pairs = np.einsum("pi,pi->p", w2, t1)
        t2 += np.multiply(t1, pairs.dd2, out=t1)
        z_pairs = np.einsum("pi,pi->p", w2, t2)
        outer = np.empty(n * n)
        outer[pairs.upper] = s_pairs
        outer[pairs.lower] = s_pairs
        z = np.empty(n * n)
        z[pairs.upper] = z_pairs
        z[pairs.lower] = -z_pairs
        return _blocks(outer.reshape(n, n), z.reshape(n, n).sum(axis=1), a, t)

    def _chunked(self, a, t):
        """The three blocks from one chunked sweep over the (N, M) cost."""
        outer = np.zeros((self.n, self.n))
        spread = np.zeros(self.n)
        for lo, cost in self.cells.blocks():
            w = self.cells.node_mass[lo : lo + cost.shape[1]]
            pi = _softmax(a, t, cost)
            piw = pi * w
            outer += piw @ pi.T
            mean_cost = np.einsum("jm,jm->m", pi, cost)
            spread += np.einsum("jm,jm->j", cost - mean_cost, piw)
        return _blocks(outer, spread, a, t)


def _blocks(outer, spread, a, t):
    """grad, hess and dt_grad from S = `outer` and `spread`; the Hessian
    (S - diag(col)) / (1-t) is formed in `outer`'s own storage."""
    col = outer.sum(axis=1)
    pull = (outer * (a[None, :] - a[:, None])).sum(axis=1)
    hess = outer
    hess.flat[:: col.size + 1] -= col
    hess /= 1.0 - t
    return KernelEval(grad=-col, hess=hess, dt_grad=(pull + spread) / (1.0 - t) ** 2)
