"""Composite Gauss-Legendre quadrature on a box in 1-D or 2-D.

Every grid-route integral against a density is a sum of these weights times
the density at these nodes (cell masses, kernel sweeps, terminal residual).
Grids are deterministic: the same (domain, panels, order) always produces
bit-identical nodes and weights.

The Gauss-Legendre rule of an order (an eigenvalue solve) is computed once
per process and shared read-only by every grid of that order.  A grid holds
its per-axis coordinates `axes` and weights `axis_weights` alone: node
p * n2 + q is (x1[p], x2[q]) with weight w1[p] * w2[q].  The (M, dim)
`nodes` and (M,) `weights` are formed from them on first read and then kept;
the solve paths (`model.cost_matrix`, `laguerre.GridCells`, the kernel) and
the snapshot writer (`cli.write_snapshot_csv`, from per-axis coordinate text)
work per axis and read neither, so no path of a run forms 2-D `nodes`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MIN_ORDER = 2
MAX_ORDER = 16


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product composite Gauss-Legendre rule.

    `axes` and `axis_weights` hold the per-axis node coordinates and
    weights.  `nodes` (M, dim), M = (panels_per_axis * order) ** dim, and
    `weights` (M,) are their tensor product, formed on first read:
    nodes[p * n2 + q] = (axes[0][p], axes[1][q]) in 2-D, so the first axis
    varies slowest.  Weights are strictly positive and sum to the box volume.
    """

    panels_per_axis: int
    order: int
    lower: tuple
    upper: tuple
    axes: tuple
    axis_weights: tuple

    def __post_init__(self):
        for x in self.axes + self.axis_weights:
            x.setflags(write=False)

    @property
    def dim(self):
        return len(self.lower)

    @property
    def n_nodes(self):
        return math.prod(x.size for x in self.axes)

    @functools.cached_property
    def nodes(self):
        if self.dim == 1:
            return self.axes[0][:, None]
        x1, x2 = self.axes
        nodes = np.empty((x1.size, x2.size, 2))
        nodes[:, :, 0] = x1[:, None]
        nodes[:, :, 1] = x2
        nodes = nodes.reshape(-1, 2)
        nodes.setflags(write=False)
        return nodes

    @functools.cached_property
    def weights(self):
        weights = tensor_weights(self.axis_weights)
        weights.setflags(write=False)
        return weights


@functools.cache
def _legendre(order):
    """Read-only Gauss-Legendre nodes and weights of `order` on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def axis_rule(lo, hi, panels, order):
    """Nodes/weights of the composite rule on [lo, hi] for one axis."""
    x, w = _legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def tensor_weights(axis_weights):
    """The (M,) weights of the tensor rule with per-axis weights
    `axis_weights`: w1 in 1-D, w1[p] * w2[q] at node p * n2 + q in 2-D."""
    if len(axis_weights) == 1:
        return axis_weights[0]
    return np.multiply.outer(*axis_weights).ravel()


def build_grid(domain, panels_per_axis, order):
    """Build the composite rule over `domain` (any object with lower/upper).

    panels_per_axis >= 1 and order in [2, 16]; the 2-D rule is the tensor
    product of the per-axis rules.
    """
    if panels_per_axis < 1:
        raise ConfigError(f"panels_per_axis must be >= 1, got {panels_per_axis}")
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ConfigError(
            f"quadrature order must be in [{MIN_ORDER}, {MAX_ORDER}], got {order}"
        )
    lower = tuple(float(v) for v in domain.lower)
    upper = tuple(float(v) for v in domain.upper)
    if len(lower) not in (1, 2):
        raise ConfigError(f"only 1-D and 2-D domains are supported, got dim={len(lower)}")
    rules = [axis_rule(lo, hi, panels_per_axis, order) for lo, hi in zip(lower, upper)]
    return QuadratureGrid(
        panels_per_axis=int(panels_per_axis),
        order=int(order),
        lower=lower,
        upper=upper,
        axes=tuple(x for x, _ in rules),
        axis_weights=tuple(w for _, w in rules),
    )


def refine_grid(grid, factor):
    """Same rule on the same box with `factor` times as many panels per axis."""
    return build_grid(grid, grid.panels_per_axis * int(factor), grid.order)
