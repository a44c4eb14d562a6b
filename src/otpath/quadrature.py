"""Composite Gauss-Legendre quadrature on a box in 1-D or 2-D.

Every grid-route integral against a density is a sum of these weights times
the density at these nodes (cell masses, kernel sweeps, terminal residual).
Grids are deterministic: the same (domain, panels, order) always produces
bit-identical nodes and weights.

The Gauss-Legendre rule of an order (an eigenvalue solve) is computed once
per process and shared read-only by every grid of that order.  A 2-D grid is
filled straight from its per-axis coordinates and weights: node p * n2 + q is
(x1[p], x2[q]) with weight w1[p] * w2[q], and callers that can work per axis
(`model.cost_matrix`, `laguerre.GridCells`) read `axes` instead of `nodes`.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MIN_ORDER = 2
MAX_ORDER = 16


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product composite Gauss-Legendre rule.

    nodes has shape (M, dim) with M = (panels_per_axis * order) ** dim;
    weights are strictly positive and sum to the box volume.  `axes` holds
    the per-axis node coordinates: nodes[p * n2 + q] = (axes[0][p],
    axes[1][q]) in 2-D, so the first axis varies slowest.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panels_per_axis: int
    order: int
    lower: tuple
    upper: tuple
    axes: tuple

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        for x in self.axes:
            x.setflags(write=False)

    @property
    def dim(self):
        return len(self.lower)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]


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
    axes = [
        axis_rule(lo, hi, panels_per_axis, order) for lo, hi in zip(lower, upper)
    ]
    if len(axes) == 1:
        [(x1, weights)] = axes
        nodes = x1[:, None]
    elif len(axes) == 2:
        (x1, w1), (x2, w2) = axes
        nodes = np.empty((x1.size, x2.size, 2))
        nodes[:, :, 0] = x1[:, None]
        nodes[:, :, 1] = x2
        nodes = nodes.reshape(-1, 2)
        weights = np.multiply.outer(w1, w2).ravel()
    else:
        raise ConfigError(f"only 1-D and 2-D domains are supported, got dim={len(axes)}")
    return QuadratureGrid(
        nodes=nodes,
        weights=weights,
        panels_per_axis=int(panels_per_axis),
        order=int(order),
        lower=lower,
        upper=upper,
        axes=tuple(x for x, _ in axes),
    )


def refine_grid(grid, factor):
    """Same rule on the same box with `factor` times as many panels per axis."""
    return build_grid(grid, grid.panels_per_axis * int(factor), grid.order)
