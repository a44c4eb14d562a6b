import numpy as np
import pytest

from otpath import build_grid, build_problem, unit_domain
from otpath.laguerre import GridCells
from otpath.model import cost_matrix


@pytest.fixture(scope="session")
def dom1():
    return unit_domain(1)


@pytest.fixture(scope="session")
def dom2():
    return unit_domain(2)


@pytest.fixture(scope="session")
def grid1(dom1):
    return build_grid(dom1, 64, 8)


@pytest.fixture(scope="session")
def grid2(dom2):
    return build_grid(dom2, 48, 6)


@pytest.fixture(scope="session")
def p1_1d():
    return build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": 7})


@pytest.fixture(scope="session")
def mirror_pair():
    """Mirror-symmetric two-target instance with exact solution log 2."""
    return build_problem({"variant": "p1", "dim": 1, "targets": [[0.25], [0.75]]})


def central_diff(f, x, step=1e-5):
    """Componentwise centered finite difference of a vector-to-any function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


def central_diff_scalar_arg(f, t, step=1e-5):
    return (np.asarray(f(t + step)) - np.asarray(f(t - step))) / (2.0 * step)


def on_matrix(cells, grid, exponent=2.0):
    """The same grid-cell operands on an explicit (N, M) matrix, the per-node
    sum of `cost_matrix`: every pass reads that matrix."""
    cost = cost_matrix(cells.targets.points, grid.nodes, exponent)
    return GridCells(targets=cells.targets, cost=cost, node_mass=cells.node_mass, spacing=cells.spacing)
