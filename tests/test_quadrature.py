import numpy as np
import pytest

from otpath import (
    ConfigError,
    Domain,
    build_grid,
    density_eval,
    gaussian_bump_density,
    refine_grid,
)
from otpath import quadrature


def test_two_point_rule_on_unit_interval(dom1):
    grid = build_grid(dom1, 1, 2)
    expected = np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
    assert np.allclose(np.sort(grid.nodes[:, 0]), expected, atol=1e-15)
    assert np.allclose(grid.weights, [0.5, 0.5], atol=1e-15)


def test_tensor_product_counts(dom2):
    grid = build_grid(dom2, 2, 4)
    assert grid.n_nodes == 64
    assert grid.nodes.shape == (64, 2)
    assert abs(grid.weights.sum() - 1.0) < 1e-12


def test_axes_span_the_nodes(dom1, dom2):
    # first axis slowest, as the tensor cost matrix and the kernel read them
    grid = build_grid(dom2, 3, 4)
    x1, x2 = grid.axes
    assert np.array_equal(grid.nodes[:, 0], np.repeat(x1, x2.size))
    assert np.array_equal(grid.nodes[:, 1], np.tile(x2, x1.size))
    assert not x1.flags.writeable
    line = build_grid(dom1, 3, 4)
    assert np.array_equal(line.nodes[:, 0], line.axes[0])


@pytest.mark.parametrize("order", [2, 6, 16])
@pytest.mark.parametrize("box", [((0.0, 0.0), (1.0, 1.0)), ((-2.0, 0.5), (3.0, 0.75))])
def test_nodes_and_weights_match_the_meshgrid_construction(order, box):
    # filled from the axes, the same bits as meshgrid + column_stack of the
    # per-axis rules and the flattened outer product of their weights
    dom = Domain(lower=box[0], upper=box[1])
    grid = build_grid(dom, 5, order)
    (x1, w1), (x2, w2) = (quadrature.axis_rule(lo, hi, 5, order) for lo, hi in zip(*box))
    g1, g2 = np.meshgrid(x1, x2, indexing="ij")
    assert np.array_equal(grid.nodes, np.column_stack([g1.ravel(), g2.ravel()]))
    assert np.array_equal(grid.weights, (w1[:, None] * w2[None, :]).ravel())
    line = build_grid(Domain(lower=box[0][:1], upper=box[1][:1]), 5, order)
    assert np.array_equal(line.nodes, x1[:, None]) and np.array_equal(line.weights, w1)


@pytest.mark.parametrize("dim", [1, 2])
def test_nodes_and_weights_formed_on_first_read(dim):
    # a grid holds its axes alone; the tensor nodes and weights are formed
    # when first read, then kept read-only, with the bits of the eager
    # construction that built them with every grid
    dom = Domain(lower=(-2.0, 0.5)[:dim], upper=(3.0, 0.75)[:dim])
    grid = build_grid(dom, 5, 6)
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)
    assert grid.n_nodes == 30**dim
    rules = [quadrature.axis_rule(lo, hi, 5, 6) for lo, hi in zip(dom.lower, dom.upper)]
    if dim == 1:
        [(x1, w1)] = rules
        nodes, weights = x1[:, None], w1
    else:
        (x1, w1), (x2, w2) = rules
        nodes = np.empty((x1.size, x2.size, 2))
        nodes[:, :, 0] = x1[:, None]
        nodes[:, :, 1] = x2
        nodes, weights = nodes.reshape(-1, 2), np.multiply.outer(w1, w2).ravel()
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)  # n_nodes formed neither
    assert np.array_equal(grid.nodes, nodes) and np.array_equal(grid.weights, weights)
    assert grid.nodes is grid.nodes and grid.weights is grid.weights
    assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable


def test_legendre_rule_is_cached_read_only():
    x, w = quadrature._legendre(6)
    assert quadrature._legendre(6)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(6)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_weights_positive_and_sum_to_volume():
    dom = Domain(lower=(-2.0,), upper=(3.0,))
    grid = build_grid(dom, 5, 3)
    assert grid.weights.min() > 0
    assert abs(grid.weights.sum() - 5.0) < 5.0 * 1e-12
    assert grid.n_nodes == 15


@pytest.mark.parametrize("order", [2, 4, 8])
def test_polynomial_exactness(dom1, order):
    grid = build_grid(dom1, 4, order)
    for k in range(2 * order):
        val = np.sum(grid.weights * grid.nodes[:, 0] ** k)
        exact = 1.0 / (k + 1)
        assert abs(val - exact) <= 1e-13 * max(1.0, abs(exact))


def test_cubic_exact_at_order_eight(dom1):
    grid = build_grid(dom1, 4, 8)
    assert np.sum(grid.weights * grid.nodes[:, 0] ** 3) == pytest.approx(0.25, abs=1e-15)


def test_constant_and_linear(dom1, grid1):
    assert np.sum(grid1.weights) == pytest.approx(1.0, abs=1e-13)
    assert np.sum(grid1.weights * grid1.nodes[:, 0]) == pytest.approx(0.5, abs=1e-13)


def test_gauss_density_normalized(dom1, grid1):
    spec = gaussian_bump_density(dom1)
    total = np.sum(grid1.weights * density_eval(spec, grid1.nodes))
    assert abs(total - 1.0) <= 1e-6


def test_refinement_stability(dom1, dom2, grid1, grid2):
    # Doubling the panel count moves catalog-density integrals by <= 1e-8.
    for dom, grid in ((dom1, grid1), (dom2, grid2)):
        spec = gaussian_bump_density(dom)
        fine_grid = refine_grid(grid, 2)
        coarse = np.sum(grid.weights * density_eval(spec, grid.nodes))
        fine = np.sum(fine_grid.weights * density_eval(spec, fine_grid.nodes))
        assert abs(coarse - fine) <= 1e-8


def test_determinism_bitwise(dom2):
    g1 = build_grid(dom2, 6, 5)
    g2 = build_grid(dom2, 6, 5)
    assert np.array_equal(g1.nodes, g2.nodes)
    assert np.array_equal(g1.weights, g2.weights)
    f = lambda x: np.exp(-(x**2).sum(axis=1))
    assert np.sum(g1.weights * f(g1.nodes)) == np.sum(g2.weights * f(g2.nodes))


def test_parameter_validation(dom1):
    with pytest.raises(ConfigError):
        build_grid(dom1, 0, 4)
    with pytest.raises(ConfigError):
        build_grid(dom1, 4, 1)
    with pytest.raises(ConfigError):
        build_grid(dom1, 4, 17)
