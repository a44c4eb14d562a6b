import numpy as np
import pytest

from otpath import (
    DualState,
    KernelEvaluator,
    NonFiniteValueError,
    build_problem,
    build_grid,
    unit_domain,
)
from otpath import laguerre
from otpath.kernel import MAX_AXIS_GAP, _blocks, _gap_bound
from otpath.laguerre import CHUNK_NODES
from otpath.model import cost_matrix
from conftest import central_diff, central_diff_scalar_arg, on_matrix


def _random_problem(n, dim=1, seed=0, variant="p1"):
    cfg = {"variant": variant, "dim": dim, "n_targets": n, "seed": seed}
    if variant == "p3":
        cfg["anchor"] = [0.5] * dim
    return build_problem(cfg)


def _evaluate(psi, t, problem, grid):
    return KernelEvaluator(problem, grid).evaluate(psi, t)


def _cost(ke):
    """The (N, M) cost matrix of the evaluator's targets at its grid nodes."""
    prob, grid = ke.problem, ke.grid
    return cost_matrix(prob.targets.points, grid.nodes, prob.cost.exponent, grid.axes)


def test_softmax_symmetric_point(dom1, mirror_pair):
    grid = build_grid(dom1, 1, 3)  # its middle node is x = 0.5
    ke = KernelEvaluator(mirror_pair, grid)
    for t in (0.0, 0.3, 0.9):
        pi = ke.node_weights(np.zeros(2), t)
        assert np.allclose(pi[1], [0.5, 0.5], atol=1e-15)
        assert np.allclose(pi[0], pi[2, ::-1], atol=1e-12)  # mirror nodes swap


def test_softmax_at_t_zero_ignores_position(grid1, p1_1d):
    psi = np.array([0.4, -0.2, 0.1, 0.0])
    ref = np.exp(psi) / np.exp(psi).sum()
    pi = KernelEvaluator(p1_1d, grid1).node_weights(psi, 0.0)
    assert np.abs(pi - ref).max() <= 1e-15


def test_softmax_overflow_safe_near_one(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.0], [1.0]]})
    pi = KernelEvaluator(prob, grid1).node_weights(np.zeros(2), 0.99)[0]
    # costs are (x^2, (1-x)^2) at the first node x, so the second exponent is
    # -99 (1 - 2x): near -99, far past where unshifted sums lose the first term
    x = grid1.nodes[0, 0]
    gap = np.exp(-99.0 * (1.0 - 2.0 * x))
    assert pi[0] == pytest.approx(1.0 / (1.0 + gap), rel=1e-12)
    assert pi[1] == pytest.approx(gap / (1.0 + gap), rel=1e-9)
    assert np.isfinite(pi).all()


def test_softmax_sums_to_one_everywhere(grid1, p1_1d):
    rng = np.random.default_rng(1)
    ke = KernelEvaluator(p1_1d, grid1)
    for _ in range(5):
        psi = rng.uniform(-2, 2, 4)
        t = rng.uniform(0, 0.999)
        pi = ke.node_weights(psi, t)
        assert pi.min() >= 0.0 and pi.max() <= 1.0
        assert np.abs(pi.sum(axis=1) - 1.0).max() <= 4 * np.spacing(1.0)


def test_grad_constant_at_t_zero(grid1, p1_1d):
    g = _evaluate(np.zeros(4), 0.0, p1_1d, grid1).grad
    assert np.allclose(g, -0.25, atol=1e-12)


def test_grad_single_target(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.4]]})
    for psi, t in ((np.array([2.0]), 0.0), (np.array([-1.0]), 0.7)):
        assert _evaluate(psi, t, prob, grid1).grad == pytest.approx(-1.0, abs=1e-12)


def test_grad_shift_invariance(grid1, p1_1d):
    psi = np.array([0.3, -0.4, 0.2, 0.0])
    g0 = _evaluate(psi, 0.6, p1_1d, grid1).grad
    g1 = _evaluate(psi + 1.7, 0.6, p1_1d, grid1).grad
    assert np.abs(g0 - g1).max() <= 1e-12


def test_grad_range_and_total(grid1, p1_1d):
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = _evaluate(rng.uniform(-1, 1, 4), rng.uniform(0, 0.9), p1_1d, grid1).grad
        assert np.all(g <= 0.0) and np.all(g >= -1.0)
        assert g.sum() == pytest.approx(-1.0, abs=1e-10)


def test_hessian_two_targets_at_zero(grid1, mirror_pair):
    hess = _evaluate(np.zeros(2), 0.0, mirror_pair, grid1).hess
    assert np.allclose(hess, [[-0.25, 0.25], [0.25, -0.25]], atol=1e-12)


def test_hessian_structure(grid1, p1_1d):
    rng = np.random.default_rng(3)
    for _ in range(5):
        hess = _evaluate(rng.uniform(-1, 1, 4), rng.uniform(0.05, 0.9), p1_1d, grid1).hess
        assert np.abs(hess - hess.T).max() <= 1e-10
        assert np.abs(hess.sum(axis=1)).max() <= 1e-10
        assert np.linalg.eigvalsh(hess).max() <= 1e-10


def test_dt_grad_vanishes_by_symmetry(grid1, mirror_pair):
    # both targets see the same cost profile under the symmetric density
    dt = _evaluate(np.zeros(2), 0.5, mirror_pair, grid1).dt_grad
    assert np.abs(dt).max() <= 1e-12


def test_dt_grad_single_target(grid1):
    prob = build_problem({"variant": "p1", "dim": 1, "targets": [[0.4]]})
    assert _evaluate(np.array([0.3]), 0.5, prob, grid1).dt_grad == pytest.approx(0.0, abs=1e-15)


def test_dt_grad_total_is_zero(grid1, p1_1d):
    rng = np.random.default_rng(4)
    for _ in range(5):
        dt = _evaluate(rng.uniform(-1, 1, 4), rng.uniform(0.05, 0.9), p1_1d, grid1).dt_grad
        assert abs(dt.sum()) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_finite_difference_consistency(grid1, n):
    # grad against the value; hess and dt_grad against the grad block
    rng = np.random.default_rng(n)
    prob = _random_problem(n, seed=n)
    ke = KernelEvaluator(prob, grid1)
    for _ in range(5):
        psi = rng.uniform(-0.5, 0.5, n)
        t = rng.uniform(0.15, 0.85)
        ev = ke.evaluate(psi, t)
        fd_grad = central_diff(lambda p: ke.value(p, t), psi)
        assert np.abs(ev.grad - fd_grad).max() <= 1e-6 * max(1.0, np.abs(ev.grad).max())
        fd_hess = central_diff(lambda p: ke.evaluate(p, t).grad, psi)
        assert np.abs(ev.hess - fd_hess).max() <= 1e-5 * max(1.0, np.abs(ev.hess).max())
        fd_dt = central_diff_scalar_arg(lambda s: ke.evaluate(psi, s).grad, t)
        assert np.abs(ev.dt_grad - fd_dt).max() <= 1e-5 * max(1.0, np.abs(fd_dt).max())


def test_offset_kernel_matches_shifted_plain_kernel(grid1):
    # the anchored variant's kernel is the plain kernel at psi - offsets
    anchored = _random_problem(3, seed=5, variant="p3")
    plain = build_problem(
        {"variant": "p1", "dim": 1, "targets": anchored.targets.points.tolist()}
    )
    psi = np.array([0.2, -0.1, 0.4])
    t = 0.55
    ea = KernelEvaluator(anchored, grid1).evaluate(psi, t)
    ep = KernelEvaluator(plain, grid1).evaluate(psi - anchored.offsets, t)
    assert np.allclose(ea.grad, ep.grad, atol=1e-14)
    assert np.allclose(ea.dt_grad, ep.dt_grad, atol=1e-12)


def test_no_overflow_for_extreme_exponents(grid1, p1_1d):
    ke = KernelEvaluator(p1_1d, grid1)
    t = 1.0 - 1e-6
    psi = np.array([1.0, -1.0, 0.5, 0.0])  # exponents reach ~1e6 before the shift
    ev = ke.evaluate(psi, t)
    assert np.isfinite(ev.grad).all()
    assert np.isfinite(ev.hess).all()
    assert np.isfinite(ev.dt_grad).all()


def _node_major_reference(ke, psi, t):
    """The three blocks by the node-major (M, N) formulas the fused sweep
    replaced: one softmax over all nodes, then per-block reductions."""
    cost = _cost(ke).T
    expo = (psi[None, :] - ke.offsets[None, :] - t * cost) / (1.0 - t)
    expo -= expo.max(axis=1, keepdims=True)
    pi = np.exp(expo)
    pi /= pi.sum(axis=1, keepdims=True)
    piw = ke.cells.node_mass[:, None] * pi
    col = piw.sum(axis=0)
    hess = (piw.T @ pi - np.diag(col)) / (1.0 - t)
    depth = psi[None, :] - ke.offsets[None, :] - cost
    mean_depth = (pi * depth).sum(axis=1, keepdims=True)
    dt_grad = np.sum(piw * (mean_depth - depth), axis=0) / (1.0 - t) ** 2
    return -col, hess, dt_grad


def _rel_gap(got, ref):
    return np.abs(got - ref).max() / max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("t", [0.0, 0.5, 0.99])
@pytest.mark.parametrize("variant", ["p1", "p3"])
@pytest.mark.parametrize(
    "dim, panels, order",
    [
        (1, 64, 8),  # 512 nodes: one partial chunk
        (2, 12, 6),  # 5,184 nodes: one partial chunk
        (2, 24, 6),  # 20,736 nodes: full chunks and a partial one
    ],
)
def test_evaluate_matches_node_major_reference(dim, panels, order, variant, t):
    grid = build_grid(unit_domain(dim), panels, order)
    assert grid.n_nodes < CHUNK_NODES or grid.n_nodes % CHUNK_NODES
    prob = _random_problem(5, dim=dim, seed=11, variant=variant)
    ke = KernelEvaluator(prob, grid)
    psi = np.random.default_rng(dim).uniform(-0.5, 0.5, 5)
    ev = ke.evaluate(psi, t)
    grad, hess, dt_grad = _node_major_reference(ke, psi, t)
    assert _rel_gap(ev.grad, grad) <= 1e-12
    assert _rel_gap(ev.hess, hess) <= 1e-12
    assert _rel_gap(ev.dt_grad, dt_grad) <= 1e-12


def test_time_domain_enforced(grid1, p1_1d):
    with pytest.raises(ValueError):
        KernelEvaluator(p1_1d, grid1).evaluate(np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        KernelEvaluator(p1_1d, grid1).node_weights(np.zeros(4), 1.2)


def test_dual_state_validation():
    with pytest.raises(ValueError):
        DualState(t=1.5, psi=np.zeros(2))
    with pytest.raises(NonFiniteValueError):
        DualState(t=0.5, psi=np.array([np.nan, 0.0]))
    state = DualState(t=0.5, psi=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        state.psi[0] = 3.0


def _docstring_reference(ke, psi, t, dtype=float):
    """The module docstring's formulas, unchunked and target-major: softmax
    of the exponents a/(1-t) - (t/(1-t))*C per node, then S, col and spread
    over all nodes, in `dtype`.  Also returns, per block, the size of the
    terms its formula adds up, the scale its rounding error is relative to."""
    a = (psi - ke.offsets).astype(dtype)
    cost, w = _cost(ke).astype(dtype), ke.cells.node_mass.astype(dtype)
    t = dtype(t)
    expo = (a / (1.0 - t))[:, None] - (t / (1.0 - t)) * cost
    pi = np.exp(expo - expo.max(axis=0))
    pi /= pi.sum(axis=0)
    piw = pi * w
    outer = piw @ pi.T
    col = piw.sum(axis=1)
    dev = cost - (pi * cost).sum(axis=0)
    spread = (piw * dev).sum(axis=1)
    gaps = a[None, :] - a[:, None]
    pull = (outer * gaps).sum(axis=1)
    blocks = (-col, (outer - np.diag(col)) / (1.0 - t), (pull + spread) / (1.0 - t) ** 2)
    terms = (
        col.max(),
        outer.max() / (1.0 - t),
        ((outer * np.abs(gaps)).sum(axis=1) + (piw * np.abs(dev)).sum(axis=1)).max() / (1.0 - t) ** 2,
    )
    return blocks, terms


_DOCSTRING_GRIDS = (
    (1, 64, 8),  # 512 nodes: one partial chunk
    (2, 12, 6),  # 5,184 nodes: one partial chunk
    (2, 24, 6),  # 20,736 nodes: full chunks and a partial one
)


@pytest.mark.parametrize("t", [0.0, 0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("variant", ["p1", "p3"])
@pytest.mark.parametrize(
    "dim, panels, order, n",
    # every N, 12 and 16 included, takes one Gram product per chunk of up to
    # CHUNK_NODES = 8,192 nodes
    [pytest.param(*g, 6, id="-".join(map(str, g))) for g in _DOCSTRING_GRIDS]
    + [
        pytest.param(*g, n, id="-".join(map(str, g)) + f"-n{n}")
        for n in (1, 12, 16, 24)
        for g in _DOCSTRING_GRIDS
    ],
)
def test_evaluate_matches_unchunked_docstring_formulas(dim, panels, order, n, variant, t):
    # near t = 1 the Hessian diagonal and dt_grad are small differences of
    # large terms, so the error is measured against the terms, not the result
    grid = build_grid(unit_domain(dim), panels, order)
    prob = _random_problem(n, dim=dim, seed=13, variant=variant)
    ke = KernelEvaluator(prob, grid)
    for seed in range(3):
        psi = prob.offsets + np.random.default_rng(seed).uniform(-0.2, 0.2, n)
        ev = ke.evaluate(psi, t)
        blocks, terms = _docstring_reference(ke, psi, t)
        for got, ref, scale in zip((ev.grad, ev.hess, ev.dt_grad), blocks, terms):
            assert np.abs(got - ref).max() <= 1e-13 * scale
        # col is the row sums of S, so each Hessian row cancels up to the
        # rounding of one n-term sum of entries no larger than col / (1-t)
        row_scale = terms[0] / (1.0 - t)
        assert np.abs(ev.hess.sum(axis=1)).max() <= n * np.finfo(float).eps * row_scale


def _routes(ke, psi, t):
    """Both routes' blocks at one point, and the guard's bound there."""
    a = psi - ke.offsets
    alpha, beta = ke._axis_exponents(a, t)
    peaks = alpha.max(axis=0), beta.max(axis=0)
    bound = _gap_bound(alpha, beta, peaks)  # before _separable overwrites alpha and beta
    return ke._separable(a, t, alpha, beta, peaks), ke._chunked(a, t), bound


@pytest.mark.parametrize("t", [0.0, 0.5, 0.9, 0.99, 0.9925])
@pytest.mark.parametrize("variant", ["p1", "p3"])
@pytest.mark.parametrize("n", [1, 2, 6, 12, 24])
@pytest.mark.parametrize("panels", [12, 24, 48])
def test_separable_route_matches_chunked_route(panels, n, variant, t):
    # the same bound as the docstring-formula test, relative to the terms
    grid = build_grid(unit_domain(2), panels, 6)
    prob = _random_problem(n, dim=2, seed=17, variant=variant)
    ke = KernelEvaluator(prob, grid)
    psi = prob.offsets + np.random.default_rng(n).uniform(-0.2, 0.2, n)
    sep, chunk, bound = _routes(ke, psi, t)
    assert bound <= MAX_AXIS_GAP
    _, terms = _docstring_reference(ke, psi, t)
    for got, ref, scale in zip(
        (sep.grad, sep.hess, sep.dt_grad), (chunk.grad, chunk.hess, chunk.dt_grad), terms
    ):
        assert np.abs(got - ref).max() <= 1e-13 * scale
    assert np.array_equal(sep.hess, sep.hess.T)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
)
@pytest.mark.parametrize("t", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("variant", ["p1", "p3"])
@pytest.mark.parametrize("n", [2, 5])
def test_both_routes_match_a_long_double_reference(n, variant, t):
    # the docstring formulas in long double are rounded like neither route
    grid = build_grid(unit_domain(2), 3, 4)  # 144 nodes
    prob = _random_problem(n, dim=2, seed=19, variant=variant)
    ke = KernelEvaluator(prob, grid)
    for seed in range(3):
        psi = prob.offsets + np.random.default_rng(seed).uniform(-0.2, 0.2, n)
        sep, chunk, _ = _routes(ke, psi, t)
        blocks, terms = _docstring_reference(ke, psi, t, np.longdouble)
        for k, (ref, scale) in enumerate(zip(blocks, terms)):
            for ev in (sep, chunk):
                got = (ev.grad, ev.hess, ev.dt_grad)[k]
                assert np.abs(got - ref).max() <= 1e-14 * float(scale)


def _loop_separable(ke, a, t):
    """The separable route in its loop form: pair rows built one target j at
    a time, the guard from `np.ptp`, and S and Z scattered by (row, column)
    index.  Returns the three blocks and the guard's bound."""
    alpha, beta = ke._axis_exponents(a, t)
    bound = min(np.ptp(alpha, axis=0).max(), np.ptp(beta, axis=0).max())
    pairs = ke._pairs
    n, p = ke.n, pairs.j.size
    u = np.exp(alpha - alpha.max(axis=0))
    v = np.exp(beta - beta.max(axis=0))
    r = u.T @ v
    np.divide(pairs.w, np.multiply(r, r, out=r), out=r)
    stack = np.empty((2 * p, u.shape[1]))
    w2 = np.empty((p, v.shape[1]))
    lo = 0
    for j in range(n):
        hi = lo + n - j
        np.multiply(u[j], u[j:], out=stack[lo:hi])
        np.multiply(v[j], v[j:], out=w2[lo:hi])
        lo = hi
    np.multiply(stack[:p], pairs.dd1, out=stack[p:])
    t12 = stack @ r
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
    return _blocks(outer, z.sum(axis=1), a, t), bound


@pytest.mark.parametrize("t", [0.0, 0.5, 0.99, 0.9925])
@pytest.mark.parametrize("n", [1, 2, 7, 12])
@pytest.mark.parametrize("panels", [4, 24])
def test_separable_route_equals_its_loop_form(panels, n, t):
    # the gathered pair rows, the guard from the shift's maxima, the in-place
    # exponentials and the flat scatter change no bit
    grid = build_grid(unit_domain(2), panels, 6)
    prob = _random_problem(n, dim=2, seed=29, variant="p3")
    ke = KernelEvaluator(prob, grid)
    psi = prob.offsets + np.random.default_rng(n).uniform(-0.2, 0.2, n)
    ev = ke.evaluate(psi, t)
    ref, bound = _loop_separable(ke, psi - ke.offsets, t)
    alpha, beta = ke._axis_exponents(psi - ke.offsets, t)
    assert _gap_bound(alpha, beta, (alpha.max(axis=0), beta.max(axis=0))) == bound <= MAX_AXIS_GAP
    for got, want in zip((ev.grad, ev.hess, ev.dt_grad), (ref.grad, ref.hess, ref.dt_grad)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("t", [0.0, 0.3, 0.9, 0.999])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_gap_bound_covers_the_exact_gap(n, t):
    # the per-axis maxima overshoot the per-node maximum by g(p, q)
    grid = build_grid(unit_domain(2), 2, 3)
    prob = _random_problem(n, dim=2, seed=23, variant="p1")
    ke = KernelEvaluator(prob, grid)
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, n)
        alpha, beta = ke._axis_exponents(a, t)
        node = alpha[:, :, None] + beta[:, None, :]
        peaks = alpha.max(axis=0), beta.max(axis=0)
        gap = peaks[0][:, None] + peaks[1][None, :] - node.max(axis=0)
        slack = 1e-12 * np.abs(node).max()
        assert gap.min() >= -slack
        assert _gap_bound(alpha, beta, peaks) + slack >= gap.max()


def test_the_data_picks_the_route(monkeypatch):
    ran = []
    for name in ("_separable", "_chunked"):
        original = getattr(KernelEvaluator, name)
        monkeypatch.setattr(
            KernelEvaluator,
            name,
            lambda self, *args, _f=original, _n=name: ran.append(_n) or _f(self, *args),
        )
    grid = build_grid(unit_domain(2), 4, 3)
    inside = _random_problem(4, dim=2, seed=3)
    far = build_problem({"variant": "p1", "dim": 2, "targets": [[-2.0, -2.0], [3.0, 3.0]]})
    cubic = build_problem({"variant": "p1", "dim": 2, "n_targets": 4, "seed": 3, "cost_exponent": 3})
    cases = [
        (inside, grid, 0.5, "_separable"),
        (far, grid, 0.5, "_separable"),
        (far, grid, 0.999, "_chunked"),  # the range guard refuses
        (cubic, grid, 0.5, "_chunked"),
        (_random_problem(4, dim=1, seed=3), build_grid(unit_domain(1), 8, 4), 0.5, "_chunked"),
    ]
    for prob, g, t, route in cases:
        ran.clear()
        ev = KernelEvaluator(prob, g).evaluate(np.zeros(prob.n), t)
        assert ran == [route]
        assert np.isfinite(ev.dt_grad).all()


def test_a_refused_2d_stage_streams_the_tables(monkeypatch):
    # the range guard refuses the stage, and the chunked route reads the
    # cells' per-axis tables chunk by chunk: no (N, M) matrix is built, and
    # the blocks are those read from the matrix, bit for bit; so is `value`
    grid = build_grid(unit_domain(2), 24, 6)  # chunk boundaries inside axis rows
    far = build_problem({"variant": "p1", "dim": 2, "targets": [[-2.0, -2.0], [3.0, 3.0]]})
    ke = KernelEvaluator(far, grid)
    psi, t = np.array([0.3, -0.1]), 0.999
    alpha, beta = ke._axis_exponents(psi, t)
    assert _gap_bound(alpha, beta, (alpha.max(axis=0), beta.max(axis=0))) > MAX_AXIS_GAP
    matrix = KernelEvaluator(far, grid)
    matrix.cells = on_matrix(matrix.cells, grid)
    ref = matrix._chunked(psi, t)
    cost = matrix.cells.cost
    expo = (psi[:, None] - t * cost) / (1.0 - t)
    peak = expo.max(axis=0)
    lse = peak + np.log(np.exp(expo - peak).sum(axis=0))
    value = -(1.0 - t) * float(np.sum(ke.cells.node_mass * lse))

    def refuse(*args, **kwargs):
        raise AssertionError("cost_matrix called")

    monkeypatch.setattr(laguerre, "cost_matrix", refuse)
    ev = ke.evaluate(psi, t)
    for got, want in zip((ev.grad, ev.hess, ev.dt_grad), (ref.grad, ref.hess, ref.dt_grad)):
        assert np.array_equal(got, want)
    assert ke.value(psi, t) == value
    assert ke.cells.cost is None
