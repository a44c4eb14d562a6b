import math
import warnings

import numpy as np
import pytest

from otpath import (
    ConfigError,
    CostSpec,
    Domain,
    NonFiniteValueError,
    TargetSet,
    build_grid,
    build_problem,
    density_eval,
    gaussian_bump_density,
    parabola_targets,
    sample_targets,
    uniform_density,
    unit_domain,
)
from otpath import model, quadrature
from otpath.model import cost_matrix, default_target_box, interval_mass


def test_domain_validation():
    with pytest.raises(ConfigError):
        Domain(lower=(0.0, 0.0), upper=(1.0,))
    with pytest.raises(ConfigError):
        Domain(lower=(1.0,), upper=(0.0,))
    with pytest.raises(ConfigError):
        Domain(lower=(0.0, 0.0, 0.0), upper=(1.0, 1.0, 1.0))
    dom = Domain(lower=(0.0, -1.0), upper=(2.0, 1.0))
    assert dom.volume == pytest.approx(4.0)
    assert np.allclose(dom.center, [1.0, 0.0])


def test_targets_must_be_distinct():
    with pytest.raises(ConfigError):
        TargetSet(points=np.array([[0.3], [0.3]]))
    ts = TargetSet(points=np.array([[0.3], [0.4]]))
    assert ts.n == 2 and ts.dim == 1


def test_anchor_gaps_for_p3():
    prob = build_problem(
        {"variant": "p3", "dim": 1, "targets": [[0.2], [0.8]], "anchor": [0.5]}
    )
    assert np.allclose(prob.anchor_costs, [0.09, 0.09], atol=1e-15)
    assert np.allclose(prob.offsets, prob.anchor_costs)


def test_sampled_targets_land_in_default_box():
    prob = build_problem({"variant": "p1", "dim": 1, "n_targets": 4, "seed": 7})
    pts = prob.targets.points
    assert pts.shape == (4, 1)
    assert pts.min() > 0.0 and pts.max() < 5.0
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 0.0


def test_missing_pieces_rejected():
    with pytest.raises(ConfigError):
        build_problem({"variant": "p4", "dim": 1, "n_targets": 2, "seed": 0})
    with pytest.raises(ConfigError):
        build_problem({"variant": "p3", "dim": 1, "n_targets": 2, "seed": 0})
    with pytest.raises(ConfigError):
        build_problem({"variant": "p1", "dim": 1, "targets": [[0.1], [0.1]]})
    with pytest.raises(ConfigError):
        build_problem({"variant": "p1", "dim": 1, "targets": [[0.1, 0.2]]})
    with pytest.raises(ConfigError):
        build_problem({"variant": "p1", "dim": 1, "n_targets": 2, "seed": 0, "cost_exponent": 4})
    with pytest.raises(ConfigError):
        build_problem({"variant": "p5", "dim": 1, "n_targets": 2, "seed": 0})
    with pytest.raises(ConfigError, match="needs explicit targets, a parabola layout, or n_targets"):
        build_problem({"variant": "p1", "dim": 1, "n_targets": 2})


@pytest.mark.parametrize(
    "extra, needle",
    [
        ({"cost_exp": 3}, "unknown problem keys: ['cost_exp']"),
        ({"domain": {"lower": [0.0], "upper": [2.0]}}, "unknown problem keys: ['domain']"),
        ({"target_box": {"lower": [0.0], "upper": [1.0]}}, "unknown problem keys: ['target_box']"),
        ({"variant": "P1"}, "variant among ('p1', 'p2', 'p3', 'p4')"),
    ],
    ids=["typo", "domain", "target-box", "variant-case"],
)
def test_build_problem_refuses_keys_it_does_not_read(extra, needle):
    # a misspelt or retired key would otherwise run a different problem
    # silently, and the variant is taken exactly as the CLI compares it
    with pytest.raises(ConfigError) as refused:
        build_problem({"variant": "p1", "dim": 1, "n_targets": 2, "seed": 0, **extra})
    assert needle in str(refused.value)


@pytest.mark.parametrize(
    "extra, needle",
    [
        ({"n_targets": 2.5, "seed": 0.9}, "n_targets must be an integer, got 2.5"),
        ({"seed": 0.9}, "seed must be an integer, got 0.9"),
        ({"n_targets": "3"}, "n_targets must be an integer, got '3'"),
        ({"dim": True}, "dim must be an integer, got True"),
        ({"variant": "p3", "anchor": [True]}, "anchor must be a list of real numbers, got [True]"),
    ],
    ids=["n-float", "seed-float", "n-text", "dim-bool", "anchor-bool"],
)
def test_build_problem_refuses_values_it_would_cast(extra, needle):
    # int() and float() would quietly build another problem: N = 2 and
    # seed 0, a 1-D box, the anchor 1.0
    with pytest.raises(ConfigError) as refused:
        build_problem({"variant": "p1", "dim": 1, "n_targets": 2, "seed": 0, **extra})
    assert str(refused.value) == needle


def test_anchor_and_rho_only_where_meaningful():
    with pytest.raises(ConfigError):
        build_problem(
            {"variant": "p1", "dim": 1, "targets": [[0.5]], "anchor": [0.5]}
        )
    with pytest.raises(ConfigError):
        build_problem(
            {"variant": "p2", "dim": 1, "targets": [[0.5]], "rho": {"kind": "uniform"}}
        )


def test_density_values_match_printed_constants(dom1, dom2):
    uni = uniform_density(dom1)
    assert density_eval(uni, np.array([0.3])) == 1.0
    bump1 = gaussian_bump_density(dom1)
    # Peak values agree with the rounded constants at their printed precision.
    assert density_eval(bump1, np.array([0.5])) == pytest.approx(1.8305, abs=5e-5)
    bump2 = gaussian_bump_density(dom2)
    assert density_eval(bump2, np.array([0.5, 0.5])) == pytest.approx(3.3508, abs=5e-5)


def test_catalog_densities_integrate_to_one(dom1, dom2, grid1):
    # 64 panels x order 8 per axis in both dimensions
    for dom, grid in ((dom1, grid1), (dom2, build_grid(dom2, 64, 8))):
        for spec in (uniform_density(dom), gaussian_bump_density(dom)):
            total = np.sum(grid.weights * density_eval(spec, grid.nodes))
            assert abs(total - 1.0) <= 1e-4
            assert abs(total - 1.0) <= 1e-6  # exact normalization does better


def test_printed_normalization_accepted_without_warning(dom1, recwarn):
    spec = gaussian_bump_density(dom1, normalization=1.8305)
    prob = build_problem(
        {
            "variant": "p1",
            "dim": 1,
            "targets": [[0.2], [0.6]],
            "density": {"kind": "gauss", "normalization": 1.8305},
        }
    )
    assert prob.mu.normalization == 1.8305
    assert not [w for w in recwarn.list if "integrates" in str(w.message)]
    assert density_eval(spec, np.array([0.5])) == 1.8305


def test_bad_normalization_warns():
    with pytest.warns(UserWarning, match="integrates"):
        build_problem(
            {
                "variant": "p1",
                "dim": 1,
                "targets": [[0.2], [0.6]],
                "density": {"kind": "gauss", "normalization": 1.5},
            }
        )


def test_density_checks_keep_their_order():
    # a steep bump underflows to zero at the domain ends: its mass warns
    # first, then it is refused as not strictly positive
    config = {
        "variant": "p1",
        "dim": 1,
        "targets": [[0.2], [0.6]],
        "density": {"kind": "gauss", "sharpness": 1e5, "normalization": 1.0},
    }
    with pytest.warns(UserWarning, match="integrates"):
        with pytest.raises(ConfigError, match="strictly positive"):
            build_problem(config)


def test_build_problem_validates_on_one_grid(monkeypatch):
    # mu and rho are checked in closed form on the box: no rule is built
    # and no density value is evaluated, and model does not load quadrature
    calls = {"density_eval": 0, "build_grid": 0, "axis_rule": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(model, "density_eval")
    counted(quadrature, "build_grid")
    counted(quadrature, "axis_rule")
    build_problem({"variant": "p4", "dim": 2, "n_targets": 6, "seed": 4, "rho": {"kind": "gauss"}})
    assert calls == {"density_eval": 0, "build_grid": 0, "axis_rule": 0}
    assert not hasattr(model, "quadrature")


def _grid_check(config):
    """The source-density check `build_problem` once made at every node of
    the default rule on the domain: (warned, error type or None)."""
    domain = unit_domain(config["dim"])
    try:
        spec = model._density_from_config(config["density"], domain, "density")
    except ConfigError:  # a value refused before any node is read
        return False, ConfigError
    grid = build_grid(domain, model.DEFAULT_PANELS[domain.dim], model.DEFAULT_ORDER[domain.dim])
    values = density_eval(spec, grid.nodes)
    if not np.all(np.isfinite(values)):
        return False, NonFiniteValueError
    total = np.sum(grid.weights * values)
    return abs(total - 1.0) > 1e-3, ConfigError if values.min() <= 0.0 else None


def _per_axis_check(config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            build_problem(config)
            error = None
        except ConfigError as exc:
            error = type(exc)
    return any("integrates" in str(w.message) for w in caught), error


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "density, outcome",
    [
        ({"kind": "uniform"}, (False, None)),
        ({"kind": "gauss"}, (False, None)),
        ({"kind": "gauss", "center": (0.1, 0.9), "sharpness": 30.0}, (False, None)),
        ({"kind": "gauss", "normalization": float("nan")}, (False, ConfigError)),
        ({"kind": "gauss", "normalization": float("inf")}, (False, ConfigError)),
        ({"kind": "gauss", "sharpness": float("nan")}, (False, ConfigError)),
        ({"kind": "gauss", "normalization": 1.5}, (True, None)),  # a wrong constant
        ({"kind": "gauss", "sharpness": 4e3}, (False, ConfigError)),  # underflows at the corners
        ({"kind": "gauss", "sharpness": 1e5, "normalization": 1.0}, (True, ConfigError)),
        # no mass on the box: refused before a normalization is formed
        ({"kind": "gauss", "center": (3.0, 3.0), "sharpness": 1e3}, (False, ConfigError)),
        ({"kind": "gauss", "center": (40.0, 40.0), "normalization": 1.0}, (True, ConfigError)),
    ],
    ids=["uniform", "gauss", "off-center", "nan-constant", "inf-constant", "nan-sharpness",
         "wrong-constant", "underflow", "steep-and-wrong", "far-off", "far-off-constant"],
)
def test_per_axis_density_check_agrees_with_the_grid_check(dim, density, outcome):
    # the closed-form mass on the box and the value at its corner farthest
    # from the center refuse and warn where every node of the default rule did
    if "center" in density:
        density = {**density, "center": density["center"][:dim]}
    config = {"variant": "p1", "dim": dim, "targets": [[0.2] * dim, [0.6] * dim], "density": density}
    assert _per_axis_check(config) == _grid_check(config) == outcome


def test_parabola_targets():
    two = parabola_targets(2).points
    assert np.allclose(two[0], [0.0, 0.0], atol=0)
    assert np.allclose(two[1], [1.0, np.e**-2], atol=1e-16)
    three = parabola_targets(3).points
    assert three[1] == pytest.approx([0.5, 0.25 * np.e**-2], abs=1e-16)
    twelve = parabola_targets(12).points
    assert np.allclose(twelve[:, 0], np.linspace(0, 1, 12), atol=0)
    # exactly on the curve, bit for bit
    assert np.array_equal(twelve[:, 1], (twelve[:, 0] / np.e) ** 2)
    with pytest.raises(ConfigError):
        parabola_targets(1)


def test_sampling_is_reproducible_and_splittable():
    box = Domain(lower=(0.0,), upper=(5.0,))
    a = sample_targets(4, 1, box, seed=3).points
    b = sample_targets(4, 1, box, seed=3).points
    assert np.array_equal(a, b)
    c = sample_targets(5, 1, box, seed=3).points
    assert c.shape == (5, 1)
    d = sample_targets(4, 1, box, seed=4).points
    assert not np.array_equal(a, d)


def test_default_target_boxes(dom1, dom2):
    box1 = default_target_box("p1", dom1)
    assert box1.lower == (0.0,) and box1.upper == (5.0,)
    box2 = default_target_box("p2", dom2)
    assert box2.upper == (1.5, 1.5)
    assert default_target_box("p3", dom1) is dom1
    assert default_target_box("p4", dom2) is dom2


def test_interval_mass_matches_quadrature(dom1, grid1):
    bump = gaussian_bump_density(dom1)
    direct = interval_mass(bump, 0.2, 0.7)
    # quadrature of the jump indicator carries O(panel width) error
    x = grid1.nodes
    masked = np.sum(grid1.weights * density_eval(bump, x) * ((x[:, 0] >= 0.2) & (x[:, 0] < 0.7)))
    assert direct == pytest.approx(masked, abs=1e-3)
    assert interval_mass(bump, 0.7, 0.2) == 0.0
    # elementwise over arrays of ends, zero on empty and reversed intervals
    masses = interval_mass(bump, np.array([0.2, 0.7, 0.3]), np.array([0.7, 0.2, 0.3]))
    assert masses.tolist() == [direct, 0.0, 0.0]
    uni = uniform_density(dom1)
    assert interval_mass(uni, 0.25, 0.75) == pytest.approx(0.5, abs=1e-15)


def _gauss_reference(lo, hi, center, sharpness):
    """Integral of exp(-sharpness (x - center)^2) over [lo, hi] by a 16-point
    Gauss-Legendre rule on 256 panels (at most 3/256 wide, under 1/sqrt(4e3))."""
    x, w = quadrature.axis_rule(lo, hi, 256, 16)
    return math.fsum((w * np.exp(-sharpness * (x - center) ** 2)).tolist())


# (center, sharpness) on [0, 1]: centers inside, and outside by under one
# 1/sqrt(sharpness), so that the box keeps a fair share of the bump's mass;
# then centers far outside, where the box and each interval hold a sliver of
# it and a difference of two erf values near the same +-1 would cancel
ERF_CASES = [
    (c, s)
    for s in (0.1, 1.0, 10.0, 300.0, 4e3)
    for c in (0.5, 0.37, 1.0 + 0.7 / math.sqrt(s), -0.4 / math.sqrt(s))
] + [(-1.0, 10.0), (2.0, 10.0), (-0.3, 100.0)]


@pytest.mark.parametrize("center, sharpness", ERF_CASES)
def test_gauss_closed_forms_match_high_order_quadrature(center, sharpness):
    bump = gaussian_bump_density(unit_domain(1), center=(center,), sharpness=sharpness)
    axis = _gauss_reference(0.0, 1.0, center, sharpness)
    assert bump.normalization * axis == pytest.approx(1.0, rel=1e-14)
    # a 2-D box, the second axis centred elsewhere: the product of two axis integrals
    box = Domain(lower=(0.0, -1.0), upper=(1.0, 2.0))
    plane = gaussian_bump_density(box, center=(center, 0.2), sharpness=sharpness)
    total = axis * _gauss_reference(-1.0, 2.0, 0.2, sharpness)
    assert plane.normalization * total == pytest.approx(1.0, rel=1e-14)
    # interval masses between the box ends, its midpoint, and the points 1 and
    # 0.5 widths 1/sqrt(sharpness) below and above the center that lie inside
    # the box
    width = 1.0 / math.sqrt(sharpness)
    cuts = {x for x in (0.5, center - width, center + 0.5 * width) if 0.0 < x < 1.0}
    ends = np.array([0.0] + sorted(cuts) + [1.0])
    masses = interval_mass(bump, ends[:-1], ends[1:])
    for k, (a, b) in enumerate(zip(ends[:-1].tolist(), ends[1:].tolist())):
        reference = bump.normalization * _gauss_reference(a, b, center, sharpness)
        assert masses[k] == pytest.approx(reference, rel=1e-14)
        assert interval_mass(bump, a, b) == masses[k]  # a scalar pair gives the array's value


def test_cost_spec_restricted():
    assert CostSpec().exponent == 2.0
    assert CostSpec(exponent=3).exponent == 3.0
    with pytest.raises(ConfigError):
        CostSpec(exponent=2.5)


def test_unit_domain_shapes():
    assert unit_domain(1).dim == 1
    assert unit_domain(2).volume == pytest.approx(1.0)


@pytest.mark.parametrize("exponent", [2.0, 3.0])
@pytest.mark.parametrize("dim, panels", [(1, 64), (2, 12), (2, 24), (2, 48)])
def test_tensor_cost_matrix_equals_the_per_node_sum(dim, panels, exponent):
    # summed from the per-axis tables, or one axis at a time over the nodes:
    # the same two squares are added, so the bits agree
    grid = build_grid(unit_domain(dim), panels, 6)
    points = sample_targets(7, dim, default_target_box("p1", unit_domain(dim)), 5).points
    tensor = cost_matrix(points, grid.nodes, exponent, grid.axes)
    assert tensor.shape == (7, grid.n_nodes)
    assert np.array_equal(tensor, cost_matrix(points, grid.nodes, exponent))
