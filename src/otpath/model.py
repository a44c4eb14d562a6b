"""Problem descriptions: domain, cost, targets, densities, and sampling.

A problem instance is one of four catalog variants of the same template,
"transport a continuous source onto N free atoms plus a penalty on the atom
masses":

  p1  entropy penalty, not scaled with the homotopy parameter
  p2  entropy penalty, scaled with the homotopy parameter
  p3  entropy penalty plus a linear term from squared distances to an anchor
  p4  squared-Wasserstein penalty against a second fixed density

Everything here is immutable after construction and safe to share across
threads.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

VARIANTS = ("p1", "p2", "p3", "p4")

DENSITY_UNIFORM = "uniform"
DENSITY_GAUSS = "gauss"

# Quadrature resolution used everywhere unless overridden.
DEFAULT_PANELS = {1: 64, 2: 48}
DEFAULT_ORDER = {1: 8, 2: 6}


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box in R^1 or R^2."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise ConfigError("domain lower/upper must have the same length")
        if len(lower) not in (1, 2):
            raise ConfigError(f"domain must be 1-D or 2-D, got dim={len(lower)}")
        if any(lo >= hi for lo, hi in zip(lower, upper)):
            raise ConfigError("domain must satisfy lower[k] < upper[k] on every axis")

    @property
    def dim(self):
        return len(self.lower)

    @property
    def volume(self):
        return float(np.prod([hi - lo for lo, hi in zip(self.lower, self.upper)]))

    @property
    def center(self):
        return np.array([0.5 * (lo + hi) for lo, hi in zip(self.lower, self.upper)])


def unit_domain(dim):
    return Domain(lower=(0.0,) * dim, upper=(1.0,) * dim)


@dataclass(frozen=True)
class TargetSet:
    """N pairwise-distinct target points; rows of `points` are the atoms."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ConfigError("targets must be a non-empty (N, dim) array")
        if pts.shape[1] not in (1, 2):
            raise ConfigError(f"targets must live in R^1 or R^2, got dim={pts.shape[1]}")
        if pts.shape[0] > 1:
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff**2).sum(-1))
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= 0.0:
                raise ConfigError("target points must be pairwise distinct")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class DensitySpec:
    """Probability density on the domain, stored with its normalization.

    kind "uniform": constant 1/volume.  kind "gauss": a Gaussian bump
    normalization * exp(-sharpness * ||x - center||^2) restricted to the box.
    """

    kind: str
    normalization: float
    center: tuple = ()
    sharpness: float = 10.0

    def __post_init__(self):
        if self.kind not in (DENSITY_UNIFORM, DENSITY_GAUSS):
            raise ConfigError(f"unknown density kind {self.kind!r}")
        if self.normalization <= 0.0:
            raise ConfigError("density normalization must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.kind == DENSITY_GAUSS:
            if not self.center:
                raise ConfigError("gauss density requires a center")
            if self.sharpness <= 0.0:
                raise ConfigError("gauss density requires positive sharpness")


def uniform_density(domain):
    return DensitySpec(kind=DENSITY_UNIFORM, normalization=1.0 / domain.volume)


def _erf_gap(a, b):
    """erf(b) - erf(a) of two floats.  Where both lie on one side of 0 the
    erf values are near the same +-1 and their difference cancels, so it is
    taken between the erfc values of the side away from 0."""
    if a >= 0.0 and b >= 0.0:
        return math.erfc(a) - math.erfc(b)
    if a <= 0.0 and b <= 0.0:
        return math.erfc(-b) - math.erfc(-a)
    return math.erf(b) - math.erf(a)


def _gauss_axis_integral(lo, hi, c, s):
    """Integral of exp(-s (x - c)^2) over [lo, hi], of floats or elementwise
    of float arrays.  A scaled end that overflows is +-inf, where erf takes
    its limit; a sharpness below about 1.75e-308 makes the integral inf."""
    half = 0.5 * np.sqrt(np.pi / s)
    with np.errstate(over="ignore"):
        a, b = np.sqrt(s) * (lo - c), np.sqrt(s) * (hi - c)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return half * _erf_gap(a, b)
    a, b = np.broadcast_arrays(a, b)
    gaps = [_erf_gap(u, v) for u, v in zip(a.ravel().tolist(), b.ravel().tolist())]
    return half * np.array(gaps).reshape(a.shape)


def gaussian_bump_density(domain, center=None, sharpness=10.0, normalization=None):
    """Gaussian bump on `domain`, exactly normalized unless a constant is given.

    With normalization=None the constant is computed in closed form (product
    of per-axis error-function integrals), so the density integrates to 1 to
    machine precision; a bump whose integral on the box underflows, or whose
    reciprocal overflows, is refused, and so, whatever the constant, is a
    sharpness so small that an axis integral overflows.  An explicit
    constant (e.g. a rounded literature value) is stored verbatim;
    `build_problem` re-checks its integral and warns if it is off by more
    than 1e-3.
    """
    if center is None:
        center = tuple(domain.center)
    center = tuple(float(c) for c in center)
    if len(center) != domain.dim:
        raise ConfigError("density center dimension does not match the domain")
    total = 1.0
    for lo, hi, c in zip(domain.lower, domain.upper, center):
        integral = _gauss_axis_integral(lo, hi, c, sharpness)
        if not math.isfinite(integral):
            raise ConfigError(
                f"gauss density sharpness {sharpness:g} is too small: its integral over the domain overflows"
            )
        total *= integral
    if normalization is None:
        if not (total > 0.0 and math.isfinite(1.0 / float(total))):
            raise ConfigError(
                f"gauss density at {center} with sharpness {sharpness:g} has no mass on the domain"
            )
        normalization = 1.0 / total
    return DensitySpec(
        kind=DENSITY_GAUSS,
        normalization=float(normalization),
        center=center,
        sharpness=float(sharpness),
    )


def density_eval(spec, x):
    """Density value at x; accepts a single point (dim,) or a batch (M, dim)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if spec.kind == DENSITY_UNIFORM:
        values = np.full(pts.shape[0], spec.normalization)
    else:
        center = np.asarray(spec.center)
        sq = ((pts - center[None, :]) ** 2).sum(axis=1)
        values = spec.normalization * np.exp(-spec.sharpness * sq)
    return float(values[0]) if single else values


def interval_mass(spec, a, b):
    """Closed-form mass of a 1-D density on [a, b], elementwise over arrays
    of interval ends; zero where b <= a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if spec.kind == DENSITY_UNIFORM:
        mass = spec.normalization * (b - a)
    else:
        mass = spec.normalization * _gauss_axis_integral(a, b, spec.center[0], spec.sharpness)
    return np.where(b > a, mass, 0.0)


@dataclass(frozen=True)
class CostSpec:
    """Transport cost ||x - y||_2^exponent with exponent in {2, 3}."""

    exponent: float = 2.0

    def __post_init__(self):
        if self.exponent not in (2.0, 3.0):
            raise ConfigError(f"cost exponent must be 2 or 3, got {self.exponent}")


def axis_sq_dists(targets, axes):
    """Per-axis squared distances: for each axis d, the (N, n_d) table
    (y_jd - x_d)^2 over the N target rows and that axis's node coordinates."""
    tables = []
    for d, x in enumerate(axes):
        diff = np.subtract.outer(targets[:, d], x)
        tables.append(np.multiply(diff, diff, out=diff))
    return tables


def cost_matrix(targets, nodes, exponent, axes=None):
    """Target-major (N, M) matrix of ||y_j - x_i||^p for N target rows and
    M node rows, the layout every caller reduces over.

    With `axes`, the per-axis coordinates of a tensor grid (`nodes` is then
    their product, first axis slowest, as `QuadratureGrid.axes`), the
    squared distance is summed from the per-axis tables in one broadcast
    add.  Without, it is summed one axis at a time over the node rows.  Both
    add the same two squares, so they agree bit for bit, and neither holds
    an (N, M, dim) temporary.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if axes is not None:
        tables = axis_sq_dists(targets, axes)
        sq = tables[0] if len(tables) == 1 else np.add(tables[0][:, :, None], tables[1][:, None, :])
        sq = sq.reshape(targets.shape[0], -1)
    else:
        nodes = np.asarray(nodes, dtype=float)
        sq = np.zeros((targets.shape[0], nodes.shape[0]))
        for axis in range(targets.shape[1]):
            diff = np.subtract.outer(targets[:, axis], nodes[:, axis])
            sq += np.multiply(diff, diff, out=diff)
    if exponent == 2.0:
        return sq
    return np.power(sq, exponent / 2.0, out=sq)


@dataclass(frozen=True)
class ProblemSpec:
    """One fully validated problem instance.

    For p3 the anchor contributes per-target offsets ||y_j - anchor||^2 that
    shift the transport exponent; `offsets` is that vector (zero for the other
    variants).  For p4 `rho` is the second density of the Wasserstein penalty;
    its inner transport is always quadratic regardless of `cost`.
    """

    variant: str
    domain: Domain
    targets: TargetSet
    mu: DensitySpec
    cost: CostSpec = field(default_factory=CostSpec)
    anchor: tuple = ()
    rho: DensitySpec = None
    anchor_costs: np.ndarray = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.targets.dim != self.domain.dim:
            raise ConfigError("target dimension does not match the domain")
        object.__setattr__(self, "anchor", tuple(float(a) for a in self.anchor))
        if self.variant == "p3":
            if not self.anchor:
                raise ConfigError("variant p3 requires an anchor point")
            if len(self.anchor) != self.domain.dim:
                raise ConfigError("anchor dimension does not match the domain")
            gaps = ((self.targets.points - np.asarray(self.anchor)) ** 2).sum(axis=1)
            object.__setattr__(self, "anchor_costs", gaps)
            gaps.setflags(write=False)
        elif self.anchor:
            raise ConfigError("anchor is only meaningful for variant p3")
        if self.variant == "p4":
            if self.rho is None:
                raise ConfigError("variant p4 requires the density rho")
        elif self.rho is not None:
            raise ConfigError("rho is only meaningful for variant p4")

    @property
    def n(self):
        return self.targets.n

    @property
    def dim(self):
        return self.domain.dim

    @property
    def offsets(self):
        if self.anchor_costs is not None:
            return self.anchor_costs
        return np.zeros(self.n)

    @property
    def scales_penalty(self):
        """True when the penalty term rides the homotopy parameter (p2, p4)."""
        return self.variant in ("p2", "p4")


def default_target_box(variant, domain):
    """Sampling box for random targets: (0,5) / [0,1.5]^2 for p1 and p2,
    the source domain itself for p3 and p4."""
    if variant in ("p1", "p2"):
        if domain.dim == 1:
            return Domain(lower=(0.0,), upper=(5.0,))
        return Domain(lower=(0.0, 0.0), upper=(1.5, 1.5))
    return domain


def sample_targets(n, dim, box, seed):
    """Draw n pairwise-distinct uniform points in `box`, reproducibly.

    The generator is keyed by (seed, n, dim) through a SeedSequence, so every
    (N, dim) cell of a sweep gets its own stream and reruns are identical.
    """
    if n < 1:
        raise ConfigError("need at least one target")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(n), int(dim)]))
    lower = np.asarray(box.lower)
    upper = np.asarray(box.upper)
    scale = float(np.max(upper - lower))
    for _ in range(100):
        pts = rng.uniform(lower, upper, size=(n, dim))
        if n == 1:
            return TargetSet(points=pts)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() > 1e-9 * scale:
            return TargetSet(points=pts)
    raise ConfigError("could not sample distinct targets")  # pragma: no cover


def parabola_targets(n):
    """n points on the scaled parabola s -> (s, (s/e)^2), s equispaced in [0,1]."""
    if n < 2:
        raise ConfigError("parabola layout needs n >= 2")
    s = np.linspace(0.0, 1.0, n)
    return TargetSet(points=np.column_stack([s, (s / np.e) ** 2]))


def _density_from_config(cfg, domain, key):
    """The density of the mapping `cfg`, the config's `key`: `kind` alone
    ("uniform", the default), or "gauss" with optional `center` (a point of
    finite coordinates) and positive finite `sharpness` and `normalization`.
    Any other key, and a value that is not a real number (a bool is none),
    are refused."""
    kind = cfg.get("kind", DENSITY_UNIFORM)
    if kind not in (DENSITY_UNIFORM, DENSITY_GAUSS):
        raise ConfigError(f"unknown density kind {kind!r}")
    keys = {"kind"} if kind == DENSITY_UNIFORM else {"kind", "center", "sharpness", "normalization"}
    unknown = set(cfg) - keys
    if unknown:
        raise ConfigError(f"unknown {key} keys for kind {kind!r}: {sorted(unknown)}")
    if kind == DENSITY_UNIFORM:
        return uniform_density(domain)

    def real(value):
        return _typed(value, (int, float)) and math.isfinite(value)

    if "center" in cfg:
        center = np.atleast_1d(np.asarray(cfg["center"], dtype=object))  # ragged lists too
        if not all(map(real, center.tolist())):
            raise ConfigError(f"{key} center must be a list of finite real numbers, got {cfg['center']!r}")
    for name in ("sharpness", "normalization"):
        if name in cfg and not (real(cfg[name]) and cfg[name] > 0):
            raise ConfigError(f"{key} {name} must be a positive finite real number, got {cfg[name]!r}")
    return gaussian_bump_density(
        domain,
        center=cfg.get("center"),
        sharpness=cfg.get("sharpness", 10.0),
        normalization=cfg.get("normalization"),
    )


def _validate_density(spec, domain, label):
    """Check `spec` on the box `domain` in closed form.

    Both density kinds are the normalization times a product of per-axis
    factors (1, or exp(-sharpness * (x_d - c_d)^2)), so the mass on the box
    is the normalization times the box volume or the product of the per-axis
    error-function integrals, and the density is least at the corner
    farthest from the center.  The mass must be 1 within 1e-3 (a warning
    otherwise); the least value must be strictly positive.
    """
    if spec.kind == DENSITY_GAUSS:
        mass, far = spec.normalization, 0.0
        for lo, hi, c in zip(domain.lower, domain.upper, spec.center):
            mass *= _gauss_axis_integral(lo, hi, c, spec.sharpness)
            gap = max(c - lo, hi - c)
            far += gap * gap  # a float product overflows to inf, a power raises
        least = spec.normalization * math.exp(-spec.sharpness * far)
    else:
        mass, least = spec.normalization * domain.volume, spec.normalization
    if abs(mass - 1.0) > 1e-3:
        warnings.warn(
            f"{label} density integrates to {mass:.6f}, not 1; "
            "check the normalization constant",
            stacklevel=3,
        )
    if least <= 0.0:
        raise ConfigError(f"{label} density must be strictly positive on the domain")


def _typed(value, kinds):
    """Whether `value` is of `kinds`; a bool counts only where bool is asked
    for (JSON true is not the number 1)."""
    return isinstance(value, kinds) and (kinds is bool or not isinstance(value, bool))


def build_problem(config):
    """Build a validated ProblemSpec from a plain configuration mapping.

    Keys: `variant` (one of VARIANTS, exactly), `dim` (1 or 2, default 1;
    the domain is the unit box), `density`, `cost_exponent`, and one target
    source among `targets` (explicit list), `parabola` (bool, with
    n_targets), or `n_targets` + `seed` (random sampling in the variant's
    `default_target_box`).  p3 additionally takes `anchor`, p4 takes `rho`.
    Any other key is refused, and so is a `dim`, `n_targets` or `seed` that
    is not an integer, or an `anchor` coordinate that is not a real number
    (a bool is neither: JSON true is not 1).
    """
    unknown = set(config) - {
        "variant", "dim", "density", "cost_exponent", "targets", "parabola",
        "n_targets", "seed", "anchor", "rho",
    }
    if unknown:
        raise ConfigError(f"unknown problem keys: {sorted(unknown)}")
    for key in ("dim", "n_targets", "seed"):
        if key in config and not _typed(config[key], (int, np.integer)):
            raise ConfigError(f"{key} must be an integer, got {config[key]!r}")
    variant = config.get("variant")
    if variant not in VARIANTS:
        raise ConfigError(f"config must name a variant among {VARIANTS}")
    domain = unit_domain(int(config.get("dim", 1)))

    if config.get("targets") is not None:
        targets = TargetSet(points=np.asarray(config["targets"], dtype=float))
    elif config.get("parabola"):
        if domain.dim != 2:
            raise ConfigError("the parabola layout is two-dimensional")
        targets = parabola_targets(int(config["n_targets"]))
    else:
        if "n_targets" not in config or "seed" not in config:
            raise ConfigError(
                "config needs explicit targets, a parabola layout, or n_targets + seed"
            )
        box = default_target_box(variant, domain)
        targets = sample_targets(
            int(config["n_targets"]), domain.dim, box, int(config["seed"])
        )

    mu = _density_from_config(config.get("density", {}), domain, "density")
    _validate_density(mu, domain, "source")

    cost = CostSpec(exponent=float(config.get("cost_exponent", 2)))

    anchor = ()
    if config.get("anchor") is not None:
        anchor = np.atleast_1d(config["anchor"]).tolist()
        if not all(_typed(a, (int, float)) for a in anchor):
            raise ConfigError(f"anchor must be a list of real numbers, got {config['anchor']!r}")
    rho = None
    if config.get("rho") is not None:
        rho = _density_from_config(config["rho"], domain, "rho")
        _validate_density(rho, domain, "rho")

    return ProblemSpec(
        variant=variant,
        domain=domain,
        targets=targets,
        mu=mu,
        cost=cost,
        anchor=anchor,
        rho=rho,
    )
