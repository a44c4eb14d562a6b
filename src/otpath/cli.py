"""Experiment runner: single runs, (dt x N) sweeps, and the verification gate.

`otpath run` integrates the homotopy for every (dt, N) cell of a sweep and
writes, per cell, a trajectory CSV (`t,psi_1,...,psi_N`), a JSON report, and
optional cell-field snapshots, plus one summary CSV laid out like the
error/runtime tables (rows dt, columns N, cells "error (runtime)"; failed
cells read NAN).  `otpath verify` executes the acceptance criteria and prints
one pass/fail line each, ending in the criterion's wall time as " (<s> s)".

Exit codes: 0 success, 1 configuration error (any invalid input, including a
bare ValueError raised on it and anything the argument parser refuses),
2 solver failure, 3 verification failure.  Each failure prints one line to
stderr.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolverError
from .homotopy import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    _check_stage_times,
    integrate_homotopy,
    lattice_steps,
    rk3_tableau,
    snapshot_steps,
)
from .model import DEFAULT_ORDER, DEFAULT_PANELS, _typed, build_problem, unit_domain
from .newton import fixed_t_oracle, newton_1d
from .quadrature import build_grid

SURROGATE_T = 1.0 - 1e-4  # fixed-t stand-in where newton_1d refuses the problem
SNAPSHOT_ROWS = 1024  # CSV rows per block; bounds the writers' temporaries
# (field, accepted types, what a refusal asks for) of every field the config
# reads itself, checked first, so that an ill-typed value is refused by its
# key; the list fields then check each element the same way.  A bool is
# refused wherever a number is asked for (JSON true is not 1).  `seed` only
# passes through: `build_problem` checks it in the same words.
_REAL = (int, float)
_NONE = type(None)
_FIELD_TYPES = (
    ("variant", str, "a string"),
    ("dim", int, "an integer"),
    ("n_list", (list, tuple), "a list"),
    ("dt_list", (list, tuple), "a list"),
    ("density", dict, "a mapping"),
    ("cost_exponent", _REAL, "a real number"),
    ("anchor", (list, tuple, _NONE), "a list"),
    ("rho", (dict, _NONE), "a mapping"),
    ("parabola", bool, "true or false"),
    ("alpha", _REAL, "a real number"),
    ("beta", _REAL, "a real number"),
    ("quad_panels", (int, _NONE), "a positive integer"),
    ("quad_order", (int, _NONE), "a positive integer"),
    ("snapshot_times", (list, tuple), "a list"),
    ("run_newton", bool, "true or false"),
    ("out_dir", str, "a string"),
)
_ELEMENT_TYPES = (
    ("n_list", int, "integers"),
    ("dt_list", _REAL, "real numbers"),
    ("anchor", _REAL, "real numbers"),
    ("snapshot_times", _REAL, "real numbers"),
)


@dataclass
class ExperimentConfig:
    variant: str = "p1"
    dim: int = 1
    n_list: tuple = (2, 4)
    dt_list: tuple = (1e-1, 1e-2)
    seed: int = 0
    density: dict = field(default_factory=lambda: {"kind": "uniform"})
    cost_exponent: float = 2.0
    anchor: tuple = None
    rho: dict = None
    parabola: bool = False
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    quad_panels: int = None
    quad_order: int = None
    snapshot_times: tuple = ()
    run_newton: bool = False
    out_dir: str = "results"

    def __post_init__(self):
        for name, kinds, what in _FIELD_TYPES:
            value = getattr(self, name)
            if not _typed(value, kinds):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        for name, kinds, what in _ELEMENT_TYPES:
            value = getattr(self, name)
            if value is not None and not all(_typed(v, kinds) for v in value):
                raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
        self.n_list = tuple(self.n_list)
        self.dt_list = tuple(float(dt) for dt in self.dt_list)
        self.snapshot_times = tuple(float(t) for t in self.snapshot_times)
        if not self.n_list or not self.dt_list:
            raise ConfigError("n_list and dt_list must each name at least one value")
        for name in ("n_list", "dt_list"):  # a repeat would solve again into the same files
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {list(values)}")
        if self.dim not in DEFAULT_PANELS:
            raise ConfigError(f"dim must be one of {sorted(DEFAULT_PANELS)}, got {self.dim}")
        for name in ("quad_panels", "quad_order"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        # the integrator's tableau, stage-time and lattice checks, run up front
        _check_stage_times(rk3_tableau(self.alpha, self.beta))
        named = {}  # two dt values on one lattice, or printed alike, share their files
        for dt in self.dt_list:
            steps = lattice_steps(dt)
            snapshot_steps(self.snapshot_times, steps)
            for key, what in ((steps, "step lattice"), (f"{dt:g}", "file stem")):
                if key in named:
                    raise ConfigError(f"dt_list values {named[key]!r} and {dt!r} name one {what}")
                named[key] = dt
        # defaults the problem layer refuses to guess
        if self.variant == "p3" and self.anchor is None:
            self.anchor = tuple(unit_domain(self.dim).center)
        if self.variant == "p4" and self.rho is None:
            self.rho = {"kind": "gauss"}

    def problem_config(self, n):
        cfg = {
            "variant": self.variant,
            "dim": self.dim,
            "n_targets": n,
            "seed": self.seed,
            "density": dict(self.density),
            "cost_exponent": self.cost_exponent,
        }
        if self.parabola:
            cfg["parabola"] = True
        if self.anchor is not None:
            cfg["anchor"] = list(self.anchor)
        if self.rho is not None:
            cfg["rho"] = dict(self.rho)
        return cfg

    def grid(self):
        panels = DEFAULT_PANELS[self.dim] if self.quad_panels is None else self.quad_panels
        order = DEFAULT_ORDER[self.dim] if self.quad_order is None else self.quad_order
        return build_grid(unit_domain(self.dim), panels, order)


def write_trajectory_csv(path, trajectory):
    """One row `t,psi_1,...,psi_N` per state, every value as '%.17g'."""
    n = trajectory.states[0].psi.size
    rows = np.column_stack([trajectory.times, trajectory.psi_matrix])
    with open(path, "wb") as out:
        out.write(("t," + ",".join(f"psi_{j + 1}" for j in range(n)) + "\n").encode())
        for start in range(0, len(rows), SNAPSHOT_ROWS):
            out.write(_g17_rows(rows[start : start + SNAPSHOT_ROWS]).tobytes().translate(None, b"\0"))


# '%.17g' prints |x| in [1e-4, 1e14) in fixed notation from its 17
# correctly rounded significant digits q = round-half-even(x * 10**s), with
# s = 16 - floor(log10 |x|).  Writing x = m * 2**k (m a 53-bit integer),
# q = m * 5**s * 2**(k + s): the 128-bit product m * 5**s is formed exactly
# in 32-bit limbs held in uint64, and in that range the right shift -(k + s)
# is between 1 and 63 and q < 2**60.  An estimate of s off by one shows as
# q outside [10**16, 10**17) and is corrected once; rounding up to 10**17
# lands there too, and the retry then yields 10**16 one decade up, as '%g'
# does.  Every other value (zeros, subnormals, exponent notation, inf, nan)
# is formatted by '%.17g' itself.
#
# Each value gets a NUL-padded slot of G17_SLOT bytes; deleting the NULs
# leaves its text.  Bytes 0-5 hold the sign and, below 1, "0." with the
# leading zeros of the fraction.  Bytes 8-27 are five uint32 words from
# digit tables: the first digit (in byte 11), then four 4-digit groups with
# the trailing zeros of the fraction as NULs.  At 1 and above, the fraction
# digits move one byte on (at most into byte 28) for the decimal point.  The
# last byte is left free for the writer's separator.
G17_SLOT = 32
_POW5 = np.array([5**s for s in range(24)], dtype=np.uint64)
_LEAD = np.array([b"\0\0\0%d" % d for d in range(10)], dtype="S4").view(np.uint32)
# by min(-exponent, 4) for a negative decimal exponent, else 0, plus 5 for a
# negative value: the sign and "0." with the leading zeros of the fraction
_PREFIX = np.array(
    [sign + lead for sign in (b"", b"-") for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")],
    dtype="S8",
).view(np.uint64)
_U32 = np.uint64(0xFFFFFFFF)
_ONE, _N32, _N64 = np.uint64(1), np.uint64(32), np.uint64(64)
_E8, _E4 = np.uint64(10**8), np.uint32(10**4)
_N52, _MANT, _HIDDEN = np.uint64(52), np.uint64(2**52 - 1), np.uint64(2**52)


@functools.cache
def _group_words():
    """uint32 words whose bytes spell "%04d" % g at g, and the same with the
    trailing zeros as NULs (all four for g = 0) at 10000 + g.  Built on first
    use, so a run that writes no snapshot never holds it; the small dtypes
    keep the heap that the temporaries leave behind small."""
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(10000, dtype=np.int16)[:, None] // place % 10).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]  # a nonzero follows
    text = digits + np.uint8(ord("0"))
    words = np.concatenate([text, text * kept]).view(np.uint32).ravel()
    words.setflags(write=False)
    return words


def _scaled_digits(m, k, s):
    """round-half-even(m * 5**s * 2**(k + s)) for 53-bit m, when the shift
    -(k + s) is between 1 and 63 and the result fits in 64 bits.  The limb
    products and shifts are formed in place in five uint64 buffers."""
    f0 = _POW5[s]
    f1 = f0 >> _N32
    f0 &= _U32
    mid = m >> _N32  # m1
    hi = mid * f1
    mid *= f0
    low = m & _U32  # m0
    f1 *= low
    mid += f1  # m1 * f0 + m0 * f1 < 2**54
    low *= f0
    lo = np.left_shift(mid, _N32, out=f0)
    lo += low  # the low 64 bits, wrapping
    hi += np.right_shift(mid, _N32, out=mid)
    hi += lo < low
    shift = np.add(k, s, out=low.view(np.int64))
    shift = np.negative(shift, out=shift).view(np.uint64)
    q = np.left_shift(hi, np.subtract(_N64, shift, out=f1), out=f1)
    q |= np.right_shift(lo, shift, out=mid)
    rest = np.left_shift(_ONE, shift, out=hi)
    rest -= _ONE
    rest &= lo
    half = np.left_shift(_ONE, np.subtract(shift, _ONE, out=shift), out=shift)
    up = rest == half
    np.logical_and(up, np.bitwise_and(q, _ONE, out=lo), out=up)  # a tie, q odd
    up |= rest > half
    q += up
    return q


def _g17_slots(values):
    """'%.17g' % v of every float in `values`, as (values.size, G17_SLOT)
    NUL-padded uint8 slots (see G17_SLOT).  The arithmetic runs in place:
    beside the slots and a copy of the values, a call holds about eight
    bytes per value in each of at most six buffers."""
    flat = np.ravel(values).astype(float, copy=False)
    slots = np.empty((flat.size, G17_SLOT), np.uint8)
    a = np.abs(flat)
    fixed = a >= 1e-4
    fixed &= a < 1e14
    other = None if fixed.all() else np.flatnonzero(~fixed)
    if other is not None:
        a[other] = 0.5  # a stand-in below 1; '%.17g' writes these slots last
    bits = a.view(np.uint64)
    m = bits & _MANT  # a = m * 2**k, m a 53-bit integer
    m |= _HIDDEN
    k = np.right_shift(bits, _N52).view(np.int64)
    k -= 1075
    s = np.floor(np.log10(a, out=a), out=a).astype(np.int64)
    del a, bits
    s = np.subtract(16, s, out=s)
    q = _scaled_digits(m, k, s)
    under, over = np.flatnonzero(q < 10**16), np.flatnonzero(q >= 10**17)
    if under.size or over.size:
        s[under] += 1
        s[over] -= 1
        redo = np.concatenate([under, over])
        q[redo] = _scaled_digits(m[redo], k[redo], s[redo])
    x = np.subtract(16, s, out=s)  # decimal exponent of the rounded value, -4 to 13
    big = np.flatnonzero(x >= 0)
    exps = x[big]
    # q = d0 * 10**16 + g1 * 10**12 + g2 * 10**8 + g3 * 10**4 + g4; group j
    # loses its trailing zeros when every later group is zero
    top, low = np.divmod(q, _E8, out=(m, k.view(np.uint64)))
    d0, mid = np.divmod(top, _E8, out=(top, q))
    g1, g2 = np.divmod(mid.astype(np.uint32), _E4)
    g3, g4 = np.divmod(low.astype(np.uint32), _E4)
    tail = low == 0
    words, groups = slots.view(np.uint32), _group_words()
    lead = np.clip(np.negative(x, out=x), 0, 4, out=x)
    np.add(lead, 5, out=lead, where=np.signbit(flat))
    np.take(_PREFIX, lead, out=slots.view(np.uint64)[:, 0], mode="clip")
    np.take(_LEAD, d0, out=words[:, 2], mode="clip")
    np.add(g1, 10000, out=g1, where=tail & (g2 == 0))
    np.add(g2, 10000, out=g2, where=tail)
    np.add(g3, 10000, out=g3, where=g4 == 0)
    g4 += 10000
    for col, g in zip((3, 4, 5, 6), (g1, g2, g3, g4)):
        np.take(groups, g, out=words[:, col], mode="clip")
    words[:, 7] = 0
    # at 1 and above: integer digits are kept, a fraction follows a point
    for e in np.unique(exps):
        rows = big[exps == e]
        text = slots[rows]
        np.maximum(text[:, 11 : 12 + e], ord("0"), out=text[:, 11 : 12 + e])
        frac = text[:, 12 + e : 28].any(axis=1)
        text[frac, 13 + e : 29] = text[frac, 12 + e : 28]
        text[frac, 12 + e] = ord(".")
        slots[rows] = text
    if other is not None:
        strings = [b"%.17g" % u for u in flat[other].tolist()]
        slots[other] = np.array(strings, dtype=f"S{G17_SLOT}").view(np.uint8).reshape(-1, G17_SLOT)
    return slots


def _g17_rows(values):
    """'%.17g' % v of every entry of the 2-D `values`, as one NUL-padded
    uint8 row per row of values: fields separated by commas, each row ended
    by a newline."""
    text = _g17_slots(values)
    text[:, -1] = ord(",")
    text = text.reshape(len(values), -1)
    text[:, -1] = ord("\n")
    return text


def _text_table(texts):
    """NUL-padded uint8 rows, row i holding texts[i] in ASCII."""
    table = np.array([t.encode() for t in texts])
    return table.view(np.uint8).reshape(len(texts), -1)


def _row_blocks(cell_field):
    """(lo, hi, weights) per block of at most SNAPSHOT_ROWS nodes lo to hi:
    the (hi - lo, N) softmax weights, cut from the kernel's chunks as they
    are formed, or None at t = 1."""
    m = cell_field.grid.n_nodes
    if cell_field.t == 1.0:
        for lo in range(0, m, SNAPSHOT_ROWS):
            yield lo, min(lo + SNAPSHOT_ROWS, m), None
        return
    for lo, pi in cell_field.kernel._weight_blocks(cell_field.psi, cell_field.t):
        for start in range(0, pi.shape[1], SNAPSHOT_ROWS):
            part = pi[:, start : start + SNAPSHOT_ROWS]
            yield lo + start, lo + start + part.shape[1], part.T


def write_snapshot_csv(path, cell_field):
    grid, n = cell_field.grid, cell_field.n
    header = ",".join(
        [f"x{k + 1}" for k in range(grid.dim)]
        + ["label"]
        + [f"pi_{j + 1}" for j in range(n)]
    )
    # Every field is formatted as '%.17g' (like the trajectory CSV) into a
    # NUL-padded table row that ends in its separator; a block of rows is one
    # uint8 array written with its NULs deleted.  Labels are exported
    # 1-based.  Each axis coordinate is formatted once, and node p * n2 + q
    # reads entries p and q of the per-axis tables; at t = 1 the label and
    # its one-hot weights are formatted once per label.
    axes = [_text_table(["%.17g," % v for v in x.tolist()]) for x in grid.axes]
    n2 = grid.axes[-1].size
    if cell_field.t == 1.0:
        one_hot = ",".join(["%d"] + ["%.17g"] * n) + "\n"
        rows = np.column_stack([np.arange(1.0, n + 1.0), np.eye(n)]).tolist()
        tails = _text_table([one_hot % tuple(row) for row in rows])
    else:
        tails = _text_table([f"{j + 1}," for j in range(n)])
    labels = cell_field.labels
    with open(path, "wb") as out:
        out.write(header.encode() + b"\n")
        for lo, hi, weights in _row_blocks(cell_field):
            index = np.divmod(np.arange(lo, hi), n2) if grid.dim == 2 else (slice(lo, hi),)
            columns = [table[i] for table, i in zip(axes, index)]
            columns.append(tails[labels[lo:hi]])
            if weights is not None:
                columns.append(_g17_rows(weights))
            out.write(np.concatenate(columns, axis=1).tobytes().translate(None, b"\0"))


def _newton_block(problem, grid):
    try:  # newton_1d refuses every problem but 1-D quadratic p1/p2
        report = newton_1d(problem)
        method = "newton_1d"
    except ConfigError:
        # every other problem (2-D, and 1-D p3, p4 or cubic cost): a fixed-t
        # solve just below the endpoint stands in and says so; it may fail
        report = fixed_t_oracle(problem, SURROGATE_T, tol=1e-8, grid=grid)
        method = f"fixed_t_oracle_surrogate(t={SURROGATE_T})"
    sup = float(report.residual_sup)
    return {
        "method": method,
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        # failed baselines report NAN rather than a stale residual value
        "residual_sup": sup if report.converged else "NAN",
        "psi": [float(v) for v in report.psi],
    }


def run_experiment(config):
    """Execute the sweep and write all artifacts; returns the summary rows."""
    # every refusal comes before the output directory is created
    try:
        tableau = rk3_tableau(config.alpha, config.beta)
        problems = [(n, build_problem(config.problem_config(n))) for n in config.n_list]
        out = Path(config.out_dir)
    except TypeError as exc:  # a value of the wrong type, such as a number for a mapping
        raise ConfigError(f"ill-typed configuration value: {exc}") from None
    try:
        grid = config.grid()
        # the grid holds only its axes, but every solve holds per-node
        # arrays (masses, labels): one that cannot be allocated is refused
        np.empty(grid.n_nodes)
    except MemoryError:
        raise ConfigError(
            "the quadrature grid does not fit in memory; lower quad_panels or quad_order"
        ) from None
    for dt in config.dt_list:
        try:  # every lattice state is kept: a trajectory that cannot be allocated is refused
            np.empty((lattice_steps(dt) + 1, max(config.n_list)))
        except (ValueError, MemoryError):
            raise ConfigError(
                f"dt={dt!r} takes too many steps for its trajectory to fit in memory; raise dt"
            ) from None
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at, or on the way to, the output path
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    summary = {dt: {} for dt in config.dt_list}

    for n, problem in problems:
        newton_block = _newton_block(problem, grid) if config.run_newton else None
        for dt in config.dt_list:
            stem = f"{config.variant}_{config.dim}d_n{n}_dt{dt:g}"
            try:
                traj = integrate_homotopy(
                    problem,
                    dt,
                    grid,
                    tableau=tableau,
                    snapshot_times=config.snapshot_times,
                )
            except SolverError as exc:
                summary[dt][n] = "NAN"
                (out / f"{stem}.json").write_text(
                    json.dumps({"error": str(exc)}, indent=2) + "\n"
                )
                continue
            write_trajectory_csv(out / f"{stem}.csv", traj)
            for t_snap, fld in traj.snapshots:
                write_snapshot_csv(out / f"{stem}_t{t_snap:g}_cells.csv", fld)
            report = {
                "variant": config.variant,
                "N": n,
                "dim": config.dim,
                "dt": dt,
                "alpha": config.alpha,
                "beta": config.beta,
                "seed": config.seed,
                "error_sup": traj.report.error_sup,
                "report_grid": {
                    "panels_per_axis": traj.report.grid.panels_per_axis,
                    "order": traj.report.grid.order,
                },
                "runtime_seconds": traj.report.runtime_seconds,
                "psi_final": [float(v) for v in traj.report.psi],
            }
            if newton_block is not None:
                report["newton_baseline"] = newton_block
            (out / f"{stem}.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
            summary[dt][n] = (
                f"{traj.report.error_sup:.3e} ({traj.report.runtime_seconds:.2f} s)"
            )

    lines = ["dt," + ",".join(f"N={n}" for n in config.n_list)]
    for dt in config.dt_list:
        cells = [summary[dt].get(n, "NAN") for n in config.n_list]
        lines.append(",".join([f"{dt:g}"] + [f'"{c}"' if "," in c else c for c in cells]))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return summary


def _parse_list(text, cast):
    return tuple(cast(part) for part in str(text).split(",") if part != "")


def _build_config(args):
    # the run flags default to SUPPRESS: `args` holds exactly the flags given,
    # each under the field it sets
    settings = dict(vars(args))
    del settings["command"]
    path = settings.pop("config", None)
    base = {}
    if path is not None:
        try:
            base = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
        if not isinstance(base, dict):
            raise ConfigError(f"config file must hold a JSON object, got {json.dumps(base)}")
        unknown = set(base) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, cast in (("n_list", int), ("dt_list", float), ("snapshot_times", float)):
        if name in settings:
            settings[name] = _parse_list(settings[name], cast)
    if "density" in settings:
        settings["density"] = {"kind": settings["density"]}
    try:
        return ExperimentConfig(**{**base, **settings})
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _add_run_flags(sub):
    sub.add_argument("--config", help="JSON experiment configuration")
    sub.add_argument("--problem", choices=["p1", "p2", "p3", "p4"], dest="variant")
    sub.add_argument("--dim", type=int, choices=[1, 2])
    sub.add_argument("--n", help="comma-separated target counts, e.g. 2,4,8", dest="n_list")
    sub.add_argument("--dt", help="comma-separated step sizes, e.g. 1e-1,1e-2", dest="dt_list")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--density", choices=["uniform", "gauss"])
    sub.add_argument("--cost-exp", type=float, choices=[2.0, 3.0], dest="cost_exponent")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--quad-panels", type=int)
    sub.add_argument("--quad-order", type=int)
    sub.add_argument("--snapshots", help="comma-separated snapshot times", dest="snapshot_times")
    sub.add_argument("--newton", action="store_true", help="add the baseline block", dest="run_newton")
    sub.add_argument("--out", help="output directory", dest="out_dir")


class _Parser(argparse.ArgumentParser):
    """Refusals exit 1 with one line, like any invalid input (subparsers too)."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None):
    parser = _Parser(
        prog="otpath",
        description="semi-discrete transport solver along the regularization path",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(
        commands.add_parser("run", help="execute a (dt x N) sweep", argument_default=argparse.SUPPRESS)
    )
    verify = commands.add_parser("verify", help="run the acceptance criteria")
    verify.add_argument(
        "--criteria", help="comma-separated criterion ids (default: all)"
    )
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            run_experiment(_build_config(args))
            return 0
        from .acceptance import run_acceptance

        results = run_acceptance(None if args.criteria is None else _parse_list(args.criteria, int))
    except ValueError as exc:  # ConfigError, or a bare ValueError on bad input
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(
            f"[{mark}] criterion {res.cid}: {res.label} - {res.measured} vs {res.threshold}"
            f" ({res.seconds:.2f} s)"
        )
        failed += not res.passed
    return 3 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
