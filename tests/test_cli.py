import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import otpath
import otpath.cli as cli
from otpath import (
    ConfigError,
    KernelEvaluator,
    NearSingularJacobianError,
    QuadratureGrid,
    NonFiniteValueError,
    ResidualSystem,
    Trajectory,
    build_grid,
    build_problem,
    capture_snapshot,
    integrate_homotopy,
    parabola_targets,
    unit_domain,
    unregularized_residual,
)
from otpath import acceptance
from otpath.acceptance import run_acceptance
from otpath.homotopy import BOOST_FACTOR
from otpath.laguerre import CHUNK_NODES, CellField
from otpath.cli import (
    G17_SLOT,
    ExperimentConfig,
    _g17_slots,
    _scaled_digits,
    main,
    run_experiment,
    write_snapshot_csv,
)


def _read(path):
    return path.read_bytes()


def test_sweep_writes_expected_artifacts(tmp_path):
    config = ExperimentConfig(
        variant="p1",
        n_list=(2, 4),
        dt_list=(1e-1, 1e-2),
        seed=4,
        out_dir=str(tmp_path),
    )
    run_experiment(config)
    assert len(list(tmp_path.glob("p1_1d_n*_dt*.csv"))) == 4
    assert len(list(tmp_path.glob("p1_1d_n*_dt*.json"))) == 4
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "dt,N=2,N=4"
    assert len(summary) == 3


def test_trajectory_csv_shape(tmp_path):
    config = ExperimentConfig(
        variant="p1", n_list=(3,), dt_list=(1e-1,), seed=4, out_dir=str(tmp_path)
    )
    run_experiment(config)
    lines = (tmp_path / "p1_1d_n3_dt0.1.csv").read_text().splitlines()
    assert lines[0] == "t,psi_1,psi_2,psi_3"
    assert len(lines) == 12  # header + 11 lattice states
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0


@pytest.mark.parametrize("block", [2, cli.SNAPSHOT_ROWS])
def test_trajectory_csv_matches_percent_format(tmp_path, monkeypatch, block):
    # rows with zeros of both signs, negatives, tiny and large values, at
    # t = 0 and t = 1; with blocks of 2 rows the last block is partial
    monkeypatch.setattr(cli, "SNAPSHOT_ROWS", block)
    rows = [
        (0.0, [0.0, -0.0, 1.3862943611198906]),
        (0.25, [-1.5, 2.5e-7, -123456.78901234567]),
        (0.5, [1e-4, -9.999999999999999e-5, 1e14]),
        (0.75, [np.nextafter(1.0, 2.0), -1e300, 5e-324]),
        (1.0, [0.1, -0.2, 0.30000000000000004]),
    ]
    traj = Trajectory(times=np.array([t for t, _ in rows]), psi_matrix=np.array([psi for _, psi in rows]))
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, traj)
    expected = ["t,psi_1,psi_2,psi_3"] + [",".join("%.17g" % v for v in [t, *psi]) for t, psi in rows]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_summary_matches_stored_state(tmp_path):
    config = ExperimentConfig(
        variant="p1", n_list=(3,), dt_list=(1e-1,), seed=4, out_dir=str(tmp_path)
    )
    run_experiment(config)
    report = json.loads((tmp_path / "p1_1d_n3_dt0.1.json").read_text())
    problem = build_problem(config.problem_config(3))
    # the report names the grid its residual was evaluated on: the boosted
    # stage grid
    used = report["report_grid"]
    assert used == {"panels_per_axis": BOOST_FACTOR * config.grid().panels_per_axis, "order": 8}
    grid = build_grid(unit_domain(1), used["panels_per_axis"], used["order"])
    residual = unregularized_residual(problem, np.array(report["psi_final"]), grid)
    recomputed = float(np.abs(residual).max())
    assert recomputed == pytest.approx(report["error_sup"], rel=1e-12)
    summary = (tmp_path / "summary.csv").read_text()
    assert f"{report['error_sup']:.3e}" in summary


def test_reruns_are_byte_identical(tmp_path):
    paths = []
    for sub in ("a", "b"):
        config = ExperimentConfig(
            variant="p2", n_list=(3,), dt_list=(1e-1,), seed=4,
            out_dir=str(tmp_path / sub),
        )
        run_experiment(config)
        paths.append(tmp_path / sub / "p2_1d_n3_dt0.1.csv")
    assert _read(paths[0]) == _read(paths[1])


def test_snapshots_written(tmp_path):
    config = ExperimentConfig(
        variant="p1",
        n_list=(2,),
        dt_list=(0.25,),
        seed=4,
        snapshot_times=(0.0, 0.25, 0.5, 0.75, 1.0),
        out_dir=str(tmp_path),
    )
    run_experiment(config)
    snaps = sorted(tmp_path.glob("p1_1d_n2_dt0.25_t*_cells.csv"))
    assert len(snaps) == 5
    header = snaps[0].read_text().splitlines()[0]
    assert header == "x1,label,pi_1,pi_2"
    labels = {int(line.split(",")[1]) for line in snaps[0].read_text().splitlines()[1:]}
    assert labels <= {1, 2}  # exported labels are 1-based
    # the bytes match a one-field-at-a-time writer, for a softmax snapshot
    # and for a t = 1 label snapshot
    problem = build_problem(config.problem_config(2))
    traj = integrate_homotopy(problem, 0.25, config.grid(), snapshot_times=(0.5, 1.0))
    for t_snap, fld in traj.snapshots:
        assert (fld.weights is None) == (t_snap == 1.0)
        written = (tmp_path / f"p1_1d_n2_dt0.25_t{t_snap:g}_cells.csv").read_bytes()
        assert written == _reference_snapshot_bytes(fld)


def _reference_snapshot_bytes(cell_field):
    """Snapshot CSV bytes built one formatted field at a time."""
    nodes, labels, weights, n = cell_field.nodes, cell_field.labels, cell_field.weights, cell_field.n
    if weights is None:
        weights = np.eye(n)[labels]
    header = [f"x{k + 1}" for k in range(nodes.shape[1])] + ["label"]
    lines = [",".join(header + [f"pi_{j + 1}" for j in range(n)])]
    for x, label, w in zip(nodes, labels, weights):
        fields = [f"{v:.17g}" for v in x] + [str(int(label) + 1)] + [f"{v:.17g}" for v in w]
        lines.append(",".join(fields))
    return ("\n".join(lines) + "\n").encode()


def test_snapshot_bytes_in_2d(tmp_path):
    problem = build_problem({"variant": "p1", "dim": 2, "n_targets": 3, "seed": 4})
    system = ResidualSystem(problem, build_grid(unit_domain(2), 3, 2))
    psi = np.array([0.1, -0.2, 0.05])
    for t in (0.4, 0.99, 0.9999, 1.0):
        fld = capture_snapshot(system, psi, t)
        if t in (0.99, 0.9999):  # weights below 1e-4, and at 0.9999 zeros
            assert ((fld.weights > 0) & (fld.weights < 1e-4)).any()
            assert (fld.weights == 0).any() == (t == 0.9999)
        write_snapshot_csv(tmp_path / "snap.csv", fld)
        assert (tmp_path / "snap.csv").read_bytes() == _reference_snapshot_bytes(fld)


def test_snapshot_bytes_in_1d_and_with_two_digit_labels(tmp_path):
    # a hand-built 1-D rule with nodes at 0.0 and -0.0, which print apart
    signed = QuadratureGrid(
        panels_per_axis=1, order=3, lower=(-0.0,), upper=(0.25,),
        axes=(np.array([0.0, -0.0, 0.25]),), axis_weights=(np.full(3, 0.25 / 3),),
    )
    two = KernelEvaluator(build_problem({"variant": "p1", "dim": 1, "targets": [[0.0], [0.25]]}), signed)
    fields = [CellField(kernel=two, psi=np.zeros(2), t=t) for t in (0.4, 1.0)]
    assert fields[1].nodes[1, 0] == 0.0 and np.signbit(fields[1].nodes[1, 0])
    p3_1d = build_problem({"variant": "p3", "dim": 1, "n_targets": 4, "seed": 4, "anchor": [0.5]})
    system = ResidualSystem(p3_1d, build_grid(unit_domain(1), 5, 3))
    fields += [capture_snapshot(system, np.array([0.1, -0.2, 0.05, 0.0]), t) for t in (0.4, 1.0)]
    # 12 targets in the box over 2,304 nodes, more than two writer blocks
    p3_2d = build_problem(
        {"variant": "p3", "dim": 2, "n_targets": 12, "seed": 4, "anchor": [0.5, 0.5]}
    )
    system = ResidualSystem(p3_2d, build_grid(unit_domain(2), 12, 4))
    psi = p3_2d.offsets
    fields += [capture_snapshot(system, psi, t) for t in (0.4, 1.0)]
    assert fields[-1].labels.max() >= 9  # two-digit exported labels
    for fld in fields:
        write_snapshot_csv(tmp_path / "snap.csv", fld)
        assert (tmp_path / "snap.csv").read_bytes() == _reference_snapshot_bytes(fld)


def _parabola_system(panels):
    problem = build_problem({"variant": "p1", "dim": 2, "targets": parabola_targets(12).points.tolist()})
    return ResidualSystem(problem, build_grid(unit_domain(2), panels, 6))


def test_a_snapshot_keeps_nothing_per_node():
    # N = 12 on the 24x6 grid (20,736 nodes): a field holds psi, t and the
    # kernel that the run already holds, where the labels alone take 166 KB
    # and the t = 0.5 weights 2 MB
    system = _parabola_system(24)
    psi = system.initial_state().psi0
    capture_snapshot(system, psi, 0.5)
    tracemalloc.start()
    try:
        fields = [capture_snapshot(system, psi, t) for t in (0.5, 1.0)]
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024 and [f.t for f in fields] == [0.5, 1.0]


def test_streamed_snapshot_bytes_across_kernel_chunks(tmp_path):
    # 102 nodes per axis: the 10,404 nodes are a multiple of neither the
    # writer's block nor the kernel's chunk, so both end short
    system = _parabola_system(17)
    grid = system.grid
    assert grid.n_nodes > CHUNK_NODES
    assert grid.n_nodes % CHUNK_NODES and grid.n_nodes % cli.SNAPSHOT_ROWS
    fields = [capture_snapshot(system, system.problem.offsets, t) for t in (0.5, 0.9999)]
    for fld in fields:
        write_snapshot_csv(tmp_path / f"t{fld.t}.csv", fld)
    assert "nodes" not in vars(grid)  # the writer reads the per-axis coordinates
    weights = fields[1].weights  # zeros, and weights below 1e-4
    assert (weights == 0).any() and ((weights > 0) & (weights < 1e-4)).any()
    for fld in fields:
        assert (tmp_path / f"t{fld.t}.csv").read_bytes() == _reference_snapshot_bytes(fld)


def test_label_snapshot_keeps_the_columns_of_empty_cells(tmp_path):
    # at psi = (5, -5) target 1 owns every node, so its label is the largest
    # one; the t = 1 snapshot still has one pi_j column per target
    problem = build_problem({"variant": "p1", "dim": 1, "targets": [[0.2], [0.6]]})
    system = ResidualSystem(problem, build_grid(unit_domain(1), 4, 3))
    fld = capture_snapshot(system, np.array([5.0, -5.0]), 1.0)
    assert fld.n == 2 and not fld.labels.any()
    write_snapshot_csv(tmp_path / "snap.csv", fld)
    lines = (tmp_path / "snap.csv").read_text().splitlines()
    assert lines[0] == "x1,label,pi_1,pi_2"
    assert all(line.endswith(",1,1,0") for line in lines[1:])
    assert (tmp_path / "snap.csv").read_bytes() == _reference_snapshot_bytes(fld)


def test_run_writes_every_pi_column_at_t_1(tmp_path):
    # seed 0 leaves targets 5 to 8 without a node at t = 1
    run_experiment(ExperimentConfig(
        n_list=(8,), dt_list=(0.1,), seed=0, snapshot_times=(0.5, 1.0), out_dir=str(tmp_path)
    ))
    for t_snap in (0.5, 1):
        header = (tmp_path / f"p1_1d_n8_dt0.1_t{t_snap:g}_cells.csv").read_text().splitlines()[0]
        assert header.split(",")[2:] == [f"pi_{j + 1}" for j in range(8)]


def _g17_text(values):
    slots = _g17_slots(values)
    assert slots.shape == (np.size(values), G17_SLOT)
    slots[:, -1] = ord(",")
    return slots.tobytes().translate(None, b"\0")


def _assert_g17(values):
    values = np.asarray(values, dtype=float).ravel()
    got = _g17_text(values).decode().split(",")[:-1]
    bad = [(g, "%.17g" % v) for g, v in zip(got, values.tolist()) if g != "%.17g" % v]
    assert len(got) == values.size and not bad, f"{len(bad)} differ from '%.17g': {bad[:5]}"


def _decimal_ties(rng, per_scale):
    """Floats odd / 2**j whose exact decimal expansions have 18 significant
    digits, so '%.17g' meets an exact tie at its last digit."""
    out = []
    for j in range(2, 26):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        odd = rng.integers(lo // 2, hi // 2, size=per_scale) * 2 + 1
        out.append(odd.astype(float) / 2.0**j)
    return np.concatenate(out)


def test_g17_matches_percent_format():
    rng = np.random.default_rng(2)
    signs = rng.choice([-1.0, 1.0], size=400_000)
    edges = np.array([1e-4, 1e14, 1.0, 0.1, 0.5])
    tens = np.array([10.0**e for e in range(-8, 19)] + [float(f"1e{e}") for e in range(-8, 19)])
    near = np.concatenate(
        [edges, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
         np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
    )
    special = np.array(
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, np.inf, np.nan, 1.7976931348623157e308]
    )
    ties = _decimal_ties(rng, 2_500)
    groups = {
        "random bit patterns": rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(float),
        "log-uniform 1e-8 to 1e18": signs * np.exp(rng.uniform(np.log(1e-8), np.log(1e18), 400_000)),
        "uniform weights": rng.random(250_000),
        "dyadic rationals": rng.integers(-(10**7), 10**7, 150_000) / 2.0 ** rng.integers(0, 64, 150_000),
        "integers": rng.integers(-(2**53), 2**53, 100_000).astype(float),
        "powers of ten and neighbours": np.concatenate([near, -near]),
        "ties at the 17th digit": np.concatenate([ties, -ties]),
        "zeros, subnormals, inf, nan": np.concatenate([special, -special]),
    }
    assert sum(v.size for v in groups.values()) >= 1_000_000
    # the ties lie in the fixed-notation range, where the limb path rounds them
    assert ((ties >= 1e-4) & (ties < 1e14)).mean() > 0.5
    for name, values in groups.items():
        _assert_g17(values)
    _assert_g17(np.array([], dtype=float))
    _assert_g17(rng.random((7, 3)))  # any shape, flattened in C order


def test_g17_block_transient_is_bounded():
    # one writer block of 1,024 rows of 12 weights: beside its 32-byte slots
    # the formatter holds at most about twelve more 8-byte values per value
    # at once (the arithmetic runs in place; 188 bytes per value in all
    # when each step formed a new array)
    values = np.random.default_rng(3).random((1024, 12))
    _g17_slots(values)  # the digit tables are built on first use
    tracemalloc.start()
    try:
        slots = _g17_slots(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slots.nbytes == G17_SLOT * values.size and peak <= 128 * values.size


def test_scaled_digits_round_half_even():
    # round(m * 5**s * 2**(k + s)) against exact integer arithmetic, over
    # the shifts the fixed-notation range reaches
    rng = np.random.default_rng(5)
    x = np.concatenate([np.exp(rng.uniform(np.log(1e-4), np.log(1e14), 4_000)),
                        _decimal_ties(rng, 50)])
    x = x[(x >= 1e-4) & (x < 1e14)]
    mant, exp2 = np.frexp(x)
    m = (mant * 2.0**53).astype(np.uint64)
    k = exp2.astype(np.int64) - 53
    s = 16 - np.floor(np.log10(x)).astype(np.int64)
    shifts = -(k + s)
    assert shifts.min() >= 1 and shifts.max() <= 63
    got = _scaled_digits(m, k, s)
    for mi, ki, si, qi in zip(m.tolist(), k.tolist(), s.tolist(), got.tolist()):
        num, shift = mi * 5**si, -(ki + si)
        q, rest = divmod(num, 2**shift)
        if 2 * rest > 2**shift or (2 * rest == 2**shift and q % 2):
            q += 1
        assert qi == q


def test_newton_block_recorded(tmp_path):
    config = ExperimentConfig(
        variant="p1", n_list=(2,), dt_list=(1e-1,), seed=4,
        run_newton=True, out_dir=str(tmp_path),
    )
    run_experiment(config)
    report = json.loads((tmp_path / "p1_1d_n2_dt0.1.json").read_text())
    block = report["newton_baseline"]
    assert block["method"] == "newton_1d"
    assert block["converged"] is True


def test_failed_baseline_reported_as_nan(tmp_path):
    # seed 7 draws far-flung targets; the zero-start baseline diverges there
    config = ExperimentConfig(
        variant="p1", n_list=(4,), dt_list=(1e-1,), seed=7,
        run_newton=True, out_dir=str(tmp_path),
    )
    run_experiment(config)
    report = json.loads((tmp_path / "p1_1d_n4_dt0.1.json").read_text())
    block = report["newton_baseline"]
    assert block["converged"] is False
    assert block["residual_sup"] == "NAN"


def test_newton_surrogate_labeled_in_2d(tmp_path):
    config = ExperimentConfig(
        variant="p1", dim=2, n_list=(2,), dt_list=(1e-1,), seed=4,
        run_newton=True, out_dir=str(tmp_path),
    )
    run_experiment(config)
    report = json.loads((tmp_path / "p1_2d_n2_dt0.1.json").read_text())
    assert "surrogate" in report["newton_baseline"]["method"]


def test_failed_cell_recorded_and_sweep_continues(tmp_path, monkeypatch):
    original = cli.integrate_homotopy

    def failing_at_n3(problem, dt, grid, **kwargs):
        if problem.n == 3:
            raise NonFiniteValueError("toy overflow")
        return original(problem, dt, grid, **kwargs)

    monkeypatch.setattr(cli, "integrate_homotopy", failing_at_n3)
    config = ExperimentConfig(
        variant="p1", n_list=(2, 3, 4), dt_list=(1e-1,), seed=4, out_dir=str(tmp_path)
    )
    run_experiment(config)
    failed = json.loads((tmp_path / "p1_1d_n3_dt0.1.json").read_text())
    assert failed == {"error": "toy overflow"}
    assert not (tmp_path / "p1_1d_n3_dt0.1.csv").exists()
    for n in (2, 4):  # the cells before and after the failure still ran
        assert (tmp_path / f"p1_1d_n{n}_dt0.1.csv").exists()
        assert "error_sup" in json.loads((tmp_path / f"p1_1d_n{n}_dt0.1.json").read_text())
    row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "0.1" and row[2] == "NAN"
    assert row[1] != "NAN" and row[3] != "NAN"


def test_p4_start_that_does_not_converge_is_a_failed_cell(tmp_path):
    # on a 2x2-node grid the 8 rho cells cannot all reach equal grid-label
    # masses, so the equal-mass solve for the p4 start fails: the cell
    # records the error and a NAN, and the run still exits 0
    out = tmp_path / "out"
    argv = ["--problem", "p4", "--dim", "2", "--n", "8", "--dt", "0.25"]
    assert main(["run", *argv, "--quad-panels", "1", "--quad-order", "2", "--out", str(out)]) == 0
    failed = json.loads((out / "p4_2d_n8_dt0.25.json").read_text())
    assert failed == {"error": "equal-mass weight solve for the p4 start did not converge"}
    assert not (out / "p4_2d_n8_dt0.25.csv").exists()
    assert (out / "summary.csv").read_text().splitlines() == ["dt,N=8", "0.25,NAN"]


def test_solver_failure_outside_a_cell_exits_2(tmp_path, capsys, monkeypatch):
    # the baseline runs outside the per-cell guard, so its failure ends the run
    def failing(problem, psi0=None):
        raise NearSingularJacobianError(1.0, "toy baseline")

    monkeypatch.setattr(cli, "newton_1d", failing)
    code = main(
        ["run", "--problem", "p1", "--n", "2", "--dt", "1e-1", "--seed", "4",
         "--newton", "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver failure: ")
    assert "toy baseline" in err[0]


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(dt_list=(0.3,))
    with pytest.raises(ConfigError):
        ExperimentConfig(dt_list=(1e-1,), snapshot_times=(0.15,))


def test_p3_p4_defaults_filled():
    cfg3 = ExperimentConfig(variant="p3", dim=2)
    assert cfg3.anchor == (0.5, 0.5)
    cfg4 = ExperimentConfig(variant="p4")
    assert cfg4.rho == {"kind": "gauss"}


def test_main_run_and_exit_codes(tmp_path):
    code = main(
        ["run", "--problem", "p1", "--n", "2", "--dt", "1e-1", "--seed", "4",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "summary.csv").exists()
    assert main(["run", "--dt", "0.3", "--out", str(tmp_path)]) == 1


def test_main_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"variant": "p1", "n_list": [2], "dt_list": [0.1]}))
    out = tmp_path / "results"
    code = main(["run", "--config", str(cfg_path), "--seed", "4", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "p1_1d_n2_dt0.1.json").read_text())
    assert report["seed"] == 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "argv, config, stem, grid, problem",
    [
        (["--problem", "p3", "--density", "gauss"], {}, "p3_1d_n3_dt0.25", (64, 8),
         {"variant": "p3", "dim": 1, "n_targets": 3, "seed": 0, "density": {"kind": "gauss"}, "anchor": [0.5]}),
        (["--quad-panels", "8", "--quad-order", "4"], {"dim": 2, "parabola": True}, "p1_2d_n3_dt0.25", (8, 4),
         {"variant": "p1", "dim": 2, "n_targets": 3, "parabola": True}),
    ],
    ids=["p3-gauss-flags", "parabola-2d-config"],
)
def test_run_builds_the_problem_it_was_given(tmp_path, argv, config, stem, grid, problem):
    # the flag and the config key reach build_problem: the report holds the
    # solve of the problem built from the mapping they stand for
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--n", "3", "--dt", "0.25", "--out", str(out), *argv]) == 0
    report = json.loads((out / f"{stem}.json").read_text())
    traj = integrate_homotopy(build_problem(problem), 0.25, build_grid(unit_domain(problem["dim"]), *grid))
    assert report["psi_final"] == traj.report.psi.tolist()
    assert report["error_sup"] == traj.report.error_sup


def test_main_verify_fast_criteria(capsys):
    assert main(["verify", "--criteria", "1,6"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    assert main(["verify", "--criteria", "99"]) == 1


def test_verify_refuses_a_selection_before_running_any(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(acceptance.CRITERIA, 1, lambda: ran.append(1))
    for criteria in ("1,99", "1,1"):
        assert main(["verify", "--criteria", criteria]) == 1
    assert ran == [] and capsys.readouterr().out == ""


def test_verify_lines_end_in_wall_seconds(capsys):
    # the timing suffix is appended; the rest of each line is unchanged
    assert main(["verify", "--criteria", "1,6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = run_acceptance([1, 6])
    assert len(lines) == len(results)
    for line, res in zip(lines, results):
        head, sep, seconds = line.rpartition(" (")
        assert sep and re.fullmatch(r"\d+\.\d\d s\)", seconds)
        assert head == f"[PASS] criterion {res.cid}: {res.label} - {res.measured} vs {res.threshold}"


# (argv, JSON config or None, expected exit code, text the message must
# contain or None); "{tmp}" stands for the test's scratch directory.
BAD_INPUTS = [
    pytest.param(["run", "--quad-panels", "0"], None, 1, None, id="quad-panels-0"),
    pytest.param(["run", "--quad-order", "0"], None, 1, None, id="quad-order-0"),
    pytest.param(["run", "--quad-panels", "-2"], None, 1, None, id="quad-panels-negative"),
    pytest.param(["run", "--dt", "0"], None, 1, None, id="dt-0"),
    # 600,000 nodes per axis: the 5.8 TB node array is refused at once
    pytest.param(["run", "--dim", "2", "--quad-panels", "100000"], None, 1,
                 "does not fit in memory", id="grid-too-large"),
    pytest.param(["run", "--n", "2,x"], None, 1, None, id="n-not-int"),  # bare ValueError
    pytest.param(["run", "--n", ","], None, 1, "n_list", id="n-empty"),
    pytest.param(["run", "--dt", ","], None, 1, "dt_list", id="dt-empty"),
    pytest.param(["run", "--alpha", "nan"], None, 1, "tableau", id="alpha-nan"),
    pytest.param(["run", "--snapshots", "inf"], None, 1,
                 "snapshot time inf is not on the step lattice", id="snapshots-inf"),
    pytest.param(["run", "--snapshots", "nan"], None, 1,
                 "snapshot time nan is not on the step lattice", id="snapshots-nan"),
    pytest.param(["run", "--alpha", "0"], None, 1, "tableau", id="alpha-0"),
    # a stage time before t = 0 is refused by name before the output directory
    pytest.param(["run", "--alpha", "-0.5", "--beta", "0.25", "--n", "2", "--dt", "0.25"], None, 1,
                 "stage times alpha and beta must lie in (0, 1), got alpha = -0.5, beta = 0.25",
                 id="alpha-negative"),
    pytest.param(["run", "--beta", "-0.25", "--n", "2", "--dt", "0.25"], None, 1,
                 "stage times alpha and beta must lie in (0, 1), got alpha = 0.125, beta = -0.25",
                 id="beta-negative"),
    pytest.param(["run", "--boost-after", "0.5"], None, 1, None, id="boost-after-flag"),
    pytest.param(["run"], {"boost_after": 0.9}, 1, "boost_after", id="config-boost-after"),
    pytest.param(["run"], {"variant": "p7"}, 1, "variant", id="config-variant-unknown"),
    pytest.param(["run"], {"variant": "P3"}, 1, "variant among", id="config-variant-case"),
    pytest.param(["run"], {"dim": 3}, 1, None, id="config-dim-3"),
    pytest.param(["run"], {"quad_panels": 0}, 1, None, id="config-quad-panels-0"),
    pytest.param(["run"], {"quad_order": 2.5}, 1, None, id="config-quad-order-float"),
    pytest.param(["run"], {"n_list": ["x"]}, 1, "n_list must be a list of integers, got ['x']",
                 id="config-n-not-int"),
    pytest.param(["run"], {"n_list": [2.5]}, 1, "n_list must be a list of integers, got [2.5]",
                 id="config-n-float-element"),
    pytest.param(["run"], {"n_list": [True]}, 1, "n_list must be a list of integers, got [True]",
                 id="config-n-bool-element"),
    pytest.param(["run"], {"variant": "p3", "anchor": [True]}, 1,
                 "anchor must be a list of real numbers, got [True]", id="config-anchor-bool-element"),
    pytest.param(["run"], {"n_list": []}, 1, "n_list", id="config-n-empty"),
    # a repeated value would solve the same cell again into the same files
    pytest.param(["run", "--n", "2,2"], None, 1, "n_list must not repeat a value, got [2, 2]",
                 id="n-repeat"),
    pytest.param(["run"], {"dt_list": [0.25, 0.25]}, 1,
                 "dt_list must not repeat a value, got [0.25, 0.25]", id="config-dt-repeat"),
    # two dt values on one step lattice, or printed alike, would write the same files
    pytest.param(["run", "--n", "2", "--dt", "0.25,0.2500000000001"], None, 1,
                 "dt_list values 0.25 and 0.2500000000001 name one step lattice", id="dt-same-lattice"),
    # 10**300 lattice states: refused at once, before any step or allocation
    pytest.param(["run", "--n", "2", "--dt", "1e-300"], None, 1,
                 "dt=1e-300 takes too many steps for its trajectory to fit in memory", id="dt-too-small"),
    pytest.param(["run"], "not json", 1, None, id="config-not-json"),
    # the file's top level is the mapping of ExperimentConfig fields
    pytest.param(["run"], "null", 1, "config file must hold a JSON object, got null", id="config-json-null"),
    pytest.param(["run"], "5", 1, "config file must hold a JSON object, got 5", id="config-json-number"),
    pytest.param(["run"], '"abc"', 1, 'config file must hold a JSON object, got "abc"', id="config-json-string"),
    pytest.param(["run"], "[1, 2]", 1, "config file must hold a JSON object, got [1, 2]", id="config-json-list"),
    # wrong-typed values, refused where the config becomes problems
    pytest.param(["run"], {"density": 5}, 1, "density must be a mapping", id="config-density-number"),
    pytest.param(["run"], {"dim": [1]}, 1, "dim must be an integer", id="config-dim-list"),
    pytest.param(["run"], {"dim": 1.0}, 1, "dim must be an integer", id="config-dim-float"),
    pytest.param(["run"], {"n_list": 3}, 1, "n_list must be a list", id="config-n-number"),
    pytest.param(["run"], {"snapshot_times": 0.5}, 1, "snapshot_times must be a list",
                 id="config-snapshot-times-number"),
    pytest.param(["run"], {"variant": "p4", "rho": 3}, 1, "rho must be a mapping", id="config-rho-number"),
    pytest.param(["run"], {"variant": "p3", "anchor": 5}, 1, "anchor must be a list",
                 id="config-anchor-number"),
    pytest.param(["run"], {"density": {"kind": "gauss", "center": 5}}, 1, None,
                 id="config-center-number"),
    pytest.param(["run"], {"density": {"kind": "gauss", "sharpness": "x"}}, 1, None,
                 id="config-sharpness-text"),
    # a density mapping takes only its kind's keys, each a finite real number
    pytest.param(["run"], {"density": {"kind": "gauss", "sharpnes": 50}}, 1,
                 "unknown density keys for kind 'gauss': ['sharpnes']", id="config-density-key-typo"),
    pytest.param(["run"], {"density": {"kind": "uniform", "sharpness": 3}}, 1,
                 "unknown density keys for kind 'uniform': ['sharpness']", id="config-uniform-key"),
    pytest.param(["run"], {"variant": "p4", "rho": {"kind": "gauss", "centre": [0.5]}}, 1,
                 "unknown rho keys for kind 'gauss': ['centre']", id="config-rho-key-typo"),
    pytest.param(["run"], {"density": {"kind": "gauss", "sharpness": True}}, 1,
                 "density sharpness must be a positive finite real number, got True",
                 id="config-sharpness-bool"),
    pytest.param(["run"], {"density": {"kind": "gauss", "sharpness": 0}}, 1,
                 "density sharpness must be a positive finite real number, got 0", id="config-sharpness-0"),
    pytest.param(["run"], {"density": {"kind": "gauss", "sharpness": float("inf")}}, 1,
                 "density sharpness must be a positive finite real number, got inf", id="config-sharpness-inf"),
    pytest.param(["run"], {"variant": "p4", "rho": {"kind": "gauss", "normalization": float("nan")}}, 1,
                 "rho normalization must be a positive finite real number, got nan",
                 id="config-rho-normalization-nan"),
    pytest.param(["run"], {"density": {"kind": "gauss", "center": [float("nan")]}}, 1,
                 "density center must be a list of finite real numbers, got [nan]", id="config-center-nan"),
    pytest.param(["run"], {"density": {"kind": "gauss", "center": [True]}}, 1,
                 "density center must be a list of finite real numbers, got [True]", id="config-center-bool"),
    pytest.param(["run"], {"density": {"kind": "gauss", "center": [[1], [1, 2]]}}, 1,
                 "density center must be a list of finite real numbers, got [[1], [1, 2]]",
                 id="config-center-ragged"),
    pytest.param(["run"], {"density": {"kind": "cauchy"}}, 1, "unknown density kind 'cauchy'",
                 id="config-density-kind-unknown"),
    # a bump whose mass on the box underflows has no normalization
    pytest.param(["run"], {"density": {"kind": "gauss", "center": [3.0], "sharpness": 1000}}, 1,
                 "gauss density at (3.0,) with sharpness 1000 has no mass on the domain",
                 id="config-density-far-off"),
    pytest.param(["run"], {"variant": "p4", "rho": {"kind": "gauss", "center": [40.0]}}, 1,
                 "gauss density at (40.0,) with sharpness 10 has no mass on the domain", id="config-rho-far-off"),
    # an axis integral that overflows, with or without an explicit constant
    pytest.param(["run"], {"density": {"kind": "gauss", "sharpness": 1e-308, "normalization": 1.0}}, 1,
                 "gauss density sharpness 1e-308 is too small: its integral over the domain overflows",
                 id="config-density-sharpness-tiny"),
    pytest.param(["run"], {"variant": "p4", "rho": {"kind": "gauss", "sharpness": 1e-308}}, 1,
                 "gauss density sharpness 1e-308 is too small: its integral over the domain overflows",
                 id="config-rho-sharpness-tiny"),
    # the scaled box ends overflow: refused without a warning line
    pytest.param(["run"], {"density": {"kind": "gauss", "center": [1e308]}}, 1,
                 "gauss density at (1e+308,) with sharpness 10 has no mass on the domain",
                 id="config-density-center-huge"),
    pytest.param(["run"], {"parabola": True}, 1, "the parabola layout is two-dimensional", id="config-parabola-1d"),
    pytest.param(["run"], {"alpha": [0.1]}, 1, "alpha must be a real number", id="config-alpha-list"),
    pytest.param(["run"], {"seed": 1.5}, 1, "seed must be an integer, got 1.5", id="config-seed-float"),
    pytest.param(["run"], {"seed": [1]}, 1, "seed must be an integer, got [1]", id="config-seed-list"),
    pytest.param(["run"], {"seed": -1}, 1, "seed must be a non-negative integer, got -1",
                 id="config-seed-negative"),
    pytest.param(["run", "--seed", "-1"], None, 1, "seed must be a non-negative integer, got -1",
                 id="seed-negative"),
    pytest.param(["run"], {"cost_exponent": [2]}, 1, "cost_exponent must be a real number, got [2]",
                 id="config-cost-exponent-list"),
    # JSON true is not the number 1, nor 1 a bool
    pytest.param(["run"], {"beta": True}, 1, "beta must be a real number, got True", id="config-beta-bool"),
    pytest.param(["run"], {"dim": True}, 1, "dim must be an integer, got True", id="config-dim-bool"),
    pytest.param(["run"], {"quad_order": True}, 1, "quad_order must be a positive integer, got True",
                 id="config-quad-order-bool"),
    pytest.param(["run"], {"parabola": 1}, 1, "parabola must be true or false, got 1", id="config-parabola-int"),
    pytest.param(["run"], {"run_newton": "yes"}, 1, "run_newton must be true or false", id="config-newton-text"),
    pytest.param(["run"], {"variant": 4}, 1, "variant must be a string, got 4", id="config-variant-number"),
    pytest.param(["run", "--config", "{tmp}/missing.json"], None, 1, None, id="config-missing"),
    pytest.param(["verify", "--criteria", "1,x"], None, 1, None, id="criteria-not-int"),
    pytest.param(["verify", "--criteria", "99"], None, 1, None, id="criteria-unknown"),
    # an empty selection would pass the gate with no criterion run
    pytest.param(["verify", "--criteria", ","], None, 1, "criteria must name at least one criterion",
                 id="criteria-empty"),
    pytest.param(["verify", "--criteria", ""], None, 1, "criteria must name at least one criterion",
                 id="criteria-blank"),
    pytest.param(["verify", "--criteria", "1,1"], None, 1, "criteria must not repeat a value, got [1, 1]",
                 id="criteria-repeat"),
    # refused by the argument parser itself
    pytest.param(["run", "--dim", "3"], None, 1, None, id="dim-3"),
    pytest.param(["run", "--seed", "x"], None, 1, None, id="seed-not-int"),
    pytest.param(["run", "--bogus"], None, 1, None, id="unknown-flag"),
    pytest.param(["verify", "--bogus"], None, 1, None, id="verify-unknown-flag"),
    pytest.param(["solve"], None, 1, None, id="unknown-command"),
    pytest.param([], None, 1, None, id="no-command"),
]


@pytest.mark.parametrize("argv, config, code, needle", BAD_INPUTS)
def test_bad_inputs_exit_with_documented_code(tmp_path, capsys, argv, config, code, needle):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if config is not None:
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(cfg_path)]
    if argv[:1] == ["run"]:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("configuration error: ")
    assert needle is None or needle in err
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


def test_dt_values_printed_alike_are_refused():
    # 2,000,000 and 2,000,001 steps, both written as dt5e-07
    with pytest.raises(ConfigError, match="dt_list values 5e-07 and 4.9999975e-07 name one file stem"):
        ExperimentConfig(n_list=(2,), dt_list=(5e-7, 4.9999975e-7))


@pytest.mark.parametrize("below", [False, True], ids=["existing-file", "below-a-file"])
def test_out_naming_a_file_exits_with_one_line(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    assert main(["run", "--n", "2", "--dt", "0.25", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("configuration error: ")
    reason = "Not a directory" if below else "File exists"
    assert err.endswith(f"cannot create output directory {out}: {reason}")
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["verify", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: otpath" in capsys.readouterr().out


def test_a_run_loads_no_scipy(tmp_path):
    # a fresh interpreter: a 2-D p4 run with a Gaussian rho (error-function
    # normalization, equal-mass start, stage solves) and its CSVs, then the
    # modules it loaded
    src = str(Path(otpath.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "from otpath.cli import main\n"
        "code = main(['run', '--problem', 'p4', '--dim', '2', '--n', '3', '--dt', '0.25',\n"
        "             '--quad-panels', '8', '--quad-order', '4', '--snapshots', '0.5', '--out', sys.argv[1]])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]
    assert json.loads((tmp_path / "p4_2d_n3_dt0.25.json").read_text())["variant"] == "p4"
    rows = (tmp_path / "p4_2d_n3_dt0.25.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["t", "0", "0.25", "0.5", "0.75", "1"]
    assert (tmp_path / "p4_2d_n3_dt0.25_t0.5_cells.csv").exists()


def test_python_m_otpath_runs_the_cli():
    src = str(Path(otpath.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "otpath", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert "usage: otpath" in done.stdout
