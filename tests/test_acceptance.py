"""Release gate: every criterion runs at its pinned tolerance and prints one
pass/fail line.  `otpath verify` executes the same checks."""

from dataclasses import replace

import numpy as np
import pytest

from otpath import acceptance
from otpath.acceptance import CRITERIA, tableau_defects
from otpath.homotopy import RKTableau, rk3_tableau


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid):
    result = CRITERIA[cid]()
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] criterion {cid}: {result.label} - {result.measured} vs {result.threshold}")
    assert result.passed, f"{result.label}: {result.measured} vs {result.threshold}"


def test_gate_catches_tampered_tableau():
    good = rk3_tableau(0.125, 0.25)
    bad = RKTableau(
        alpha=good.alpha,
        beta=good.beta,
        c=good.c.copy(),
        a21=good.a21,
        a31=good.a31,
        a32=good.a32,
        b=np.array([good.b[0] + 1e-6, good.b[1], good.b[2]]),
    )
    assert tableau_defects(good) <= 1e-12
    assert tableau_defects(bad) > 1e-12


def _failing_at(monkeypatch, name, fails):
    """Replace acceptance's `name` by the real solver, whose report reads
    not converged on the calls where `fails(*args)` holds."""
    original = getattr(acceptance, name)

    def solver(*args, **kwargs):
        report = original(*args, **kwargs)
        return replace(report, converged=False) if fails(*args) else report

    monkeypatch.setattr(acceptance, name, solver)


@pytest.mark.parametrize(
    "cid, name, fails, measured",
    [
        (5, "fixed_t_oracle", lambda prob, t: t == 0.6, "oracle failed at t=0.6"),
        (5, "newton_1d", lambda prob: True, "Newton baseline failed to converge"),
        (8, "solve_xi_star", lambda cells: cells.n == 5, "equal-mass solve failed at N=5"),
    ],
    ids=["oracle", "newton", "equal-mass"],
)
def test_gate_reports_a_solver_that_fails(monkeypatch, cid, name, fails, measured):
    _failing_at(monkeypatch, name, fails)
    result = CRITERIA[cid]()
    assert result.passed is False
    assert result.measured == measured and result.threshold == "converged"
