"""Tests of the benchmark's output checker: python3 -m pytest perfbench"""

from __future__ import annotations

import csv
import io
import math

import pytest

from checks import failed_points


def _csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]) + ["error"], lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: repr(v) if isinstance(v, float) else v for key, v in row.items()})
    return buf.getvalue()


def _sweep_row() -> dict:
    n, ed, ed2 = 200000, 1.0e6, 8.0e6
    return {"n": n, "seeds_per_point": 2, "ED": ed, "VarD": 1.0e6, "ED2": ed2,
            "VarD2_bound": 4.0e10, "n_sum_pi_sq": 1.001 * n * (ed2 + ed) / ed**2}


def _ensemble_row() -> dict:
    se_d, se_d2 = math.sqrt(1000.0 / 10), math.sqrt(1.0e4 / 10)
    return {"ens_replicates": 10, "ED": 1000.0, "VarD": 1000.0, "mean_D": 1000.0 + se_d,
            "ED2": 5000.0, "VarD2_bound": 1.0e4, "mean_D2": 5000.0 - 2 * se_d2}


def _simulate_row() -> dict:
    t, rate = 100.0, 0.0013
    return {"t_horizon": t, "sum_pi_sq": rate, "predicted_tau": t * rate,
            "tau_z_score": 0.7, "jensen_satisfied": "true"}


CLEAN = {"sweep": _sweep_row, "ensemble": _ensemble_row, "simulate": _simulate_row}


@pytest.mark.parametrize("kind", sorted(CLEAN))
def test_clean_rows_pass_and_repeat(kind):
    text = _csv([CLEAN[kind](), CLEAN[kind]()])
    assert failed_points(kind, 2, 0, text, None) == []
    assert failed_points(kind, 2, 0, text, text.splitlines()[1:]) == []


@pytest.mark.parametrize("kind", sorted(CLEAN))
def test_error_row_fails(kind):
    bad = dict(CLEAN[kind](), error="no simple 3-regular pairing")
    text = _csv([CLEAN[kind](), bad])
    assert len(failed_points(kind, 2, 0, text, None)) == 1


@pytest.mark.parametrize("kind, doctor", [
    ("simulate", {"tau_z_score": 10.0}),
    ("simulate", {"jensen_satisfied": "false"}),
    ("simulate", {"predicted_tau": 100.0 * 0.0013 * (1 + 1e-12)}),
    ("ensemble", {"mean_D": 1000.0 + 10 * math.sqrt(1000.0 / 10)}),
    ("ensemble", {"mean_D2": 5000.0 - 10 * math.sqrt(1.0e4 / 10)}),
    ("sweep", {"n_sum_pi_sq": 1.10 * 200000 * 9.0e6 / 1.0e12}),
    ("sweep", {"ED": ""}),
])
def test_doctored_row_fails(kind, doctor):
    text = _csv([CLEAN[kind](), dict(CLEAN[kind](), **doctor)])
    reasons = failed_points(kind, 2, 0, text, None)
    assert len(reasons) == 1 and reasons[0].startswith("row 1:")


def test_mismatched_bytes_fail():
    reference = _csv([_simulate_row(), _simulate_row()]).splitlines()[1:]
    changed = _csv([_simulate_row(), dict(_simulate_row(), tau_z_score=0.71)])
    reasons = failed_points("simulate", 2, 0, changed, reference)
    assert reasons == ["row 1: output bytes differ from an earlier run"]


def test_nonzero_exit_and_missing_rows_fail_every_point():
    text = _csv([_ensemble_row()])
    assert len(failed_points("ensemble", 2, 3, text, None)) == 2
    assert failed_points("ensemble", 2, 0, text, None) == ["row 1 missing"]
