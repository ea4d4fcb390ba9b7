"""Output checks for the benchmark's coinwalk runs.

Each check holds for any exact sampler and walker engine, not just for the
current random-stream layout: the realized statistics are compared with
their closed-form expectations within ``Z_MAX`` standard errors, where the
standard errors come from the variances the same row reports.

A grid point fails when its row carries an error, when its row fails the
check for its kind, or when its row's bytes differ from the same row of
another run of the same code.  A run that exits non-zero fails every point.
"""

from __future__ import annotations

import csv
import io
import math

#: Standard errors a realized statistic may sit from its expectation.
Z_MAX = 5.0


def parse_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(row: dict[str, str], key: str) -> float:
    cell = row.get(key, "")
    if cell == "":
        raise KeyError(key)
    return float(cell)


def _check_sweep(row: dict[str, str]) -> str | None:
    """n * sum(pi^2) against n (ED2 + ED) / ED^2, by the delta method."""
    n, seeds = _num(row, "n"), _num(row, "seeds_per_point")
    ed, var_d = _num(row, "ED"), _num(row, "VarD")
    ed2, var_d2 = _num(row, "ED2"), _num(row, "VarD2_bound")
    expected = n * (ed2 + ed) / (ed * ed)
    sd_numerator = math.sqrt(var_d2) + math.sqrt(var_d)
    rel_se = (sd_numerator / (ed2 + ed) + 2.0 * math.sqrt(var_d) / ed) / math.sqrt(seeds)
    rel_err = abs(_num(row, "n_sum_pi_sq") / expected - 1.0)
    if rel_err > Z_MAX * rel_se:
        return (f"n_sum_pi_sq off its expectation {expected:.6g} by {rel_err:.3%}, "
                f"more than {Z_MAX:g} SE ({Z_MAX * rel_se:.3%})")
    return None


def _check_ensemble(row: dict[str, str]) -> str | None:
    reps = _num(row, "ens_replicates")
    for mean_key, exp_key, var_key in (("mean_D", "ED", "VarD"),
                                       ("mean_D2", "ED2", "VarD2_bound")):
        se = math.sqrt(_num(row, var_key) / reps)
        z = abs(_num(row, mean_key) - _num(row, exp_key)) / se if se > 0 else math.inf
        if z > Z_MAX:
            return f"{mean_key} is {z:.2f} SE from {exp_key}"
    return None


def _check_simulate(row: dict[str, str]) -> str | None:
    z = _num(row, "tau_z_score")
    if z > Z_MAX:
        return f"tau_z_score {z:.2f} exceeds {Z_MAX:g}"
    if row.get("jensen_satisfied") != "true":
        return "mean infection probability breaks the Jensen bound"
    if _num(row, "predicted_tau") != _num(row, "t_horizon") * _num(row, "sum_pi_sq"):
        return "predicted_tau differs from t_horizon * sum_pi_sq"
    return None


CHECKS = {"sweep": _check_sweep, "ensemble": _check_ensemble, "simulate": _check_simulate}


def check_row(kind: str, row: dict[str, str]) -> str | None:
    """Why this row fails, or None when it passes."""
    if row.get("error"):
        return f"error: {row['error']}"
    try:
        return CHECKS[kind](row)
    except (KeyError, ValueError) as exc:
        return f"missing or malformed column {exc}"


def failed_points(kind: str, points: int, code: int, text: str,
                  reference: list[str] | None) -> list[str]:
    """One reason per failed grid point of one run.

    ``reference`` holds the data lines of an earlier run of the same spec
    and code, or None for the first run.
    """
    if code != 0:
        return [f"exit code {code}"] * points
    lines = text.splitlines()[1:]
    rows = parse_rows(text)
    reasons = []
    for i in range(points):
        if i >= len(rows):
            reasons.append(f"row {i} missing")
            continue
        reason = check_row(kind, rows[i])
        if reason is None and reference is not None and (
                i >= len(reference) or lines[i] != reference[i]):
            reason = "output bytes differ from an earlier run"
        if reason is not None:
            reasons.append(f"row {i}: {reason}")
    return reasons
