"""Tests for the experiment harness: spec parsing, grids, rows, emission, CLI."""

import hashlib
import json
import math
import re
from functools import partial

import numpy as np
import pytest

from coinwalk import generators
from coinwalk.cli import EXIT_IO, EXIT_OK, EXIT_PARTIAL, EXIT_SPEC, main
from coinwalk.generators import gen_complete, gen_expected_degree, uniform_weights
from coinwalk.graph_core import MAX_REPLICATES, MAX_VERTICES, build_graph
from coinwalk.harness import (
    COLUMNS,
    SpecError,
    emit,
    expand_grid,
    load_spec,
    parse_spec,
    run_experiment,
)
from coinwalk.rng import Stream, derive_seed
from coinwalk.walk_sim import SimConfig, simulate_pair


def spec_text(**overrides):
    doc = {
        "kind": "analyze",
        "seed": 7,
        "graph": {"family": "complete", "n": [2, 3, 4]},
    }
    doc.update(overrides)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_analyze():
    spec = parse_spec(spec_text())
    assert spec.kind == "analyze"
    assert spec.seed == 7
    assert spec.graph["family"] == "complete"
    assert spec.graph["n"] == [2, 3, 4]


def test_parse_reports_json_location():
    with pytest.raises(SpecError, match="line 1, column 9"):
        parse_spec('{"kind":!}')
    with pytest.raises(SpecError, match="JSON object"):
        parse_spec("[1, 2]")


def test_parse_rejects_unknown_fields():
    with pytest.raises(SpecError, match="unknown kind 'explore'"):
        parse_spec(spec_text(kind="explore"))
    with pytest.raises(SpecError, match="unknown key 'typo'"):
        parse_spec(spec_text(typo=1))
    with pytest.raises(SpecError, match="unknown key 'p' in 'graph' \\(complete\\)"):
        parse_spec(spec_text(graph={"family": "complete", "n": 4, "p": 0.5}))
    with pytest.raises(SpecError, match="unknown graph family"):
        parse_spec(spec_text(graph={"family": "lattice", "n": 4}))


def test_parse_seed_rules():
    with pytest.raises(SpecError, match="missing required key 'seed'"):
        parse_spec(json.dumps({"kind": "analyze",
                               "graph": {"family": "complete", "n": 2}}))
    with pytest.raises(SpecError, match="non-negative"):
        parse_spec(spec_text(seed=-1))
    with pytest.raises(SpecError, match="must be an integer"):
        parse_spec(spec_text(seed=True))
    with pytest.raises(SpecError, match="must be an integer"):
        parse_spec(spec_text(seed=1.5))
    # derive_seed works modulo 2**64, so seed 2**64 would replay seed 0
    assert parse_spec(spec_text(seed=2**64 - 1)).seed == 2**64 - 1
    with pytest.raises(SpecError, match="below 2\\*\\*64"):
        parse_spec(spec_text(seed=2**64))


def test_parse_rejects_non_finite_numbers(tmp_path, capsys):
    # json.loads accepts NaN and Infinity; the spec error names the key
    graph = {"family": "expected_degree", "n": 100, "gamma": 2.5, "d": 3.0, "m": 10.0}
    for key, token in (("gamma", "NaN"), ("d", "Infinity"), ("m", "-Infinity")):
        text = spec_text(graph={**graph, key: "@"}).replace('"@"', token)
        with pytest.raises(SpecError, match=f"graph.{key} must be finite"):
            parse_spec(text)
    (tmp_path / "nan.json").write_text(text, encoding="utf-8")
    assert main(["analyze", "--spec", str(tmp_path / "nan.json")]) == EXIT_SPEC
    assert "graph.m must be finite" in capsys.readouterr().err
    for key, token in (("t_horizon", "NaN"), ("beta", "Infinity")):
        sim = {"t_horizon": 1.0, "replicates": 10, key: "@"}
        text = spec_text(kind="simulate", sim=sim).replace('"@"', token)
        with pytest.raises(SpecError, match=f"sim.{key} must be finite"):
            parse_spec(text)


def test_cli_rejects_integers_beyond_the_float_range(tmp_path, capsys):
    # json.loads reads 1e400 written out as an exact int, which float() cannot hold
    huge = "1" + "0" * 400
    path = tmp_path / "huge.json"
    gnp = {"family": "gnp", "n": 5, "p": 0.5}
    for kind, doc, key in (
            ("analyze", {"graph": {**gnp, "p": "@"}}, "graph.p"),
            ("simulate", {"graph": gnp, "sim": {"t_horizon": "@", "replicates": 10}},
             "sim.t_horizon")):
        path.write_text(spec_text(kind=kind, **doc).replace('"@"', huge), encoding="utf-8")
        assert main([kind, "--spec", str(path)]) == EXIT_SPEC
        assert f"{key} must be finite, got an integer of 401 digits" in capsys.readouterr().err
    # past Python's int digit limit the JSON parser itself refuses the literal
    path.write_text(spec_text(graph={**gnp, "p": "@"}).replace('"@"', "1" * 5000),
                    encoding="utf-8")
    assert main(["analyze", "--spec", str(path)]) == EXIT_SPEC
    assert "spec is not valid JSON" in capsys.readouterr().err


def test_cli_refuses_vertex_counts_beyond_the_bound(tmp_path, capsys):
    # Unbounded, such an n overflowed float(n) in er_moments or math.sqrt(n * d)
    # in expand_grid and ended the CLI with a traceback.
    huge = "1" + "0" * 400
    path = tmp_path / "huge.json"
    for kind, doc, key in (
            ("analyze", {"graph": {"family": "gnp", "n": "@", "p": 0.5}}, "graph.n"),
            ("sweep", {"sweep": {"n": "@", "gamma": 2.5, "d": 3.0, "m": "sqrt_nd"}},
             "sweep.n")):
        text = json.dumps({"kind": kind, "seed": 1, **doc}).replace('"@"', huge)
        path.write_text(text, encoding="utf-8")
        assert main([kind, "--spec", str(path)]) == EXIT_SPEC
        assert f"{key} must be at most {MAX_VERTICES}" in capsys.readouterr().err


def test_cli_analyzes_large_complete_graphs_exactly(tmp_path, capsys):
    # D * max_degree passes 2**63 here; an int64 bound on it once ended
    # `analyze` in an OverflowError traceback
    n = 3_000_000
    path = tmp_path / "kn.json"
    path.write_text(json.dumps({"kind": "analyze", "seed": 1,
                                "graph": {"family": "complete", "n": n}}), encoding="utf-8")
    assert main(["analyze", "--spec", str(path), "--format", "json"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["D"], row["D2"]) == (n * (n - 1), n * (n - 1) * (n - 2))
    assert row["n_sum_pi_sq"] == 1.0 and row["error"] is None


#: (spec document with "@" where the count goes, key, bound of the count)
COUNTED_KEYS = [
    ({"kind": "simulate", "graph": {"family": "complete", "n": 4},
      "sim": {"t_horizon": 1.0, "replicates": "@"}}, "sim.replicates", MAX_REPLICATES),
    ({"kind": "ensemble", "graph": {"family": "complete", "n": 4},
      "ensemble": {"replicates": "@"}}, "ensemble.replicates", MAX_REPLICATES),
    ({"kind": "sweep", "sweep": {"n": 100, "gamma": 2.5, "d": 3.0, "m": 10.0,
                                 "seeds_per_point": "@"}}, "sweep.seeds_per_point",
     MAX_REPLICATES),
    ({"kind": "analyze", "graph": {"family": "random_regular", "n": 10, "r": "@"}},
     "graph.r", MAX_VERTICES),
    ({"kind": "analyze", "graph": {"family": "circulant", "n": 10, "k": "@"}},
     "graph.k", MAX_VERTICES),
]


@pytest.mark.parametrize("doc, key, bound", COUNTED_KEYS, ids=[c[1] for c in COUNTED_KEYS])
def test_cli_refuses_counts_beyond_their_bound(doc, key, bound, tmp_path, capsys):
    # Unbounded, a 401-digit count passed parsing and every grid point then
    # failed as an error row when numpy refused an array of that size.
    def spec(count):
        return json.dumps({"seed": 1, **doc}).replace('"@"', count)

    assert parse_spec(spec(str(bound)))  # the bound itself is allowed
    with pytest.raises(SpecError, match=f"{key} must be at most {bound}"):
        parse_spec(spec(str(bound + 1)))
    path = tmp_path / "huge.json"
    path.write_text(spec("1" + "0" * 400), encoding="utf-8")
    assert main([doc["kind"], "--spec", str(path)]) == EXIT_SPEC
    assert f"{key} must be at most {bound}, got 401 digits" in capsys.readouterr().err


def test_parse_graph_families():
    circ = parse_spec(spec_text(graph={"family": "circulant", "n": 9, "k": [1, 2]}))
    assert circ.graph["k"] == [1, 2]
    with pytest.raises(SpecError, match="missing required key 'k'"):
        parse_spec(spec_text(graph={"family": "circulant", "n": 9}))
    with pytest.raises(SpecError, match="must lie in \\[0, 1\\]"):
        parse_spec(spec_text(graph={"family": "gnp", "n": 9, "p": 1.5}))
    with pytest.raises(SpecError, match="at least 1"):
        parse_spec(spec_text(graph={"family": "complete", "n": 0}))
    with pytest.raises(SpecError, match="empty list"):
        parse_spec(spec_text(graph={"family": "complete", "n": []}))


def test_parse_expected_degree_variants():
    uni = parse_spec(spec_text(graph={"family": "expected_degree", "n": 8, "w": 2.0}))
    assert uni.graph["w"] == [2.0]
    assert "strict" not in uni.graph  # an omitted flag takes GenSpec's default
    plaw = parse_spec(spec_text(graph={
        "family": "expected_degree", "n": [100, 1000], "gamma": 2.5, "d": 5,
        "m": "sqrt_nd", "strict": False}))
    assert plaw.graph["m"] == ["sqrt_nd"]
    assert plaw.graph["strict"] is False
    with pytest.raises(SpecError, match="not both"):
        parse_spec(spec_text(graph={"family": "expected_degree", "n": 8,
                                    "w": 2.0, "gamma": 3.0}))
    with pytest.raises(SpecError, match="needs 'w' or"):
        parse_spec(spec_text(graph={"family": "expected_degree", "n": 8}))
    with pytest.raises(SpecError, match="must exceed 2"):
        parse_spec(spec_text(graph={"family": "expected_degree", "n": 8,
                                    "gamma": 2.0, "d": 2, "m": 4}))


def test_parse_sim_block():
    doc = {"kind": "simulate", "seed": 1,
           "graph": {"family": "complete", "n": 4},
           "sim": {"t_horizon": 10.0, "replicates": 100}}
    spec = parse_spec(json.dumps(doc))
    assert spec.sim == {"t_horizon": 10.0, "beta": 0.0, "replicates": 100}
    doc["sim"]["replicates"] = 1
    with pytest.raises(SpecError, match="at least 2"):
        parse_spec(json.dumps(doc))
    del doc["sim"]["t_horizon"]
    doc["sim"]["replicates"] = 10
    with pytest.raises(SpecError, match="missing required key 't_horizon'"):
        parse_spec(json.dumps(doc))
    doc["sim"] = {"t_horizon": 1.0, "replicates": 10, "warmup": 5}
    with pytest.raises(SpecError, match="unknown key 'warmup'"):
        parse_spec(json.dumps(doc))


def test_parse_kind_key_cross_validation():
    with pytest.raises(SpecError, match="'sim' is not valid for kind 'analyze'"):
        parse_spec(spec_text(sim={"t_horizon": 1.0, "replicates": 10}))
    with pytest.raises(SpecError, match="'sweep' is not valid for kind 'analyze'"):
        parse_spec(spec_text(sweep={"n": 10, "gamma": 2.5, "d": 5, "m": 20}))
    with pytest.raises(SpecError, match="'ensemble' is not valid"):
        parse_spec(spec_text(ensemble={"replicates": 10}))
    doc = {"kind": "sweep", "seed": 0,
           "sweep": {"n": 100, "gamma": 2.5, "d": 5.0, "m": "sqrt_nd"},
           "graph": {"family": "complete", "n": 4}}
    with pytest.raises(SpecError, match="'graph' is not valid for kind 'sweep'"):
        parse_spec(json.dumps(doc))


def test_parse_ensemble_block():
    doc = {"kind": "ensemble", "seed": 3,
           "graph": {"family": "expected_degree", "n": 4, "w": 2.0},
           "ensemble": {"replicates": 500}}
    assert parse_spec(json.dumps(doc)).ensemble_replicates == 500
    doc["ensemble"]["replicates"] = 1
    with pytest.raises(SpecError, match="at least 2"):
        parse_spec(json.dumps(doc))


def test_parse_rejects_output_block():
    # Output path and format are set by the --out and --format flags alone.
    with pytest.raises(SpecError, match="unknown key 'output' in spec"):
        parse_spec(spec_text(output={"path": "out.csv", "format": "json"}))


def test_uniform_weights_respect_the_vertex_bound():
    n = MAX_VERTICES + 1
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        gen_expected_degree(uniform_weights(n, 1e-6), 1)
    doc = {"kind": "analyze", "seed": 1,
           "graph": {"family": "expected_degree", "n": n, "w": 1e-6}}
    with pytest.raises(SpecError, match=f"graph.n must be at most {MAX_VERTICES}"):
        parse_spec(json.dumps(doc))


# ---------------------------------------------------------------------------
# grid expansion


def test_expand_grid_order():
    spec = parse_spec(spec_text(graph={"family": "gnp", "n": [10, 20],
                                       "p": [0.1, 0.2, 0.3]}))
    points = expand_grid(spec)
    assert [(pt["n"], pt["p"]) for pt in points] == [
        (10, 0.1), (10, 0.2), (10, 0.3), (20, 0.1), (20, 0.2), (20, 0.3)]


def test_expand_grid_resolves_sqrt_nd():
    doc = {"kind": "sweep", "seed": 0,
           "sweep": {"n": [100, 400], "gamma": 2.5, "d": 4.0, "m": "sqrt_nd"}}
    points = expand_grid(parse_spec(json.dumps(doc)))
    assert points[0]["m"] == pytest.approx(20.0)
    assert points[1]["m"] == pytest.approx(40.0)


# ---------------------------------------------------------------------------
# execution


def test_run_analyze_exact_values():
    rows = run_experiment(parse_spec(spec_text()))
    assert [row.row for row in rows] == [0, 1, 2]
    for row, n in zip(rows, (2, 3, 4)):
        assert row.kind == "analyze" and row.family == "complete"
        assert row.n == n
        assert row.seed == derive_seed(7, row.row)
        assert row.edges == n * (n - 1) // 2
        assert row.self_loops == 0
        assert row.sum_pi_sq == pytest.approx(1.0 / n, rel=1e-15)
        assert row.n_sum_pi_sq == pytest.approx(1.0, rel=1e-15)
        assert row.connected is True
        assert row.error is None
        assert row.wall_time_s is not None


def test_run_is_jobs_invariant(monkeypatch):
    # sweep and ensemble jobs draw their points at once, each thread in its
    # own pair-sampler workspace; a small chunk makes each walk many chunks
    monkeypatch.setattr(generators, "_CHUNK", 1024)
    text = spec_text(graph={"family": "gnp", "n": [30, 40, 50], "p": [0.1, 0.2]})
    sweep = json.dumps({"kind": "sweep", "seed": 7, "sweep": {
        "n": 20000, "gamma": [2.2, 2.5, 3.0, 3.5], "d": 5, "m": "sqrt_nd",
        "seeds_per_point": 2, "strict": False}})
    ensemble = spec_text(kind="ensemble", ensemble={"replicates": 10}, graph={
        "family": "expected_degree", "n": [2000, 3000, 4000], "gamma": [2.5, 3.0], "d": 5,
        "m": "sqrt_nd", "strict": False})
    for doc in (text, sweep, ensemble):
        seq = run_experiment(parse_spec(doc), jobs=1)
        par = run_experiment(parse_spec(doc), jobs=4)
        for a, b in zip(seq, par):
            assert a.error is None
            a.wall_time_s = b.wall_time_s = None
            assert a == b
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(parse_spec(text), jobs=0)


def test_run_gnp_rows_carry_er_moments():
    rows = run_experiment(parse_spec(spec_text(
        graph={"family": "gnp", "n": 50, "p": 0.1})))
    row = rows[0]
    assert row.ED == pytest.approx(250.0)
    assert row.VarD == pytest.approx(99 * 50 * 0.1 * 0.9)
    assert row.ED2 == pytest.approx(50**2 * 49 * 0.01)


def test_run_error_rows_do_not_abort():
    # middle point invalid: circulant needs n >= 2k + 1
    rows = run_experiment(parse_spec(spec_text(
        graph={"family": "circulant", "n": [9, 4, 11], "k": 2})))
    assert rows[0].error is None and rows[2].error is None
    assert "n >= 2k + 1" in rows[1].error
    assert rows[1].edges is None


def test_run_simulate_fields():
    doc = {"kind": "simulate", "seed": 11,
           "graph": {"family": "complete", "n": 4},
           "sim": {"t_horizon": 8.0, "beta": 0.5, "replicates": 200}}
    row = run_experiment(parse_spec(json.dumps(doc)))[0]
    assert row.t_horizon == 8.0 and row.beta == 0.5 and row.replicates == 200
    assert row.predicted_tau == pytest.approx(2.0, rel=1e-12)
    assert row.gamma_upper == pytest.approx(-math.expm1(-1.0), rel=1e-12)
    assert row.mean_tau > 0 and row.stderr_tau > 0
    assert row.tau_z_score == pytest.approx(
        abs(row.mean_tau - row.predicted_tau) / row.stderr_tau, rel=1e-12)
    assert row.jensen_satisfied in (True, False)
    # same spec, same bytes-level results
    again = run_experiment(parse_spec(json.dumps(doc)))[0]
    assert again.mean_tau == row.mean_tau


def test_run_ensemble_fields():
    doc = {"kind": "ensemble", "seed": 4,
           "graph": {"family": "expected_degree", "n": 4, "w": 2.0},
           "ensemble": {"replicates": 400}}
    row = run_experiment(parse_spec(json.dumps(doc)))[0]
    assert row.ens_replicates == 400
    assert row.ED == pytest.approx(8.0) and row.ED2 == pytest.approx(12.0)
    assert abs(row.mean_D - 8.0) < 4 * math.sqrt(7.0 / 400)
    assert row.var_D == pytest.approx(7.0, rel=0.5)


def test_run_sweep_fields():
    doc = {"kind": "sweep", "seed": 2,
           "sweep": {"n": [200, 400], "gamma": [2.5, 3.5], "d": 4.0,
                     "m": "sqrt_nd", "seeds_per_point": 3, "strict": False}}
    rows = run_experiment(parse_spec(json.dumps(doc)))
    assert len(rows) == 4
    assert [(row.n, row.gamma) for row in rows] == [
        (200, 2.5), (200, 3.5), (400, 2.5), (400, 3.5)]
    for row in rows:
        assert row.error is None
        assert row.seeds_per_point == 3
        assert row.n_sum_pi_sq > 1.0
        assert row.sd_n_sum_pi_sq >= 0.0
        assert row.m == pytest.approx(math.sqrt(row.n * 4.0))
        assert row.regime == ("gamma_below_3" if row.gamma == 2.5 else "gamma_above_3")
        assert row.ED is not None and row.VarD is not None


def test_run_sweep_strict_default_errors_at_boundary():
    # at m = sqrt(n*d) the finite-n weight total falls below m^2, so the
    # strict default refuses closed forms and the row reports the error
    doc = {"kind": "sweep", "seed": 2,
           "sweep": {"n": 200, "gamma": 2.5, "d": 4.0, "m": "sqrt_nd"}}
    row = run_experiment(parse_spec(json.dumps(doc)))[0]
    assert row.error is not None and "strict=False" in row.error


# ---------------------------------------------------------------------------
# emission


def test_emit_csv_shape_and_determinism(tmp_path):
    rows = run_experiment(parse_spec(spec_text()))
    text = emit(rows, fmt="csv")
    lines = text.split("\n")
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 5 and lines[-1] == ""
    assert "wall_time_s" not in text
    assert emit(rows, fmt="csv") == text
    out = tmp_path / "rows.csv"
    emit(rows, fmt="csv", path=str(out))
    assert out.read_text(encoding="utf-8") == text


def test_emit_cell_conventions():
    rows = run_experiment(parse_spec(spec_text(
        graph={"family": "complete", "n": 1000})))
    text = emit(rows, fmt="csv")
    body = text.split("\n")[1].split(",")
    cells = dict(zip(COLUMNS, body))
    assert cells["sum_pi_sq"] == "0.001"  # repr of the exact float
    assert cells["connected"] == "true"
    assert cells["error"] == ""
    assert cells["t_horizon"] == ""
    # every float cell round-trips exactly
    row = rows[0]
    assert float(cells["sum_pi_sq"]) == row.sum_pi_sq


def test_emit_json_round_trip():
    rows = run_experiment(parse_spec(spec_text()))
    records = json.loads(emit(rows, fmt="json"))
    assert len(records) == 3
    assert list(records[0].keys()) == list(COLUMNS)
    assert records[0]["n"] == 2
    assert records[0]["connected"] is True
    assert records[0]["error"] is None


def simulate_spec(t_horizon):
    return spec_text(kind="simulate", graph={"family": "random_regular", "n": 1000, "r": 3},
                     sim={"t_horizon": t_horizon, "replicates": 2})


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def test_emit_json_writes_non_finite_floats_as_their_csv_cells():
    # Neither replicate coincides in so short a run, so the standard error
    # is 0 while the mean misses the positive prediction: the z-score is inf.
    rows = run_experiment(parse_spec(simulate_spec(0.01)))
    assert rows[0].tau_z_score == math.inf
    cells = dict(zip(COLUMNS, emit(rows, fmt="csv").split("\n")[1].split(",")))
    records = strict_json(emit(rows, fmt="json"))
    assert records[0]["tau_z_score"] == cells["tau_z_score"] == "inf"
    assert records[0]["mean_tau"] == 0.0


def test_zero_horizon_gives_zero_z_score():
    # tau is 0 on every replicate and the prediction is 0 too: no error at all
    rows = run_experiment(parse_spec(simulate_spec(0)))
    assert rows[0].stderr_tau == 0.0
    assert rows[0].tau_z_score == 0.0
    assert strict_json(emit(rows, fmt="json"))[0]["tau_z_score"] == 0.0


def test_emit_validation():
    with pytest.raises(ValueError, match="no rows"):
        emit([], fmt="csv")
    rows = run_experiment(parse_spec(spec_text()))
    with pytest.raises(ValueError, match="format"):
        emit(rows, fmt="tsv")


# ---------------------------------------------------------------------------
# CLI


def write_spec(tmp_path, name="spec.json", **overrides):
    path = tmp_path / name
    path.write_text(spec_text(**overrides), encoding="utf-8")
    return str(path)


def test_cli_analyze_stdout(tmp_path, capsys):
    path = write_spec(tmp_path)
    assert main(["analyze", "--spec", path]) == EXIT_OK
    first = capsys.readouterr().out
    assert first.startswith(",".join(COLUMNS))
    assert main(["analyze", "--spec", path]) == EXIT_OK
    assert capsys.readouterr().out == first
    assert main(["analyze", "--spec", path, "--jobs", "8"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_cli_kind_mismatch(tmp_path, capsys):
    path = write_spec(tmp_path)
    assert main(["simulate", "--spec", path]) == EXIT_SPEC
    assert "does not match subcommand" in capsys.readouterr().err


def test_cli_invalid_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["analyze", "--spec", str(bad)]) == EXIT_SPEC
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["analyze", "--spec", str(tmp_path / "missing.json")]) == EXIT_IO


def test_cli_rejects_a_spec_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"kind": "analyze"}')
    assert main(["analyze", "--spec", str(bad)]) == EXIT_SPEC
    assert "spec is not UTF-8 text" in capsys.readouterr().err


def test_cli_ensemble_of_empty_gnp_graphs(tmp_path, capsys):
    # p = 0 is a valid G(n, p): every graph is empty and every moment is 0
    path = write_spec(tmp_path, kind="ensemble", seed=1, graph={"family": "gnp", "n": 5, "p": 0},
                      ensemble={"replicates": 3})
    assert main(["ensemble", "--spec", path, "--format", "json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)[0]
    for key in ("ED", "VarD", "ED2", "VarD2_bound", "mean_D"):
        assert record[key] == 0.0, key


def test_cli_seed_override_changes_rows(tmp_path, capsys):
    path = write_spec(tmp_path, graph={"family": "gnp", "n": 40, "p": 0.2})
    main(["analyze", "--spec", path])
    base = capsys.readouterr().out
    main(["analyze", "--spec", path, "--seed", "7"])
    assert capsys.readouterr().out == base  # spec seed is already 7
    main(["analyze", "--spec", path, "--seed", "8"])
    assert capsys.readouterr().out != base
    assert main(["analyze", "--spec", path, "--seed", "-3"]) == EXIT_SPEC
    assert main(["analyze", "--spec", path, "--seed", str(2**64)]) == EXIT_SPEC
    assert f"below 2**64, got {2**64}" in capsys.readouterr().err


def test_cli_partial_failure_exit(tmp_path, capsys):
    path = write_spec(tmp_path, graph={"family": "circulant", "n": [4, 9], "k": 2})
    assert main(["analyze", "--spec", path]) == EXIT_PARTIAL
    captured = capsys.readouterr()
    assert "1 of 2 grid points failed" in captured.err
    assert captured.out.count("\n") == 3


def test_cli_output_file_and_format(tmp_path, capsys):
    path = write_spec(tmp_path)
    out = tmp_path / "res.json"
    assert main(["analyze", "--spec", path, "--out", str(out),
                 "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text(encoding="utf-8"))[0]["kind"] == "analyze"
    missing_dir = tmp_path / "nope" / "res.csv"
    assert main(["analyze", "--spec", path, "--out", str(missing_dir)]) == EXIT_IO
    # Only the flags say where the output goes; a spec's output block is an error.
    spec_out = tmp_path / "spec_out.csv"
    path = write_spec(tmp_path, output={"path": str(spec_out)})
    assert main(["analyze", "--spec", path]) == EXIT_SPEC
    assert "unknown key 'output'" in capsys.readouterr().err
    assert not spec_out.exists()


def test_cli_jobs_flag(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path)
    assert main(["analyze", "--spec", path]) == EXIT_OK
    base = capsys.readouterr().out
    assert main(["analyze", "--spec", path, "--jobs", "4"]) == EXIT_OK
    assert capsys.readouterr().out == base
    assert main(["analyze", "--spec", path, "--jobs", "0"]) == EXIT_SPEC
    assert "jobs must be at least 1" in capsys.readouterr().err
    # The worker count comes from the flag alone; the environment is not read.
    monkeypatch.setenv("COINWALK_JOBS", "nope")
    assert main(["analyze", "--spec", path]) == EXIT_OK
    assert capsys.readouterr().out == base


def test_cli_predict(capsys):
    assert main(["predict", "--gamma", "2.5", "--d", "5", "--m", "500"]) == EXIT_OK
    out = capsys.readouterr().out
    line = out.split("\n")[1].split(",")
    cells = dict(zip(COLUMNS, line))
    assert cells["kind"] == "predict"
    assert cells["regime"] == "gamma_below_3"
    assert cells["growth_exponent_in_md"] == "0.5"
    assert main(["predict", "--gamma", "1.5", "--d", "5", "--m", "500"]) == EXIT_SPEC
    capsys.readouterr()
    for gamma, d, m in (("nan", "5", "500"), ("2.5", "nan", "500"), ("2.5", "5", "inf")):
        assert main(["predict", "--gamma", gamma, "--d", d, "--m", m]) == EXIT_SPEC
        assert "must be finite" in capsys.readouterr().err


#: (input, the message it is refused with).  A callable must raise a
#: ValueError; a spec document goes through the CLI, which must exit 2.
REJECTIONS = [
    (partial(parse_spec, spec_text(graph={"family": "gnp", "n": 5, "p": "half"})),
     "graph.p must be a number"),
    (partial(parse_spec, spec_text(graph={"family": "gnp", "n": 5, "p": 0.5,
                                          "require_connected": "yes"})),
     "graph.require_connected must be true or false"),
    (partial(parse_spec, spec_text(graph={"family": "expected_degree", "n": 5, "w": 0})),
     "graph.w must be positive"),
    (partial(parse_spec, spec_text(graph=[])), "'graph' must be an object"),
    (partial(parse_spec, json.dumps({"kind": "sweep", "seed": 1, "sweep": []})),
     "'sweep' must be an object"),
    (partial(parse_spec, spec_text(kind="simulate", sim=[])), "'sim' must be an object"),
    (partial(parse_spec, spec_text(kind="ensemble", ensemble=[])),
     "'ensemble' must be an object"),
    ({"kind": "simulate", "seed": 1, "graph": {"family": "complete", "n": 4},
      "sim": {"t_horizon": -1.0, "replicates": 10}},
     "sim.t_horizon must be non-negative"),
    (partial(parse_spec, spec_text(kind="simulate",
                                   sim={"t_horizon": 1.0, "beta": -0.5, "replicates": 10})),
     "sim.beta must be non-negative"),
    (partial(parse_spec, spec_text(description=5)), "description must be a string"),
    # unhashable kinds and families once ended the CLI in a TypeError, exit 1
    (partial(parse_spec, spec_text(kind=["analyze"])), "unknown kind ['analyze']"),
    (partial(parse_spec, spec_text(kind={"analyze": 1})), "unknown kind {'analyze': 1}"),
    ({"kind": "analyze", "seed": 1, "graph": {"family": ["gnp"], "n": 3, "p": 0.5}},
     "unknown graph family ['gnp']"),
    (partial(parse_spec, spec_text(graph={"family": {"gnp": 1}, "n": 3})),
     "unknown graph family {'gnp': 1}"),
    (partial(build_graph, 3, [(0, 1, 2)]), "edges must be pairs"),
    (partial(Stream(1).uniforms, -1), "size must be non-negative"),
    (partial(SimConfig, t_horizon=1.0, master_seed=-1), "master_seed must be non-negative"),
    (partial(simulate_pair, gen_complete(3), -1.0, 0.0, 1), "t_horizon must be non-negative"),
]


@pytest.mark.parametrize("given, message", REJECTIONS, ids=[m for _, m in REJECTIONS])
def test_invalid_input_is_refused(given, message, tmp_path, capsys):
    if isinstance(given, dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(given), encoding="utf-8")
        assert main([given["kind"], "--spec", str(path)]) == EXIT_SPEC
        assert message in capsys.readouterr().err
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            given()


# ---------------------------------------------------------------------------
# golden spec errors

#: Valid specs, every kind and graph family among them, that the corpus breaks.
VALID_SPECS = [
    {"kind": "analyze", "seed": 7, "graph": {"family": "complete", "n": [2, 5]}},
    {"kind": "analyze", "seed": 7, "graph": {"family": "circulant", "n": 9, "k": [1, 2]}},
    {"kind": "analyze", "seed": 7, "graph": {"family": "random_regular", "n": 8, "r": 3}},
    {"kind": "analyze", "seed": 7,
     "graph": {"family": "gnp", "n": 10, "p": 0.5, "require_connected": True}},
    {"kind": "simulate", "seed": 7,
     "graph": {"family": "expected_degree", "n": 10, "w": 2.0, "allow_self_loops": False},
     "sim": {"t_horizon": 5.0, "beta": 0.5, "replicates": 10}},
    {"kind": "ensemble", "seed": 7, "description": "corpus",
     "graph": {"family": "expected_degree", "n": 100, "gamma": 2.5, "d": 3, "m": "sqrt_nd",
               "strict": False},
     "ensemble": {"replicates": 10}},
    {"kind": "sweep", "seed": 7,
     "sweep": {"n": [100, 200], "gamma": 2.5, "d": 4.0, "m": "sqrt_nd", "seeds_per_point": 2,
               "allow_self_loops": True, "strict": False}},
]

#: Keys a fault may set inside a block, known ones and an unknown one.
BLOCK_KEYS = ("family", "n", "k", "r", "p", "gamma", "d", "m", "w", "allow_self_loops",
              "require_connected", "strict", "t_horizon", "beta", "replicates",
              "seeds_per_point", "bogus")

#: Values a fault puts at a key: wrong types, out-of-range and in-range
#: values; DROP removes the key instead.
DROP = object()
BAD_VALUES = (DROP, None, True, -1, 0, 1, 3, 10**20, -0.5, 0.5, 2.5, float("inf"), "x",
              "sqrt_nd", "gnp", "analyze", [], [1, "a"], [0.5, 2], {}, {"gnp": 1}, ["gnp"])


def fault_sites(doc):
    """Paths a fault may change: each top-level key, and each block key of each block."""
    top = [(key,) for key in ("kind", "seed", "description", "graph", "sweep", "sim",
                              "ensemble", "bogus")]
    return top + [(block, key) for block in ("graph", "sweep", "sim", "ensemble")
                  if block in doc for key in BLOCK_KEYS]


def with_faults(doc, faults):
    """A copy of doc with each (path, value) fault applied, where its path still leads."""
    doc = json.loads(json.dumps(doc))
    for path, value in faults:
        *parents, key = path
        target = doc
        for name in parents:
            target = target.get(name) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            continue
        if value is DROP:
            target.pop(key, None)
        else:
            target[key] = json.loads(json.dumps(value))  # a fault may edit it later
    return json.dumps(doc)


def spec_error_corpus():
    """Every one-fault spec of VALID_SPECS, and one two-fault spec per fault."""
    for doc in VALID_SPECS:
        faults = [(path, value) for path in fault_sites(doc) for value in BAD_VALUES]
        for i, fault in enumerate(faults):
            yield with_faults(doc, [fault])
            yield with_faults(doc, [fault, faults[(37 * i + 11) % len(faults)]])


def spec_outcome(text):
    try:
        parse_spec(text)
    except SpecError as exc:
        return str(exc)
    return "valid"


SPEC_ERRORS_SHA256 = "904b58ea57805c610b6a7d23e98f072d5abc0105105b65653409dd1780de7eaa"


def test_spec_errors_match_golden_hash():
    """The SpecError text of every spec in the corpus is pinned.

    A parser change that keeps behaviour keeps this hash; one that changes
    which check fires first, or a message, changes it.  An exception other
    than SpecError fails the test outright.
    """
    outcomes = [spec_outcome(text) for text in spec_error_corpus()]
    assert len(outcomes) > 5000 and outcomes.count("valid") < len(outcomes) // 10
    digest = hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()
    assert digest == SPEC_ERRORS_SHA256


# ---------------------------------------------------------------------------
# golden output bytes

#: (subcommand, spec or predict flags) -> sha256 of (CSV, JSON) stdout.
GOLDEN = {
    "analyze-complete": (
        "analyze", {"kind": "analyze", "seed": 5,
                    "graph": {"family": "complete", "n": [2, 5]}}),
    "analyze-circulant": (
        "analyze", {"kind": "analyze", "seed": 5,
                    "graph": {"family": "circulant", "n": [4, 9], "k": [1, 2]}}),
    "analyze-gnp-connected": (
        "analyze", {"kind": "analyze", "seed": 6,
                    "graph": {"family": "gnp", "n": [12, 30], "p": [0.25, 0.5],
                              "require_connected": True}}),
    "analyze-expected-degree-sqrt-nd": (
        "analyze", {"kind": "analyze", "seed": 9,
                    "graph": {"family": "expected_degree", "n": [50, 200],
                              "gamma": [2.5, 3.0], "d": 3, "m": "sqrt_nd",
                              "strict": False}}),
    "simulate-random-regular": (
        "simulate", {"kind": "simulate", "seed": 3,
                     "graph": {"family": "random_regular", "n": [8, 12], "r": 3},
                     "sim": {"t_horizon": 5.0, "beta": 0.5, "replicates": 200}}),
    "ensemble-expected-degree-w": (
        "ensemble", {"kind": "ensemble", "seed": 4,
                     "graph": {"family": "expected_degree", "n": [6, 10], "w": [1.0, 2.5],
                               "allow_self_loops": False},
                     "ensemble": {"replicates": 40}}),
    "sweep-sqrt-nd": (
        "sweep", {"kind": "sweep", "seed": 2,
                  "sweep": {"n": [100, 300], "gamma": [2.5, 3.5], "d": 4.0,
                            "m": "sqrt_nd", "seeds_per_point": 2, "strict": False}}),
    "predict": ("predict", ["--gamma", "2.5", "--d", "5", "--m", "500"]),
}

GOLDEN_SHA256 = {
    "analyze-complete": (
        "6282286d31c7fd467629f6bdab7cf00f9f48d4f113ef3e97b6c0d50befb8fde7",
        "6bf01fb0d1b302845dd90e2ef39d5b45ffacc0bc8df40478a39a86ef49e9ba52"),
    "analyze-circulant": (
        "f7a3e03b37e4515a2eaee94139b277bbdf6563e9be38509a47a8da5cab7f751b",
        "32758ae3de6327879a4cd64e602c4cd3f71157b3cc8cfd4a5497b0a144d4adbd"),
    "analyze-gnp-connected": (
        "92bca53c0ccb3a4df37b37c3222675ad35c825bd51ba384be8ee346692cee065",
        "7446226c6b114f2a6e1dd05d070d3efe0a34989c19dc78ef6350c02615944200"),
    "analyze-expected-degree-sqrt-nd": (
        "bc20acc30e5b697dcaf42ea6f1bad9c19a548c57d0c8471bbe93f7db21251a3a",
        "806f6032b624817e1ecb067962215b8165c54617926f281528328845302c2c2c"),
    "simulate-random-regular": (
        "8e29d2ed14578a9108b2e53dc96a4b5d644c1cb5b183182cde304607d36f3869",
        "d5bfb4325245bc2248f4cf2b77ba7e846ccd1fc595d466e31056283a17dc7e52"),
    "ensemble-expected-degree-w": (
        "132f161d7e6430d61bfddb4c1cc382f6c0ec2d8e83582845253df81210486222",
        "95fa57028a280e00959365071a2ab1594dc555ec885233c4a5c009a6eacf7014"),
    "sweep-sqrt-nd": (
        "3205c039d95fd1eb5c8f2ee78fac9ea1b6340bfde30099bab72bbb14073226a0",
        "c45f591693c700a8a351b862502e24f82723672f976e1f17e63cc8c12b4acbbd"),
    "predict": (
        "660337ec2c9ea395b806959217b3763b607dfa20cfa89414fb233e8aa180ac83",
        "65145c9c328187e26401c6bf3116115c6a40be42b79f9804e71784236b0d51ef"),
}


def test_cli_output_matches_golden_hashes(tmp_path, capsys):
    """CLI output bytes for tiny specs of every kind and format are pinned.

    These hashes change only when a change states in CHANGES.md that it
    alters the random-stream layout or a formula; any other difference in
    the emitted bytes is a regression.
    """
    got = {}
    for name, (command, args) in GOLDEN.items():
        if command != "predict":
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(args), encoding="utf-8")
            args = ["--spec", str(path)]
        hashes = []
        for fmt in ("csv", "json"):
            main([command, *args, "--format", fmt])
            out = capsys.readouterr().out
            hashes.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        got[name] = tuple(hashes)
    assert got == GOLDEN_SHA256
