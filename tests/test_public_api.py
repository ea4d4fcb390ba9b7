"""The demos' imports and the module attributes perfbench's tracer binds resolve."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: One tiny spec per CLI kind, each reaching the layers its kind traces.
TRACE_SPECS = {
    "analyze": {"graph": {"family": "gnp", "n": 50, "p": 0.1}},
    "simulate": {"graph": {"family": "random_regular", "n": [8, 12], "r": 3},
                 "sim": {"t_horizon": 10.0, "replicates": 200}},
    "ensemble": {"graph": {"family": "gnp", "n": 20, "p": 0.2},
                 "ensemble": {"replicates": 5}},
    "sweep": {"sweep": {"n": 100, "gamma": 2.5, "d": 3.0, "m": 10.0}},
}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # __name__ is not "__main__", so main() does not run
    assert callable(module.main)


@pytest.mark.parametrize("kind", TRACE_SPECS)
def test_perfbench_tracer_installs(kind, tmp_path):
    # The tracer rebinds module attributes such as harness.er_moments and
    # cli.emit; deleting or renaming one breaks every traced benchmark run.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": kind, "seed": 1, **TRACE_SPECS[kind]}),
                    encoding="utf-8")
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report), "trace", "--",
         kind, "--spec", str(spec), "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(report.read_text(encoding="utf-8"))["layers"]
    assert layers["generators.graphs"] > 0
    if kind == "simulate":
        assert layers["walk_sim.events"] > 0
