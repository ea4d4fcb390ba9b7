"""coinwalk benchmark: fixed CLI specs, closed loop, one fresh interpreter per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_powerlaw --seed 1 --seconds 40 --trace 0

One client runs one spec at a time: each invocation of the ``coinwalk`` CLI
starts only after the previous one has exited.  Invocations repeat until
``--seconds`` would be exceeded (at least ``MIN_RUNS``).  Invocation i passes
the CLI ``--seed`` ``SEED * 1000 + max(0, i - 1)``: the first two share a seed
and must write the same bytes, and the later ones spread the run over
several inputs, because the cost of one input depends on its seed (random
regular graphs are drawn by rejection).

``--trace 0`` reports the end-to-end metrics (medians over invocations);
before each invocation it also starts ``SETUP_PROBES`` interpreters that
stop once the grid is expanded, as extra ``setup_s`` samples.
``--trace 1`` makes the first invocation untraced and the rest traced, and
reports the per-layer metrics of the traced ones plus the tracing overhead
(the second invocation, traced, against the first on the same input).  The
last line of standard output is one JSON object; the lines before it give
every metric with its median, tail percentile and sample count, the
environment, and each invocation's output sha256.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch files of this process; a second run in the same checkout keeps
#: its own directory.
WORK = ROOT / ".perfbench_work" / str(os.getpid())

#: Fewest invocations a run makes, even when they overrun ``--seconds``.
MIN_RUNS = 3

#: CLI seeds of one run are SEED * SEED_STRIDE + j.
SEED_STRIDE = 1000

#: Set-up-only invocations before each untraced invocation; each adds a
#: setup_s sample without running the grid.
SETUP_PROBES = 2

#: Counted from process start, a run starts no invocation that would end
#: after HARD_LIMIT_S and kills one still running at KILL_AFTER_S, so it
#: exits well inside the 180 s a benchmark run may take.
HARD_LIMIT_S = 150.0
KILL_AFTER_S = 170.0

STARTED = time.monotonic()

#: Each CLI process computes on one thread: one job, and no BLAS threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    command: str
    spec: dict
    points: int
    graphs: int
    replicates: int


WORKLOADS = {
    # The paper's phase sweep of n * sum(pi^2) across gamma.  n is above
    # SCAN_LIMIT, so the pure-Python Chung-Lu skip loop does most of the
    # work.  One job: with two, the jobs contend for the interpreter lock on
    # both cores and run_s spread too widely from run to run on a 2-core VM.
    "sweep_powerlaw": Workload(
        command="sweep",
        spec={"kind": "sweep", "seed": 0, "sweep": {
            "n": 200000, "gamma": [2.2, 2.5, 3.0, 3.5], "d": 5, "m": "sqrt_nd",
            "seeds_per_point": 2, "strict": False}},
        points=4, graphs=8, replicates=8),
    # D2 concentration over graph ensembles.  Below SCAN_LIMIT the pair scan
    # draws one splitmix64 uniform per pair: n=2000 takes the one-shot block
    # path, n=10000 the row-by-row path.
    "ensemble_scan": Workload(
        command="ensemble",
        spec={"kind": "ensemble", "seed": 0,
              "graph": {"family": "expected_degree", "n": [2000, 10000], "gamma": 2.5,
                        "d": 5, "m": "sqrt_nd", "strict": False},
              "ensemble": {"replicates": 10}},
        points=2, graphs=20, replicates=20),
    # The Theorem-1 check E[tau] = t sum(pi^2) with the two-walker engine.
    # The n=1000 graph fits in cache; the CSR arrays of n=200000 do not.
    "simulate_walkers": Workload(
        command="simulate",
        spec={"kind": "simulate", "seed": 0,
              "graph": {"family": "random_regular", "n": [1000, 200000], "r": 3},
              "sim": {"t_horizon": 100, "beta": 0.5, "replicates": 100000}},
        points=2, graphs=2, replicates=200000),
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "graphs_per_s": "1/s",
                    "replicates_per_s": "1/s", "peak_rss_mb": "MB"}

#: Per-layer metrics of a traced run, in report order, with their units.
#: Layer times are thread-CPU seconds (see tracer.py); a layer that a
#: workload does not reach reads 0.
PER_LAYER_UNITS = {
    "rng.uniforms_s": "s", "rng.uniforms_drawn": "count", "rng.self_s": "s",
    "generators.sample_s": "s", "generators.self_s": "s", "generators.graphs": "count",
    "generators.edges": "count", "generators.uniforms_per_edge": "ratio",
    "generators.random_regular.attempts": "count",
    "graph_core.degree_statistics_s": "s", "graph_core.is_connected_s": "s",
    "graph_core.build_graph_s": "s", "graph_core.self_s": "s",
    "moments.closed_form_s": "s", "moments.ensemble_estimate_self_s": "s",
    "moments.self_s": "s",
    "walk_sim.simulate_batch_s": "s", "walk_sim.events": "count",
    "walk_sim.n1000.events_per_s": "1/s", "walk_sim.n200000.events_per_s": "1/s",
    "walk_sim.self_s": "s",
    "harness.run_experiment_self_s": "s", "harness.point_s_max": "s",
    "harness.cpu_s": "s", "harness.emit_s": "s", "harness.emit_bytes": "bytes",
    "harness.load_spec_s": "s", "harness.self_s": "s",
    "cli.import_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.cpu_over_run": "ratio",
    "trace.self_sum_frac": "ratio",
    "share.generators_rng": "ratio", "share.walk_sim": "ratio",
}


@dataclass
class Invocation:
    seed: int
    traced: bool
    code: int
    wall_s: float
    setup_s: float = float("nan")
    run_s: float = float("nan")
    report: dict = field(default_factory=dict)
    sha256: str = ""
    failures: list[str] = field(default_factory=list)


def _run_child(workload: Workload, spec_path: Path, seed: int, mode: str,
               index: int, timeout: float) -> tuple[Invocation, str]:
    out_path = WORK / f"out{index}.csv"
    report_path = WORK / f"report{index}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(report_path), mode,
            "--", workload.command, "--spec", str(spec_path), "--seed", str(seed),
            "--jobs", "1", "--out", str(out_path), "--format", "csv"]
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    env.pop("COINWALK_JOBS", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        code = proc.returncode
        if code != 0:
            print(f"invocation {index}: exit {code}: {proc.stderr.strip()[-400:]}")
    except subprocess.TimeoutExpired:
        code = -1
        print(f"invocation {index}: killed after {timeout:.0f} s")
    inv = Invocation(seed=seed, traced=mode == "trace", code=code,
                     wall_s=time.monotonic() - start)
    text = ""
    if code == 0:
        inv.report = json.loads(report_path.read_text(encoding="utf-8"))
        inv.setup_s = inv.report["grid_expanded"] - start
    if code == 0 and mode != "setup":
        data = out_path.read_bytes()
        text = data.decode("utf-8")
        inv.sha256 = hashlib.sha256(data).hexdigest()
        inv.run_s = inv.report["end"] - inv.report["spec_parsed"]
    for path in (out_path, report_path):
        path.unlink(missing_ok=True)
    return inv, text


def _warm_up() -> None:
    """Compile bytecode and page in the interpreter and numpy, untimed."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import coinwalk.cli, tracer")
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                   cwd=ROOT, check=True, timeout=60)


def run_loop(name: str, seed: int, seconds: float,
             trace: bool) -> tuple[list[Invocation], list[float]]:
    """Run the closed loop; return the invocations and the set-up-probe times."""
    workload = WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        spec_path = WORK / f"{name}.json"
        spec_path.write_text(json.dumps(workload.spec), encoding="utf-8")
        _warm_up()
        start = time.monotonic()
        invocations: list[Invocation] = []
        setups: list[float] = []
        references: dict[int, list[str]] = {}
        while True:
            now = time.monotonic()
            index = len(invocations)
            if invocations:
                longest = max(inv.wall_s for inv in invocations)
                if now + longest > STARTED + HARD_LIMIT_S:
                    break
                if index >= MIN_RUNS and now + longest > start + seconds:
                    break
            cli_seed = seed * SEED_STRIDE + max(0, index - 1)
            timeout = STARTED + KILL_AFTER_S - now
            mode = "trace" if trace and index > 0 else "run"
            for _ in range(0 if trace else SETUP_PROBES):
                probe, _ = _run_child(workload, spec_path, cli_seed, "setup", index, timeout)
                if probe.code == 0:
                    setups.append(probe.setup_s)
            inv, text = _run_child(workload, spec_path, cli_seed, mode, index,
                                   timeout=STARTED + KILL_AFTER_S - time.monotonic())
            inv.wall_s = time.monotonic() - now
            inv.failures = checks.failed_points(workload.command, workload.points, inv.code,
                                                text, references.get(cli_seed))
            if inv.code == 0:
                references.setdefault(cli_seed, text.splitlines()[1:])
            invocations.append(inv)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return invocations, setups


def tail(values: list[float]) -> str:
    """The highest percentile (p50 or above) with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return "no percentile from p50 up has 10 samples beyond it"
    k = n - 10
    return f"p{100.0 * k / n:.4g}={sorted(values)[k - 1]:.6g}"


def end_to_end(workload: Workload, runs: list[Invocation],
               setups: list[float]) -> dict[str, list[float]]:
    return {
        "run_s": [inv.run_s for inv in runs],
        "setup_s": [inv.setup_s for inv in runs] + setups,
        "graphs_per_s": [workload.graphs / inv.run_s for inv in runs],
        "replicates_per_s": [workload.replicates / inv.run_s for inv in runs],
        "peak_rss_mb": [inv.report["peak_rss_mb"] for inv in runs],
    }


def per_layer(plain: list[Invocation], traced: list[Invocation]) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for inv in traced:
        layers = dict(inv.report["layers"])
        layers["harness.cpu_s"] = inv.report["cpu_s"]
        layers["harness.load_spec_s"] = inv.report["load_spec_s"]
        layers["cli.import_s"] = inv.report["import_s"]
        layers["trace.run_s"] = inv.run_s
        cpu_s = inv.report["cpu_s"]
        layers["trace.cpu_over_run"] = cpu_s / inv.run_s
        layers["trace.self_sum_frac"] = sum(layers[f"{x}.self_s"] for x in LAYERS) / cpu_s
        layers["share.generators_rng"] = (
            layers["generators.self_s"] + layers["rng.self_s"]) / cpu_s
        layers["share.walk_sim"] = layers["walk_sim.self_s"] / cpu_s
        for key, value in layers.items():
            series.setdefault(key, []).append(value)
    if plain and traced and traced[0].seed == plain[0].seed:
        series["trace.overhead_s"] = [traced[0].run_s - plain[0].run_s]
    return series


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and \
                    (index / "type").read_text().strip() != "Instruction":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(name: str, seed: int) -> dict:
    import numpy
    return {
        "workload": name, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "l2": _cache_size(2), "l3": _cache_size(3),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "coinwalk" / "cli.py").is_file():
        print(f"error: no coinwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running CLI process is
    # killed and waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args.workload, args.seed)))
    invocations, setups = run_loop(args.workload, args.seed, args.seconds, bool(args.trace))
    for i, inv in enumerate(invocations):
        print(f"invocation {i}: seed={inv.seed} traced={int(inv.traced)} exit={inv.code} "
              f"setup_s={inv.setup_s:.4f} run_s={inv.run_s:.4f} "
              f"failed={len(inv.failures)}/{workload.points} sha256={inv.sha256}")
        for reason in inv.failures:
            print(f"  failed: {reason}")
    attempted = workload.points * len(invocations)
    failed = sum(len(inv.failures) for inv in invocations)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} grid points)")

    ok = [inv for inv in invocations if inv.code == 0]
    plain = [inv for inv in ok if not inv.traced]
    if args.trace:
        series = per_layer(plain, [inv for inv in ok if inv.traced])
    else:
        series = end_to_end(workload, plain, setups)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for key, unit in units.items():
        values = series.get(key)
        if not values:
            continue
        value = statistics.median(values)
        metrics[key] = {"value": value, "unit": unit}
        print(f"metric {key}: median={value:.6g} {unit} {tail(values)} n={len(values)}")
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(units),
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
