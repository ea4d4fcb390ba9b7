#!/usr/bin/env python3
"""A/B benchmark of the working tree against a parent commit.

Usage (from the root of a checkout):

    python3 tools/bench_ab.py --parent e3e5f6d --seed 111 --out BENCH_11.json

The parent commit is exported with ``git archive`` into a temporary
directory, and the working tree's files (tracked or untracked, not ignored)
are copied into another, so both sides run from fresh directories on the
same file system.  Each side first runs the Tier-1 suite once
(``PYTHONPATH=src python -m pytest -q -p no:cacheprovider --durations=5``),
which records its wall seconds, passed and failed counts and five slowest
tests.  Then, for every workload of ``BENCHMARK.json``, the
unmodified ``perfbench/run.py --trace 0`` runs for the benchmark's
``run_seconds`` in ``PAIRS`` pairs: once in each directory, alternating
which side goes first, with seed ``SEED + i`` on both sides of pair i.  After the pairs, one
``--trace 1 --seconds 0`` run per side (seed ``SEED``) records the
per-layer medians; at zero seconds perfbench makes its minimum number of
invocations, so both sides trace the same CLI seeds and counts such as
``walk_sim.events`` compare exactly.

The JSON written to ``--out`` holds, per workload and end-to-end metric,
each side's median and quartiles over the pairs, the pairs the change won
(ties count for neither side), the relative change of the medians, whether
a gain is shown (wins in at least nine tenths of the pairs, a median
difference larger than the parent's interquartile range, and no more
failed grid points than at the parent) and whether the change stays within
the metric's regression bound.  It also records the failed grid points of
each side, with the CLI seed and reason of each, and whether every CLI
seed that both sides ran wrote the same output sha256.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INVOCATION = re.compile(r"^invocation \d+: seed=(\d+) .* sha256=([0-9a-f]*)$")
DURATION = re.compile(r"^([0-9.]+)s (\w+) +(.+)$")
OUTCOME = re.compile(r"(\d+) (passed|failed)")
PAIRS = 10


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(commit: str, dest: Path) -> None:
    """Unpack ``git archive`` of ``commit`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")


def snapshot(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split(b"\0")):
        source = ROOT / os.fsdecode(name)
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``: its final JSON, seed -> sha256 and failed points."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result["sha256"], result["failures"] = {}, []
    seed = None
    for line in lines:
        match = INVOCATION.match(line)
        if match:
            seed = match.group(1)
            if match.group(2):
                result["sha256"].setdefault(seed, set()).add(match.group(2))
        elif line.startswith("  failed: "):  # perfbench prints these under their invocation
            result["failures"].append({"seed": int(seed), "reason": line[10:]})
    return result


def run_tier1(tree: Path) -> dict:
    """Tier-1 once in ``tree``: wall seconds, exit code, outcome counts, slowest tests."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=5"]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=tree, env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=3600)
    wall_s = time.monotonic() - start
    lines = proc.stdout.splitlines()
    counts = dict((kind, int(num)) for num, kind in OUTCOME.findall(lines[-1] if lines else ""))
    slowest = [{"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
               for m in map(DURATION.match, lines) if m]
    return {"wall_s": wall_s, "exit": proc.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "slowest": slowest}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str, bound: float,
            more_failed: bool) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is a gain
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    diff = c["median"] - p["median"]
    relative = diff / p["median"] if p["median"] else math.nan
    return {
        "parent": p, "change": c, "change_wins": wins, "pairs": len(parent),
        "relative_change": relative,
        "gain_shown": bool(wins >= math.ceil(0.9 * len(parent)) and sign * diff < 0
                           and abs(diff) > p["q3"] - p["q1"] and not more_failed),
        "within_bound": bool(not sign * relative > bound),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    parent = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    if subprocess.run(["git", "diff", "--quiet", parent, "--", "perfbench", "BENCHMARK.json"],
                      cwd=ROOT).returncode != 0:
        print("error: the benchmark differs from the parent's; an A/B needs the same one",
              file=sys.stderr)
        return 2
    dirty = bool(git("status", "--porcelain").strip())
    head = git("rev-parse", "HEAD").decode().strip()

    report = {"parent": parent, "change": head + ("+working-tree" if dirty else ""),
              "pairs": PAIRS, "seeds": [args.seed + i for i in range(PAIRS)],
              "seconds": seconds, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(parent, trees["parent"])
        snapshot(trees["change"])
        report["tier1"] = {side: run_tier1(trees[side]) for side in trees}
        for side, tier1 in report["tier1"].items():
            print(f"tier1 {side}: {tier1['passed']} passed, {tier1['failed']} failed, "
                  f"exit {tier1['exit']}, {tier1['wall_s']:.1f} s", flush=True)
        for name in (w["name"] for w in bench["workloads"]):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(PAIRS):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    runs[side].append(run_bench(trees[side], name, args.seed + i, seconds, 0))
                    print(f"{name} pair {i} {side}: run_s="
                          f"{runs[side][-1]['metrics'].get('run_s', {}).get('value')}",
                          flush=True)
            traced = {side: run_bench(trees[side], name, args.seed, 0, 1)
                      for side in ("parent", "change")}
            report["env"] = runs["change"][0]["env"]
            entry = {"end_to_end": {}, "failed": {}, "sha256": {}, "per_layer": {}}
            for side in runs:
                entry["failed"][side] = {
                    "failed": sum(r["failed"] for r in runs[side]),
                    "attempted": sum(r["attempted"] for r in runs[side]),
                    "points": [f for r in runs[side] for f in r["failures"]]}
                entry["per_layer"][side] = {k: v["value"]
                                            for k, v in traced[side]["metrics"].items()}
            more_failed = entry["failed"]["change"]["failed"] > entry["failed"]["parent"]["failed"]
            for metric in bench["end_to_end"]:
                key = metric["name"]
                series = {side: [r["metrics"][key]["value"] for r in runs[side]]
                          for side in runs}
                entry["end_to_end"][key] = {"unit": metric["unit"], "better": metric["better"],
                                            "bound": metric["bound"],
                                            **compare(series["parent"], series["change"],
                                                      metric["better"], metric["bound"],
                                                      more_failed)}
            hashes = {side: {} for side in runs}
            for side in runs:
                for r in runs[side] + [traced[side]]:
                    for seed, shas in r["sha256"].items():
                        hashes[side].setdefault(seed, set()).update(shas)
            common = sorted(set(hashes["parent"]) & set(hashes["change"]), key=int)
            mismatched = [s for s in common
                          if hashes["parent"][s] != hashes["change"][s]
                          or len(hashes["parent"][s]) != 1]
            entry["sha256"] = {"common_seeds": len(common), "mismatched_seeds": mismatched,
                               "match": bool(common) and not mismatched}
            report["workloads"][name] = entry
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, entry in report["workloads"].items():
        for key, m in entry["end_to_end"].items():
            print(f"{name} {key}: parent {m['parent']['median']:.6g} "
                  f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}] change "
                  f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
                  f"{m['change']['q3']:.6g}] wins {m['change_wins']}/{m['pairs']} "
                  f"gain_shown={m['gain_shown']} within_bound={m['within_bound']}")
        print(f"{name} sha256 match on {entry['sha256']['common_seeds']} common seeds: "
              f"{entry['sha256']['match']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
