"""Batch experiment harness: JSON specs in, deterministic tables out.

A spec file describes one experiment of a given kind:

* ``analyze``  -- build each graph in a parameter grid and record its
  degree statistics, stationary collision mass and closed-form moments;
* ``simulate`` -- additionally run the two-walker Monte Carlo and compare
  against the coincidence-time predictions;
* ``ensemble`` -- estimate mean/variance of D and D2 over replicate
  graphs per grid point;
* ``sweep``    -- draw each point of a power-law ``expected_degree`` grid
  over (n, gamma, d, m) ``seeds_per_point`` times, recording the mean
  meeting-rate ratio n * sum(pi_v^2) against its predicted scaling regime.

Every spec block is checked from one table, ``_BLOCKS``, but for the keys
of the graph block, which depend on its family.

``ensemble`` and ``sweep`` read only each replicate's degrees, so they hand
their replicate seeds to ``sampler_for``: the pair models then draw the
replicates in lockstep, straight to degree rows, and hold no edge list.
Each replicate is the graph its seed draws alone, so the output does not
depend on it.

Every run is reproducible byte for byte: grid point i draws all its
randomness from the derived seed (master_seed, i), rows are emitted in
grid order regardless of worker count, floats are serialized with
``repr`` (shortest round-trip form), and wall-clock timings are kept on
the row objects but never written to the output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from itertools import product
from typing import Any

import numpy as np

from .generators import (GenSpec, GenerationError, WeightSequence, generate, sampler_for,
                         weights_for)
from .graph_core import MAX_REPLICATES, MAX_VERTICES, degree_statistics, is_connected
from .moments import closed_form_moments, ensemble_estimate, er_moments, predict_scaling
from .rng import MASK64, derive_seed, derive_seeds
from .walk_sim import SimConfig, verify_theorem1

FORMATS = ("csv", "json")


class SpecError(ValueError):
    """The spec file failed to parse or validate."""


@dataclass
class ResultRow:
    """One grid point's outputs; unfilled fields stay None.

    Field order defines the output column order.  ``wall_time_s`` is
    measured per point but excluded from emission so that output bytes
    depend only on the spec; perfbench's tracer reads it for
    ``harness.point_s_max``, so removing it needs a benchmark change.
    """

    row: int | None = None
    kind: str | None = None
    family: str | None = None
    n: int | None = None
    k: int | None = None
    r: int | None = None
    p: float | None = None
    gamma: float | None = None
    d: float | None = None
    m: float | None = None
    w: float | None = None
    seed: int | None = None
    edges: int | None = None
    self_loops: int | None = None
    D: int | None = None
    D2: int | None = None
    sum_pi_sq: float | None = None
    n_sum_pi_sq: float | None = None
    connected: bool | None = None
    ED: float | None = None
    VarD: float | None = None
    ED2: float | None = None
    VarD2_bound: float | None = None
    regime: str | None = None
    leading_estimate: float | None = None
    growth_exponent_in_md: float | None = None
    log_factor: bool | None = None
    t_horizon: float | None = None
    beta: float | None = None
    replicates: int | None = None
    mean_tau: float | None = None
    stderr_tau: float | None = None
    mean_infection_prob: float | None = None
    stderr_infection_prob: float | None = None
    predicted_tau: float | None = None
    gamma_upper: float | None = None
    tau_z_score: float | None = None
    jensen_satisfied: bool | None = None
    ens_replicates: int | None = None
    mean_D: float | None = None
    var_D: float | None = None
    mean_D2: float | None = None
    var_D2: float | None = None
    seeds_per_point: int | None = None
    sd_n_sum_pi_sq: float | None = None
    error: str | None = None
    wall_time_s: float | None = None


#: Emitted column order; everything on ResultRow except wall-clock time.
COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name != "wall_time_s")


def fill_row(row: ResultRow, *results: Any) -> ResultRow:
    """Copy each result dataclass's fields onto the same-named columns of row.

    Fields that name no column are skipped.
    """
    for result in results:
        for f in fields(result):
            if f.name in COLUMNS:
                setattr(row, f.name, getattr(result, f.name))
    return row


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, validated experiment description.

    Every kind carries its grid in ``graph``; a sweep's is a power-law
    ``expected_degree`` block.
    """

    kind: str
    seed: int
    graph: dict[str, Any]
    sim: dict[str, Any] | None = None
    ensemble_replicates: int | None = None
    seeds_per_point: int | None = None
    description: str | None = None


# ---------------------------------------------------------------------------
# parsing and validation


def _reject_unknown(obj: dict, allowed: set[str], context: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SpecError(f"unknown key {key!r} in {context}")


def _need(obj: dict, key: str, context: str) -> Any:
    if key not in obj:
        raise SpecError(f"missing required key {key!r} in {context}")
    return obj[key]


def _as_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return value


def _as_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise SpecError(f"{name} must be finite, got an integer of "
                        f"{len(str(value))} digits") from None
    if not math.isfinite(out):
        raise SpecError(f"{name} must be finite, got {value!r}")
    return out


def check_seed(seed: int) -> int:
    if not 0 <= seed <= MASK64:
        raise SpecError(f"seed must be a non-negative integer below 2**64, got {seed}")
    return seed


def _as_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{name} must be true or false, got {value!r}")
    return value


def _scalar_or_list(value: Any, name: str, convert) -> list:
    """Normalize a grid parameter to a list, validating each element."""
    if isinstance(value, list):
        if not value:
            raise SpecError(f"{name} must not be an empty list")
        return [convert(v, name) for v in value]
    return [convert(value, name)]


def _check_count(value: Any, name: str, low: int = 1, high: int = MAX_VERTICES) -> int:
    """An integer in [low, high].  Refused before float(n), math.sqrt(n * d)
    or an array of that many replicates can overflow."""
    out = _as_int(value, name)
    if out < low:
        raise SpecError(f"{name} must be at least {low}, got {out}")
    if out > high:
        raise SpecError(f"{name} must be at most {high}, got {len(str(out))} digits")
    return out


def _range_check(holds, rule: str):
    """A converter to a finite number for which ``holds``; it refuses any
    other with "{name} {rule}, got {x}"."""
    def check(value: Any, name: str) -> float:
        out = _as_number(value, name)
        if not holds(out):
            raise SpecError(f"{name} {rule}, got {out}")
        return out
    return check


_check_probability = _range_check(lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")
_check_gamma = _range_check(lambda x: x > 2, "must exceed 2")
_check_positive = _range_check(lambda x: x > 0, "must be positive")
_check_non_negative = _range_check(lambda x: x >= 0, "must be non-negative")


def _check_m(value: Any, name: str) -> float | str:
    if value == "sqrt_nd":
        return value
    return _check_positive(value, name)


#: Grid parameters with the converter that validates each value.  Key
#: order is the grid's expansion order: the first present one varies slowest.
_PARAMS = {
    "n": _check_count,
    "k": _check_count,
    "r": _check_count,
    "p": _check_probability,
    "gamma": _check_gamma,
    "d": _check_positive,
    "m": _check_m,
    "w": _check_positive,
}

#: Optional boolean generator flags; their defaults live on GenSpec alone.
_FLAGS = ("allow_self_loops", "require_connected", "strict")

#: Grid parameters and flags each graph family accepts besides "family".
_FAMILY_KEYS = {
    "complete": ("n",),
    "circulant": ("n", "k"),
    "random_regular": ("n", "r"),
    "gnp": ("n", "p", "require_connected"),
    "expected_degree": ("n", "gamma", "d", "m", "w") + _FLAGS,
}


def _parse_keys(block: dict, keys: tuple[str, ...], name: str) -> dict[str, Any]:
    """Validate the grid parameters and flags named by ``keys``.

    Every grid parameter is required and becomes a list of values.  Flags
    are optional booleans; one the spec omits is left out of the result.
    """
    out: dict[str, Any] = {}
    for key in keys:
        if key in _PARAMS:
            out[key] = _scalar_or_list(_need(block, key, f"'{name}'"), f"{name}.{key}",
                                       _PARAMS[key])
        elif key in block:
            out[key] = _as_bool(block[key], f"{name}.{key}")
    return out


def _parse_graph(block: dict) -> dict[str, Any]:
    family = _need(block, "family", "'graph'")
    if not isinstance(family, str) or family not in _FAMILY_KEYS:
        raise SpecError(f"unknown graph family {family!r}")
    keys = _FAMILY_KEYS[family]
    _reject_unknown(block, {"family", *keys}, f"'graph' ({family})")
    if family == "expected_degree":
        has_w = "w" in block
        has_plaw = any(key in block for key in ("gamma", "d", "m"))
        if has_w and has_plaw:
            raise SpecError("graph block takes either 'w' or 'gamma'/'d'/'m', not both")
        if not (has_w or has_plaw):
            raise SpecError("expected_degree graph needs 'w' or 'gamma'/'d'/'m'")
        unused = ("gamma", "d", "m") if has_w else ("w",)
        keys = tuple(key for key in keys if key not in unused)
    return {"family": family, **_parse_keys(block, keys, "graph")}


_check_replicates = partial(_check_count, low=2, high=MAX_REPLICATES)

#: Spec blocks in checking order.  Each checks its grid keys first (a
#: sweep's fill ``graph``), then its scalar keys: key -> (converter,
#: default, ExperimentSpec field).  A default of None marks a required key;
#: a field named after its block holds the block's scalars as a dict.  The
#: graph block's keys depend on its family, so ``_parse_graph`` reads them.
_BLOCKS = {
    "graph": None,
    "sweep": (("n", "gamma", "d", "m", "allow_self_loops", "strict"),
              {"seeds_per_point": (partial(_check_count, high=MAX_REPLICATES), 1,
                                   "seeds_per_point")}),
    "sim": ((), {"t_horizon": (_check_non_negative, None, "sim"),
                 "beta": (_check_non_negative, 0.0, "sim"),
                 "replicates": (_check_replicates, None, "sim")}),
    "ensemble": ((), {"replicates": (_check_replicates, None, "ensemble_replicates")}),
}


def _parse_block(name: str, block: Any) -> dict[str, Any]:
    """The ExperimentSpec fields one spec block fills, checked as ``_BLOCKS`` says."""
    if not isinstance(block, dict):
        raise SpecError(f"'{name}' must be an object")
    if name == "graph":
        return {"graph": _parse_graph(block)}
    grid, scalars = _BLOCKS[name]
    _reject_unknown(block, {*grid, *scalars}, f"'{name}'")
    graph = _parse_keys(block, grid, name)
    out = {"graph": {"family": "expected_degree", **graph}} if grid else {}
    for key, (convert, default, field) in scalars.items():
        value = _need(block, key, f"'{name}'") if default is None else block.get(key, default)
        value = convert(value, f"{name}.{key}")
        if field == name:
            out.setdefault(name, {})[key] = value
        else:
            out[field] = value
    return out


#: The blocks each kind requires; every other block is rejected.
_KIND_BLOCKS = {
    "analyze": ("graph",),
    "simulate": ("graph", "sim"),
    "ensemble": ("graph", "ensemble"),
    "sweep": ("sweep",),
}


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and validate a JSON experiment spec.

    Raises :class:`SpecError` with the offending location or key for any
    syntax error, unknown key, missing key or out-of-range value.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"spec is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    kind = _need(doc, "kind", "spec")
    if not isinstance(kind, str) or kind not in _KIND_BLOCKS:
        raise SpecError(f"unknown kind {kind!r}; expected one of {', '.join(_KIND_BLOCKS)}")
    _reject_unknown(doc, {"kind", "seed", "description", *_BLOCKS}, "spec")
    seed = check_seed(_as_int(_need(doc, "seed", "spec"), "seed"))
    description = doc.get("description")
    if description is not None and not isinstance(description, str):
        raise SpecError("description must be a string")
    parsed: dict[str, Any] = {}
    for name in _BLOCKS:
        if name in _KIND_BLOCKS[kind]:
            parsed.update(_parse_block(name, _need(doc, name, "spec")))
        elif name in doc:
            raise SpecError(f"key {name!r} is not valid for kind {kind!r}")
    return ExperimentSpec(kind=kind, seed=seed, description=description, **parsed)


def load_spec(path: str) -> ExperimentSpec:
    """Read and parse a spec file, which must be UTF-8 text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecError(f"spec is not UTF-8 text: byte {exc.start} cannot be decoded") from exc
    return parse_spec(text)


# ---------------------------------------------------------------------------
# grid expansion


def expand_grid(spec: ExperimentSpec) -> list[dict[str, Any]]:
    """Enumerate grid points in deterministic order.

    The cartesian product runs over the grid parameters present in the
    spec's graph block, ordered ``n, k, r, p, gamma, d, m, w`` with the
    last varying fastest.  Each point carries its scalar parameters; an
    ``m`` of "sqrt_nd" is resolved to sqrt(n * d) here.
    """
    axes = [name for name in _PARAMS if name in spec.graph]
    points = []
    for combo in product(*(spec.graph[name] for name in axes)):
        point = dict(zip(axes, combo))
        if point.get("m") == "sqrt_nd":
            point["m"] = math.sqrt(point["n"] * point["d"])
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# execution


def _fill_closed_forms(row: ResultRow, gen: GenSpec, weights: WeightSequence | None) -> None:
    """Closed-form moment predictions, where the pair model defines them."""
    if gen.family == "gnp":
        fill_row(row, er_moments(gen.n, gen.p))
    elif gen.family == "expected_degree":
        fill_row(row, closed_form_moments(weights, strict=gen.strict))
        if gen.gamma is not None:
            fill_row(row, predict_scaling(gen.gamma, gen.d, gen.m))


def _run_point(spec: ExperimentSpec, index: int, point: dict[str, Any]) -> ResultRow:
    start = time.perf_counter()
    point_seed = derive_seed(spec.seed, index)
    family = spec.graph["family"]
    flags = {key: spec.graph[key] for key in _FLAGS if key in spec.graph}
    row = ResultRow(row=index, kind=spec.kind, family=family, seed=point_seed, **point)
    try:
        gen = GenSpec(family=family, seed=derive_seed(point_seed, 0), **point, **flags)
        # built once: the closed forms and the sampler of this point share them
        weights = weights_for(gen) if family == "expected_degree" else None
        _fill_closed_forms(row, gen, weights)
        if spec.kind in ("analyze", "simulate"):
            g = generate(gen)
            stats = degree_statistics(g)
            fill_row(row, stats)
            row.edges = g.edge_count
            row.self_loops = g.self_loop_count
            row.sum_pi_sq = stats.coincidence_rate
            row.n_sum_pi_sq = g.n * stats.coincidence_rate
            row.connected = is_connected(g)
            if spec.kind == "simulate":
                cfg = SimConfig(master_seed=derive_seed(point_seed, 1), **spec.sim)
                check = verify_theorem1(g, cfg)
                fill_row(row, cfg, check)
        elif spec.kind == "ensemble":
            fill_row(row, ensemble_estimate(gen, spec.ensemble_replicates, seed=gen.seed,
                                            weights=weights))
        else:
            seeds = derive_seeds(gen.seed, np.arange(spec.seeds_per_point))
            draw = sampler_for(gen, seeds, weights)
            ratios = np.empty(spec.seeds_per_point)
            for j in range(spec.seeds_per_point):
                g = draw(int(seeds[j]))
                ratios[j] = g.n * degree_statistics(g).coincidence_rate
            row.seeds_per_point = spec.seeds_per_point
            row.n_sum_pi_sq = float(ratios.mean())
            if spec.seeds_per_point >= 2:
                row.sd_n_sum_pi_sq = float(ratios.std(ddof=1))
    except (ValueError, GenerationError) as exc:
        row.error = str(exc)
    except MemoryError as exc:  # this point's arrays do not fit; the other points still run
        row.error = f"out of memory: {exc}" if str(exc) else "out of memory"
    row.wall_time_s = time.perf_counter() - start
    return row


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Execute every grid point; rows come back in grid order.

    Grid point i derives its seed as (spec.seed, i), so results do not
    depend on ``jobs``.  A point that fails validation or generation, or
    cannot allocate its arrays, produces a row with its ``error`` field set
    instead of aborting the whole run.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    points = expand_grid(spec)
    if jobs == 1:
        return [_run_point(spec, i, pt) for i, pt in enumerate(points)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda args: _run_point(spec, *args),
                             enumerate(points)))


# ---------------------------------------------------------------------------
# emission


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_value(value: Any) -> Any:
    """A JSON value for a cell; a non-finite float becomes its CSV text."""
    if isinstance(value, float) and not math.isfinite(value):
        return _cell(value)
    return value


def emit(rows: list[ResultRow], fmt: str = "csv", path: str | None = None) -> str:
    """Serialize rows to CSV or JSON; optionally also write them to a file.

    Output is byte-deterministic: fixed column order, repr float
    formatting (shortest round-trip decimal), lowercase booleans, empty
    cell / null for absent values, and "\\n" line endings.  JSON has no
    infinity or NaN, so a non-finite float is written there as the string
    its CSV cell holds ("inf", "-inf" or "nan").
    """
    if not rows:
        raise ValueError("no rows to emit")
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_cell(getattr(row, name)) for name in COLUMNS])
        text = buf.getvalue()
    else:
        records = [{name: _json_value(getattr(row, name)) for name in COLUMNS} for row in rows]
        text = json.dumps(records, indent=2, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
