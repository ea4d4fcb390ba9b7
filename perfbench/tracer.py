"""Span tracer for one coinwalk CLI invocation.

The tracer wraps public coinwalk functions at the module attribute their
callers look up (``coinwalk.harness.generate``, ``coinwalk.walk_sim.simulate_batch``,
...), so no file under ``src/`` is edited.  Each wrapped call records a span:
its name, the enclosing span on the same thread, its duration on the
thread's CPU clock, and a payload (a count, or the graph it returned).  Spans stay in
memory and are reduced to per-layer numbers after the invocation finished.

Self time is measured on the thread CPU clock: a span's CPU time minus the
CPU time of its direct children.  When the CLI runs several jobs, wall-clock
spans of their threads overlap and would count the same second twice; CPU
time counts each slice of work once.
"""

from __future__ import annotations

import threading
import time

import numpy as np

#: Layers in report order; a span name is "<layer>.<operation>".
LAYERS = ("rng", "generators", "graph_core", "moments", "walk_sim", "harness")

#: Graph sizes of the walker workload; each gets its own throughput metric.
WALK_SIZES = (1000, 200000)


class Span:
    __slots__ = ("name", "parent", "cpu_ns", "payload", "attempts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.cpu_ns = time.thread_time_ns()
        self.payload = None
        self.attempts = 0


class Tracer:
    """Per-thread span stacks plus the span records of every thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list[Span]] = []

    def _thread(self) -> tuple[list[Span], list[int]]:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append(local.spans)
        return local.spans, local.stack

    def current(self) -> Span | None:
        spans, stack = self._thread()
        return spans[stack[-1]] if stack else None

    def call(self, name: str, fn, args, kwargs, note=None):
        """Run ``fn`` inside a span; ``note(result, args)`` gives the span's payload."""
        spans, stack = self._thread()
        span = Span(name, stack[-1] if stack else -1)
        stack.append(len(spans))
        spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.cpu_ns = time.thread_time_ns() - span.cpu_ns
            stack.pop()
        if note is not None:
            span.payload = note(result, args)
        return result

    def wrap(self, owner, attr: str, name: str, note=None, wrap_result=None) -> None:
        """Replace ``owner.attr`` with a traced version of itself."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, note)
            return wrap_result(result, args) if wrap_result is not None else result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def self_times(self):
        """Yield (span, self CPU seconds) for every span of every thread."""
        for spans in self.threads:
            child_ns = [0] * len(spans)
            for span in spans:
                if span.parent >= 0:
                    child_ns[span.parent] += span.cpu_ns
            for span, children in zip(spans, child_ns):
                yield span, (span.cpu_ns - children) * 1e-9


def install(tracer: Tracer) -> None:
    """Wrap the coinwalk entry points through which each layer is reached."""
    from coinwalk import cli, generators, graph_core, harness, moments, rng, walk_sim

    def traced_draw(draw, args):
        family = args[0].family
        return lambda seed: tracer.call("generators.sample", draw, (seed,), {},
                                        lambda graph, _: (family, graph))

    tracer.wrap(rng.Stream, "uniforms", "rng.uniforms", note=lambda _, args: args[1])

    class CountedStream(generators.Stream):
        """The generators build one stream per sampling attempt."""

        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            span = tracer.current()
            if span is not None:
                span.attempts += 1

    generators.Stream = CountedStream
    tracer.wrap(harness, "generate", "generators.sample",
                note=lambda graph, args: (args[0].family, graph))
    for owner in (harness, moments):
        tracer.wrap(owner, "sampler_for", "generators.prepare", wrap_result=traced_draw)
    tracer.wrap(harness, "weights_for", "generators.weights")

    for owner in (harness, moments, graph_core):
        tracer.wrap(owner, "degree_statistics", "graph_core.degree_statistics")
    for owner in (harness, generators):
        tracer.wrap(owner, "is_connected", "graph_core.is_connected")
    tracer.wrap(walk_sim, "theorem1_bounds", "graph_core.theorem1_bounds")

    for attr in ("closed_form_moments", "er_moments"):
        tracer.wrap(harness, attr, "moments.closed_form")
    tracer.wrap(harness, "predict_scaling", "moments.predict_scaling")
    tracer.wrap(harness, "ensemble_estimate", "moments.ensemble_estimate")

    def walk_events(batch, args):
        events = int(batch.jumps_x.sum() + batch.jumps_y.sum()) + batch.replicates
        return args[0].n, events

    tracer.wrap(harness, "verify_theorem1", "walk_sim.verify_theorem1")
    tracer.wrap(walk_sim, "simulate_batch", "walk_sim.simulate_batch", note=walk_events)

    tracer.wrap(cli, "run_experiment", "harness.run_experiment",
                note=lambda rows, _: max(row.wall_time_s for row in rows))
    tracer.wrap(cli, "emit", "harness.emit", note=lambda text, _: len(text.encode("utf-8")))


def _edge_list(g) -> np.ndarray:
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.offsets))
    cols = g.neighbors.astype(np.int64)
    upper = rows <= cols
    return np.stack([rows[upper], cols[upper]], axis=1)


def layer_report(tracer: Tracer) -> dict[str, float]:
    """Reduce the recorded spans to per-layer metrics, in seconds of thread CPU.

    Call it after the traced invocation: it replays public ``build_graph``
    on every generated edge list, which is not part of the invocation.
    """
    from coinwalk.graph_core import build_graph

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, int] = {}
    graphs = []
    rr_attempts = 0
    point_max = 0.0
    walk = {n: [0, 0.0] for n in WALK_SIZES}
    for span, self_s in tracer.self_times():
        name = span.name
        out[f"{name.split('.', 1)[0]}.self_s"] += self_s
        total[name] = total.get(name, 0.0) + span.cpu_ns * 1e-9
        own[name] = own.get(name, 0.0) + self_s
        if name == "generators.sample":
            family, graph = span.payload
            graphs.append(graph)
            if family == "random_regular":
                rr_attempts += span.attempts
        elif name == "walk_sim.simulate_batch":
            n, events = span.payload
            counts[name] = counts.get(name, 0) + events
            if n in walk:
                walk[n][0] += events
                walk[n][1] += span.cpu_ns * 1e-9
        elif name == "harness.run_experiment":
            point_max = max(point_max, span.payload)
        elif span.payload is not None:
            counts[name] = counts.get(name, 0) + span.payload

    build_ns = 0
    for g in graphs:
        pairs = _edge_list(g)
        start = time.thread_time_ns()
        build_graph(g.n, pairs, allow_self_loops=True)
        build_ns += time.thread_time_ns() - start

    edges = sum(g.edge_count for g in graphs)
    drawn = counts.get("rng.uniforms", 0)
    out.update({
        "rng.uniforms_s": total.get("rng.uniforms", 0.0),
        "rng.uniforms_drawn": float(drawn),
        "generators.sample_s": total.get("generators.sample", 0.0),
        "generators.graphs": float(len(graphs)),
        "generators.edges": float(edges),
        "generators.uniforms_per_edge": drawn / edges if edges else 0.0,
        "generators.random_regular.attempts": float(rr_attempts),
        "graph_core.degree_statistics_s": total.get("graph_core.degree_statistics", 0.0),
        "graph_core.is_connected_s": total.get("graph_core.is_connected", 0.0),
        "graph_core.build_graph_s": build_ns * 1e-9,
        "moments.closed_form_s": total.get("moments.closed_form", 0.0),
        "moments.ensemble_estimate_self_s": own.get("moments.ensemble_estimate", 0.0),
        "walk_sim.simulate_batch_s": total.get("walk_sim.simulate_batch", 0.0),
        "walk_sim.events": float(counts.get("walk_sim.simulate_batch", 0)),
        "harness.run_experiment_self_s": own.get("harness.run_experiment", 0.0),
        "harness.point_s_max": point_max,
        "harness.emit_s": total.get("harness.emit", 0.0),
        "harness.emit_bytes": float(counts.get("harness.emit", 0)),
    })
    for n, (events, cpu_s) in walk.items():
        out[f"walk_sim.n{n}.events_per_s"] = events / cpu_s if cpu_s > 0 else 0.0
    return out
