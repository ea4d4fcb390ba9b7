"""Run one coinwalk CLI invocation in this fresh interpreter and time it.

Usage: python3 perfbench/child.py REPORT MODE -- <coinwalk CLI arguments>

Writes REPORT (JSON) with CLOCK_MONOTONIC timestamps, which the parent
process shares: ``spec_parsed`` when ``load_spec`` returned,
``grid_expanded`` when ``expand_grid`` returned, and ``end`` once the CLI
has written its last output byte.  MODE is ``run``; ``trace``, which wraps
the coinwalk layers with :mod:`tracer` and adds the per-layer metrics to the
report; or ``setup``, which stops once the grid is expanded and runs no grid
point.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODES = ("run", "trace", "setup")


class SetupDone(Exception):
    """Raised in setup mode once the grid is expanded."""


def main(argv: list[str]) -> int:
    report_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in MODES:
        raise SystemExit("usage: child.py REPORT run|trace|setup -- <coinwalk arguments>")
    import_start = time.monotonic()
    sys.path.insert(0, str(SRC))
    from coinwalk import cli, harness
    stamps = {"import_s": time.monotonic() - import_start}

    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    original_load_spec = cli.load_spec

    def load_spec(path):
        start = time.monotonic()
        spec = original_load_spec(path)
        stamps["spec_parsed"] = time.monotonic()
        stamps["load_spec_s"] = stamps["spec_parsed"] - start
        stamps["cpu_at_parse"] = time.process_time()
        return spec

    original_expand_grid = harness.expand_grid

    def expand_grid(spec):
        points = original_expand_grid(spec)
        stamps["grid_expanded"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        return points

    cli.load_spec = load_spec
    harness.expand_grid = expand_grid

    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    stamps["end"] = time.monotonic()
    stamps["cpu_s"] = time.process_time() - stamps.get("cpu_at_parse", 0.0)
    stamps["code"] = code
    stamps["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        stamps["layers"] = tracing.layer_report(tracer)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
