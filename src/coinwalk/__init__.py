"""Coincidence-time analytics and walker simulation on random graphs.

The package splits into five layers:

* :mod:`coinwalk.rng` -- counter-style splitmix64 streams with
  deterministic child-seed derivation;
* :mod:`coinwalk.graph_core` -- immutable CSR graphs, degree statistics
  and the coincidence-time predictions;
* :mod:`coinwalk.generators` -- graph families with reproducible seeding;
* :mod:`coinwalk.moments` -- closed-form degree moments, asymptotic
  weight moments and scaling-regime prediction;
* :mod:`coinwalk.walk_sim` -- Monte Carlo simulation of two independent
  continuous-time walkers and the coincidence-time checks.

The ``coinwalk`` command line (see :mod:`coinwalk.cli`) drives batch
experiments described by JSON spec files.  There is no package-level API:
import each name from the submodule that defines it.
"""
