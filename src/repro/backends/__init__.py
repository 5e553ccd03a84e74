"""Pluggable execution backends for the Monte-Carlo estimators.

A backend decides *how* the N independent realisations of a scenario are
computed:

* :mod:`repro.backends.reference` — the event-driven simulator
  (:mod:`repro.cluster`), one realisation at a time, in-process.  Full
  feature coverage; the semantic ground truth.
* :mod:`repro.backends.vectorized` — a NumPy batch kernel that advances
  all realisations simultaneously with array-level sampling (an exact
  batched-Gillespie sampler of the same CTMC), typically 10×+ faster on
  ``mc-scaling``-style workloads.
* :mod:`repro.backends.auto` — the vectorized kernel where the
  configuration supports it, the reference simulator everywhere else.
* :mod:`repro.backends.bench` — the benchmark harness that times the
  registered backends against each other, checks statistical parity with
  a KS test and emits machine-readable ``BENCH_results.json``.

Select a backend anywhere Monte-Carlo runs: ``mc_point_spec(...,
backend="vectorized")``, ``ScenarioSpec(backend=...)``, or ``--backend``
on the CLI.  The engine calls the backend once per seed block; fanning
blocks out over a process pool or the worker fleet is the engine's job.

The registry lives in :mod:`repro.backends.base`; the names below are
re-exported lazily (PEP 562) so that enumerating backends does not import
the numerical stack.
"""

from repro.backends.base import (
    DEFAULT_BACKEND,
    BackendUnsupportedError,
    ExecutionBackend,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)

#: Lazily re-exported names (module -> names), PEP 562.
_EXPORTS = {
    "repro.backends.reference": ("ReferenceBackend",),
    "repro.backends.vectorized": (
        "VectorizedBackend",
        "simulate_completion_times",
    ),
    "repro.backends.bench": (
        "BenchmarkReport",
        "run_benchmark",
        "write_benchmark_results",
    ),
}

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    _EXPORTS,
    extra_all=(
        "DEFAULT_BACKEND",
        "BackendUnsupportedError",
        "ExecutionBackend",
        "backend_names",
        "get_backend",
        "register_backend",
        "resolve_backend",
    ),
)
