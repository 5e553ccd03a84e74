"""repro: load balancing under random node failure and recovery.

A faithful, self-contained Python reproduction of

    S. Dhakal, M. M. Hayat, J. E. Pezoa, C. T. Abdallah, J. D. Birdwell and
    J. Chiasson, "Load Balancing in the Presence of Random Node Failure and
    Recovery", 20th International Parallel and Distributed Processing
    Symposium (IPDPS), 2006.

The package provides:

* the two load-balancing policies of the paper — the preemptive **LBP-1**
  and the reactive **LBP-2** — plus baselines (:mod:`repro.core.policies`);
* the regeneration-theory analysis of the two-node system: expected overall
  completion time (eq. (4)) and its distribution function (eq. (5))
  (:mod:`repro.core`);
* a distributed-system model with failing/recovering nodes and random,
  load-dependent transfer delays (:mod:`repro.cluster`), simulated by a
  next-event loop on reproducible named random streams (:mod:`repro.sim`);
* a Monte-Carlo harness (:mod:`repro.montecarlo`);
* an emulation of the paper's three-layer wireless test-bed, a next-event
  loop like the model's simulators (:mod:`repro.testbed`);
* experiment drivers regenerating every figure and table of the paper's
  evaluation (:mod:`repro.experiments`);
* pluggable Monte-Carlo execution backends — the event-driven reference
  simulator and a vectorized NumPy batch kernel — plus the benchmark
  harness comparing them (:mod:`repro.backends`).

Quick start
-----------
>>> from repro import paper_parameters, optimal_gain_lbp1
>>> params = paper_parameters()
>>> result = optimal_gain_lbp1(params, (100, 60))
>>> round(result.optimal_gain, 2)
0.35
"""

from repro._version import __version__

# The public names are re-exported lazily (PEP 562): importing the bare
# ``repro`` package — which every ``python -m repro`` invocation does — must
# not pay for scipy/the solver stack, so that cached scenario lookups and
# ``--help`` stay fast.  ``from repro import LBP1`` still works unchanged.
_EXPORTS = {
    "repro.core": (
        "LBP1",
        "LBP2",
        "CompletionTimeSolver",
        "GainOptimizationResult",
        "LoadBalancingPolicy",
        "NoBalancing",
        "NodeParameters",
        "ProportionalOneShot",
        "SendAllOnFailure",
        "SystemParameters",
        "Transfer",
        "TransferDelayModel",
        "completion_time_cdf",
        "completion_time_cdf_lbp1",
        "expected_completion_time",
        "expected_completion_time_lbp1",
        "expected_completion_time_no_failure",
        "optimal_gain_lbp1",
        "optimal_gain_no_failure",
        "paper_parameters",
    ),
    "repro.cluster": (
        "DistributedSystem",
        "SimulationResult",
        "Workload",
        "simulate_once",
    ),
    "repro.montecarlo": (
        "EngineReport",
        "EngineRequest",
        "MonteCarloEstimate",
        "compare_policies",
        "delay_sweep",
        "mc_point_spec",
        "run_engine",
    ),
    "repro.sim": ("RandomStreams",),
    "repro.backends": (
        "BackendUnsupportedError",
        "ExecutionBackend",
        "backend_names",
        "get_backend",
        "resolve_backend",
    ),
}

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, _EXPORTS, extra_all=("__version__",)
)
