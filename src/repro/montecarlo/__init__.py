"""Monte-Carlo harness: the unified execution engine, statistics, sweeps.

The paper validates its analytical model with Monte-Carlo simulation (500
realisations for Table 2, the "MC Simulation" curve of Fig. 3).  This
package provides the corresponding machinery on top of
:mod:`repro.cluster`:

* :mod:`repro.montecarlo.engine` — **the** Monte-Carlo engine: every
  ensemble is planned into seed blocks, executed through a shard executor
  (inline, the process-wide warm pool, a caller's futures pool, or the
  service's remote worker fleet) and merged exactly.  Serial, pooled,
  vectorized and sharded runs are all the same pipeline with different
  knobs;
* :mod:`repro.montecarlo.runner` — the estimate type and the per-block
  execution primitive (:class:`MonteCarloRunner`);
* :mod:`repro.montecarlo.statistics` — summary statistics, mergeable
  accumulators (exact-sum moments, histograms, quantile sketches) and
  empirical CDFs;
* :mod:`repro.montecarlo.sweep` — delay sweeps (Table 3) and policy
  comparisons, both routed through the engine (Fig. 3's gain sweep is
  its experiment driver's own loop);
* :mod:`repro.montecarlo.pooling` — the shared pool-size cap.

Re-exports are lazy (PEP 562): importing this package costs nothing, which
keeps numpy/scipy off the service's request path (executor resolution
imports :mod:`repro.montecarlo.pooling`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.montecarlo.engine": (
        "EngineReport",
        "EngineRequest",
        "mc_point_spec",
        "run_engine",
    ),
    "repro.montecarlo.pooling": ("cap_pool_size",),
    "repro.montecarlo.runner": (
        "MonteCarloEstimate",
        "MonteCarloRunner",
    ),
    "repro.montecarlo.statistics": (
        "ExactSum",
        "MergeableHistogram",
        "QuantileSketch",
        "RunningStatistics",
        "SummaryStatistics",
        "empirical_cdf",
        "summarize",
    ),
    "repro.montecarlo.sweep": (
        "DelaySweepResult",
        "compare_policies",
        "delay_sweep",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
