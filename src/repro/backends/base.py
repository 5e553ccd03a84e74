"""The :class:`ExecutionBackend` protocol and the backend registry.

An execution backend is a strategy for producing a Monte-Carlo estimate of
the overall completion time: *how* the N independent realisations of a
``(params, policy, workload)`` triple are computed.  Three implementations
ship with the package:

* ``"reference"`` (:mod:`repro.backends.reference`) — the event-driven
  simulator of :mod:`repro.cluster`, one realisation at a time,
  in-process.  It supports every feature of the model (traces, arbitrary
  policies, deterministic delays) and is the semantic ground truth.
* ``"vectorized"`` (:mod:`repro.backends.vectorized`) — a NumPy batch
  kernel that advances *all* realisations simultaneously with array-level
  sampling.  It is an exact sampler of the same continuous-time Markov
  chain, typically one to two orders of magnitude faster, but supports only
  the CTMC-expressible subset of the model (it raises
  :class:`BackendUnsupportedError` otherwise).
* ``"auto"`` (:mod:`repro.backends.auto`) — the vectorized kernel where
  the configuration supports it, the reference simulator everywhere else.

Each :meth:`~ExecutionBackend.run_batch` call executes one seed block
in-process; fanning blocks out over executor slots is the engine's job.
Backends register themselves by name; everything that runs Monte-Carlo —
:func:`~repro.montecarlo.engine.run_engine`, the scenario orchestrator and
the CLI — accepts a backend name and resolves it here.
This module deliberately imports none of the heavy numerical stack, so the
CLI can enumerate backend names without paying for scipy.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.workload import Workload
    from repro.core.parameters import SystemParameters
    from repro.core.policies.base import LoadBalancingPolicy
    from repro.montecarlo.runner import MonteCarloEstimate
    from repro.sim.rng import SeedLike

#: The backend used when none is requested — the event-driven simulator.
DEFAULT_BACKEND = "reference"

#: Built-in backends, imported lazily on first lookup.  Each module
#: registers its backend instance at import time.
_BUILTIN_MODULES: Dict[str, str] = {
    "reference": "repro.backends.reference",
    "vectorized": "repro.backends.vectorized",
    "auto": "repro.backends.auto",
}

_REGISTRY: Dict[str, "ExecutionBackend"] = {}


class BackendUnsupportedError(ValueError):
    """A backend cannot execute the requested scenario configuration.

    Raised *before* any simulation runs, so callers can fall back to the
    reference backend (or surface a clear message) instead of silently
    producing wrong numbers.
    """


class ExecutionBackend(ABC):
    """Strategy interface: produce a Monte-Carlo estimate for one scenario.

    A backend is stateless and shareable; the registry holds one instance
    per name.  Implementations must be reproducible: the same ``seed``
    always yields the same estimate (though different backends draw
    different streams and therefore different — statistically
    indistinguishable — samples).
    """

    #: Registry key and the name shown in reports and cache metadata.
    name: str = "backend"

    @abstractmethod
    def run_batch(
        self,
        params: "SystemParameters",
        policy: "LoadBalancingPolicy",
        workload: Union["Workload", Sequence[int]],
        num_realisations: int,
        seed: "SeedLike" = None,
        horizon: Optional[float] = None,
        confidence_level: float = 0.95,
        **system_kwargs,
    ) -> "MonteCarloEstimate":
        """Run ``num_realisations`` realisations (one seed block,
        in-process) and aggregate them."""

    def ensure_supported(
        self,
        params: "SystemParameters",
        policy: "LoadBalancingPolicy",
        workload: Union["Workload", Sequence[int]],
        **system_kwargs,
    ) -> None:
        """Raise :class:`BackendUnsupportedError` for unsupported configs.

        The default accepts everything; restricted backends override this
        so callers can probe support without running anything.
        """

    def supports(
        self,
        params: "SystemParameters",
        policy: "LoadBalancingPolicy",
        workload: Union["Workload", Sequence[int]],
        **system_kwargs,
    ) -> bool:
        """Whether this backend can execute the given configuration."""
        try:
            self.ensure_supported(params, policy, workload, **system_kwargs)
        except BackendUnsupportedError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.name!r}>"


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add (or replace) a backend under its ``name``; returns it unchanged."""
    if not backend.name or not isinstance(backend.name, str):
        raise ValueError(f"backend {backend!r} needs a non-empty string name")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    """All known backend names (built-in and registered), sorted."""
    return tuple(sorted(set(_REGISTRY) | set(_BUILTIN_MODULES)))


def get_backend(name: str) -> ExecutionBackend:
    """The backend registered under ``name`` (imports built-ins on demand)."""
    if name not in _REGISTRY and name in _BUILTIN_MODULES:
        importlib.import_module(_BUILTIN_MODULES[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; known backends: "
            f"{', '.join(backend_names())}"
        ) from None


def resolve_backend(
    backend: Union[None, str, ExecutionBackend]
) -> ExecutionBackend:
    """Coerce a backend argument (name, instance or ``None``) to an instance."""
    if backend is None:
        return get_backend(DEFAULT_BACKEND)
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        return get_backend(backend)
    raise TypeError(
        f"backend must be a name, an ExecutionBackend or None, got {backend!r}"
    )
