"""Backend registry: lookup, lazy import, coercion, error handling."""

from __future__ import annotations

import pytest

from repro.backends.base import (
    DEFAULT_BACKEND,
    BackendUnsupportedError,
    ExecutionBackend,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)


class TestRegistry:
    def test_builtin_names_are_listed(self):
        names = backend_names()
        assert "reference" in names
        assert "vectorized" in names
        assert names == tuple(sorted(names))

    def test_builtins_import_lazily(self):
        reference = get_backend("reference")
        vectorized = get_backend("vectorized")
        assert reference.name == "reference"
        assert vectorized.name == "vectorized"
        # The registry holds one shared instance per name.
        assert get_backend("reference") is reference

    def test_unknown_backend_is_a_clean_error(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("cuda")

    def test_default_backend_is_reference(self):
        assert DEFAULT_BACKEND == "reference"
        assert resolve_backend(None).name == "reference"

    def test_resolve_coerces_names_and_instances(self):
        by_name = resolve_backend("vectorized")
        assert by_name.name == "vectorized"
        assert resolve_backend(by_name) is by_name
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_register_rejects_nameless_backends(self):
        class Nameless(ExecutionBackend):
            name = ""

            def run_batch(self, *args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="non-empty string name"):
            register_backend(Nameless())

    def test_replacement_reference_backend_is_honoured(self, fast_params, monkeypatch):
        # register_backend documents "(or replace)": the engine must route
        # a replacement named "reference" to its run_batch instead of the
        # built-in event-driven loop.  The engine reduces each block's
        # estimate, so the replacement returns a real estimate and records
        # that it was the one invoked.
        from repro.backends import base
        from repro.backends.reference import ReferenceBackend
        from repro.core.policies.lbp1 import LBP1
        from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine

        calls = []

        class Replacement(ExecutionBackend):
            name = "reference"

            def run_batch(self, *args, **kwargs):
                calls.append(args)
                return ReferenceBackend().run_batch(*args, **kwargs)

        monkeypatch.setitem(base._REGISTRY, "reference", Replacement())
        estimate = run_engine(
            EngineRequest(
                spec=mc_point_spec(
                    fast_params, LBP1(0.35), (10, 6), 3, seed=1, backend="reference"
                )
            )
        ).estimate
        assert calls and estimate.num_realisations == 3

    def test_unsupported_error_is_a_value_error(self):
        # Callers catching ValueError (the CLI) see backend-capability
        # failures too.
        assert issubclass(BackendUnsupportedError, ValueError)


class TestSupports:
    def test_reference_supports_everything(self, paper_params):
        from repro.core.policies.lbp1 import LBP1

        backend = get_backend("reference")
        assert backend.supports(paper_params, LBP1(0.35), (10, 6))
        assert backend.supports(
            paper_params, LBP1(0.35), (10, 6), record_trace=True
        )

    def test_vectorized_probe_matches_ensure(self, paper_params):
        from repro.core.policies.lbp1 import LBP1

        backend = get_backend("vectorized")
        assert backend.supports(paper_params, LBP1(0.35), (10, 6))
        assert not backend.supports(
            paper_params, LBP1(0.35), (10, 6), record_trace=True
        )
        with pytest.raises(BackendUnsupportedError):
            backend.ensure_supported(
                paper_params, LBP1(0.35), (10, 6), record_trace=True
            )
