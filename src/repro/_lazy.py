"""PEP 562 lazy re-exports, shared by the package ``__init__`` modules.

Several packages (:mod:`repro`, :mod:`repro.analysis`,
:mod:`repro.backends`, :mod:`repro.core`, :mod:`repro.distributed`,
:mod:`repro.montecarlo`, :mod:`repro.obs`, :mod:`repro.scenarios`,
:mod:`repro.service`) re-export their public names lazily so that
importing the package costs nothing until a name is actually used — the
discipline that keeps cache-hit CLI runs and the results service's request
path free of numpy/scipy, and block runtimes free of scipy.  The
``__getattr__``/``__dir__`` machinery is identical everywhere, so it is
built once here:

    _EXPORTS = {"repro.foo.bar": ("Baz", "qux"), ...}
    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Dict[str, Sequence[str]],
    extra_all: Sequence[str] = (),
) -> Tuple[Callable, Callable, List[str]]:
    """Build ``(__getattr__, __dir__, __all__)`` for a lazy package.

    ``exports`` maps module paths to the names re-exported from them;
    ``extra_all`` adds names that live in the package itself (e.g. a
    ``__version__`` imported eagerly) to ``__all__``.
    """
    name_to_module = {
        name: module for module, names in exports.items() for name in names
    }
    all_names = sorted(set(name_to_module) | set(extra_all))

    import sys

    def __getattr__(name: str):
        module_name = name_to_module.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        import importlib

        value = getattr(importlib.import_module(module_name), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(all_names))

    return __getattr__, __dir__, all_names
