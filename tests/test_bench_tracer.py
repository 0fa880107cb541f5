"""The benchmark's tracer (``skewbench/tracer.py``) wraps package functions by name,
so each name it lists must exist, and removing its wrappers must restore them."""

import importlib.util
from pathlib import Path

import skewlie.cli  # noqa: F401  (the tracer patches every module it lists)
import skewlie.sampler  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "skewbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("skewbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracer.install()  # an AttributeError names a wrapped function the package lacks
    try:
        patches = tracer._patches
        assert all(getattr(mod, attr) is wrapper for mod, attr, _, wrapper in patches)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is original for mod, attr, original, _ in patches)
    patched = {(mod.__name__, attr) for mod, attr, _, _ in patches}
    assert patched >= {(f"skewlie.{mod}", name)
                       for mod, names in tracing.WRAPPED.items() for name in names}
