"""Names used from outside ``src/``: the package exports and the benchmark tracer.

The benchmark's tracer (``bench/tracing.py``) wraps b2weyl functions by
name.  A function deleted or renamed in the package would break its
traced runs, so every name it lists is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import b2weyl

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize("name", TRACING.SPAN_NAMES)
def test_every_traced_function_resolves(name):
    mod_name, fn_name = name.split(".")
    module = importlib.import_module(f"b2weyl.{mod_name}")
    assert callable(getattr(module, fn_name))


def test_tracer_counts_the_orbit_it_wraps():
    tracer = TRACING.Tracer()
    tracer.install()
    try:
        elements = b2weyl.orbit.enumerate_orbit(2)
    finally:
        tracer.uninstall()
    assert len(elements) == 9
    assert tracer.counts["orbit.enumerate_orbit.elements"] == 9
    assert not hasattr(b2weyl.orbit.enumerate_orbit, "__wrapped__")


def test_every_exported_name_resolves():
    missing = [name for name in b2weyl.__all__ if not hasattr(b2weyl, name)]
    assert missing == []
