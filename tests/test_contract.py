"""Names used from outside ``src/``: the import contract and the benchmark tracer.

The benchmark's tracer (``bench/tracing.py``) wraps b2weyl functions by
name.  A function deleted or renamed in the package would break its
traced runs, so every name it lists is resolved here.  Each name is
imported from its module, and ``import b2weyl`` alone loads none of them.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import b2weyl
from b2weyl import orbit
from cli_contract import child_env

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
        elements = orbit.enumerate_orbit(2)
    finally:
        tracer.uninstall()
    assert len(elements) == 9
    assert tracer.counts["orbit.enumerate_orbit.elements"] == 9
    assert not hasattr(orbit.enumerate_orbit, "__wrapped__")


def run_child(code):
    """Run ``code`` in a fresh ``python -S`` that imports b2weyl from this checkout."""
    return subprocess.run([sys.executable, "-S", "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)


def test_package_import_loads_no_module():
    result = run_child("import sys, b2weyl\n"
                       "print(b2weyl.__version__)\n"
                       "print(sorted(n for n in sys.modules if n.startswith('b2weyl.')))\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [b2weyl.__version__, "[]"]


@pytest.mark.parametrize("module", ["algebra", "closedform", "orbit", "cascade",
                                    "sinh", "weyl2", "cli"])
def test_each_module_imports_alone(module):
    result = run_child(f"import b2weyl.{module}")
    assert result.returncode == 0, result.stderr
