"""The benchmark's per-layer tracer still finds every name it hooks.

``benchmarks/tracer.py`` wraps library functions at the names their callers
look them up by, so renaming one of them breaks traced benchmark runs.  This
installs and removes the hooks without running the benchmark.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer().Tracer().install()
    patched = list(tracer._patches)
    assert patched
    try:
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
