"""The traced benchmark wraps tubecbf attributes by name from outside; a
rename or removal of one of them must fail here, not mid-benchmark."""

import importlib.util
from pathlib import Path

import tubecbf

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_attribute():
    modules = (tubecbf.synthesis, tubecbf.simulate, tubecbf.cbf)
    before = [dict(vars(m)) for m in modules]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(tubecbf)
        assert [dict(vars(m)) for m in modules] != before
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
