"""The benchmark's tracer wraps each layer's public boundary by name; a
renamed or removed boundary would silently read 0 in every traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracer = _tracer_module()
    hooks = [entry[:3] for entry in tracer.SPANNED + tracer.COUNTED]
    assert hooks
    for module, cls, attr in hooks:
        owner = importlib.import_module(f"csmverify.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{module}.{cls}.{attr}"
