"""The benchmark's tracer wraps securekf functions by the names its calling
modules bind them under; a refactor that drops one breaks the traced pass."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_bindings_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, attr, span in tracer.WRAPPED:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {span}) is gone"
