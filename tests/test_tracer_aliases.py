"""The benchmark tracer wraps portchain names it binds by string; each must
still exist, or `perfbench/run.py --trace 1` fails on the renamed one."""
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_namespace() -> dict:
    # compiled from its source text, so no bytecode is written next to it
    namespace: dict = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_tracer_aliases_resolve():
    tracer = _tracer_namespace()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer["FUNCTION_ALIASES"]
        if not hasattr(importlib.import_module(module), attr)
    ]
    missing += [
        f"{module}.{cls}.{attr}"
        for module, cls, attr, _ in tracer["METHODS"]
        if attr not in vars(getattr(importlib.import_module(module), cls, object))
    ]
    assert tracer["FUNCTION_ALIASES"] and tracer["METHODS"]
    assert missing == []
