"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module and name; a name it lists that the package lost would break
`perfbench/run.py --trace 1`."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    # compiled from source and run in a fresh namespace: nothing is written
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         namespace)
    traced = namespace["TRACED"]
    assert traced
    for module_name, fn_name, _ in traced:
        module = importlib.import_module(f"ternary_squares.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)
