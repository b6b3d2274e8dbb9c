"""README.md names package functions in backticks as calls, `name(` or
`module.name(`; a name the package lost or renamed leaves the README
describing code that is gone."""

import builtins
import importlib
import math
import pkgutil
import re
from pathlib import Path

import ternary_squares

README = Path(__file__).resolve().parents[1] / "README.md"

# builtins, and math's functions (gcd) written as notation
EXEMPT = set(dir(builtins)) | set(dir(math))


def _modules():
    # __main__ runs the CLI when imported
    return {info.name: importlib.import_module(f"ternary_squares.{info.name}")
            for info in pkgutil.iter_modules(ternary_squares.__path__)
            if info.name != "__main__"}


def test_readme_call_names_resolve():
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(",
                           README.read_text(encoding="utf-8")))
    assert names
    modules = _modules()
    missing = []
    for name in sorted(names - EXEMPT):
        module_name, _, attr = name.rpartition(".")
        if module_name:
            found = hasattr(modules.get(module_name), attr)
        else:
            found = any(hasattr(m, attr) for m in modules.values())
        if not found:
            missing.append(name)
    assert missing == []
