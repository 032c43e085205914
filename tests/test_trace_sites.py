"""The benchmark's tracer (bench/hetbench/tracing.py) replaces each traced
function at every module that imports it by name, and fails when a module
lacks the name.  Some of those imports exist only for the tracer, so this
test keeps them from being dropped as unused."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from hetbench.tracing import PACKAGE, SITES  # noqa: E402


@pytest.mark.parametrize("name", sorted(SITES))
def test_every_import_site_holds_the_traced_function(name):
    home, func = name.split(".", 1)
    original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), func)
    for site in SITES[name]:
        module = importlib.import_module(f"{PACKAGE}.{site}")
        assert getattr(module, func, None) is original, f"{PACKAGE}.{site} lacks {func}"
