"""The benchmark's layer tracer names functions of ``market_select`` by
string; a refactor that renames or removes one would silently drop its
span. perfbench/tracing.py is loaded here read-only, without installing
the tracer."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_every_counter_is_traced():
    tracing = _load_tracing()
    traced = set()
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"market_select.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"market_select.{module}.{name}"
            traced.add(f"{module}.{name}")
    assert set(tracing.COUNTERS) <= traced
