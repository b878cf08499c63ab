"""No module of the package calls the market's and the standardization's
tracer-only views.

The shipped stages price with ``price_pool`` and standardize with
``standardize_table``. The names below stay in their modules only because
the benchmark's tracer (``perfbench/tracing.py``, ``TRACED``) looks them
up by name; once the benchmark stops naming them, this list is what may
be deleted. ``standardize_column`` is not on it: ``standardize_table``
calls it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import market_select

TRACER_ONLY = {"lmsr_prices", "lmsr_cost", "topic_prices", "topic_cost", "rank_normalize"}
PACKAGE = Path(market_select.__file__).resolve().parent


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every reference to a tracer-only name, skipping the
    body of each tracer-only ``def``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in TRACER_ONLY:
            continue
        if isinstance(node, ast.Name) and node.id in TRACER_ONLY:
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in TRACER_ONLY:
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias) and node.name in TRACER_ONLY:
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.Constant) and node.value in TRACER_ONLY:
            found.append((node.value, node.lineno))
        found.extend(_references(node))
    return found


def test_no_package_module_refers_to_a_tracer_only_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {}
    for path in modules:
        refs = _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if refs:
            found[path.name] = refs
    assert found == {}


def test_the_tracer_only_names_are_defined_but_not_exported():
    from market_select import market, standardize

    for name in TRACER_ONLY | {"standardize_column"}:
        assert callable(getattr(market, name, None) or getattr(standardize, name))
        assert name not in market_select.__all__


def test_the_check_sees_a_call_an_import_and_a_string_but_not_the_def():
    source = (
        "from .market import lmsr_prices\n"
        "def lmsr_cost(q, beta):\n    return lmsr_cost(q, beta)\n"
        "def f(pool):\n    return market.topic_cost(pool), 'rank_normalize'\n"
    )
    assert sorted(_references(ast.parse(source))) == [
        ("lmsr_prices", 1), ("rank_normalize", 5), ("topic_cost", 5)]
