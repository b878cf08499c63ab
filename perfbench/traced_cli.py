"""Run one ``market_select`` CLI command with layer tracing installed.

Usage: python traced_cli.py SPANS_JSON RARITY_NPY -- <cli arguments>

Writes the spans to SPANS_JSON when the command ends. If the command built
a signal table with a ``rarity`` column, that column is saved to RARITY_NPY
for the benchmark's kNN oracle check. Exits with the command's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_path, rarity_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON RARITY_NPY -- <cli arguments>")
    tracer = Tracer(keep=("signals.build_signal_table",))
    tracer.install()
    from market_select import cli

    code = cli.main(cli_args)
    tracer.dump(Path(spans_path))
    table = tracer.results.get("signals.build_signal_table")
    if table is not None and "rarity" in table.columns:
        np.save(rarity_path, table.columns["rarity"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
