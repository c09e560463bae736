"""Run ``repro serve`` through the CLI, with this process's ledger.

Usage::

    python3 hostbench/serve_main.py --out DIR [--trace] serve [ARGS...]

Everything after the options goes to ``repro.cli.main`` unchanged. With
``--trace`` the ledger wraps the program's entry points before the server
starts. Either way, once the server has stopped (SIGTERM is a graceful
stop), the process writes ``DIR/proc-<pid>.json``: the DES events it
drained, its peak RSS and, when traced, its spans.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402 - needs the paths above


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args, rest = parser.parse_known_args()
    record = ledger.Ledger(args.out)
    if args.trace:
        record.install()
    from repro.cli import main as repro_main

    code = repro_main(rest)
    record.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
