#!/usr/bin/env python
"""Regenerate ``tests/golden_fingerprints.json``.

Recomputes the fingerprint of every point in the frozen matrix (the
workload registry × lane counts × fault-plan and policy variants, plus
the seeded random programs — the same enumeration
``tests/test_golden_fingerprints.py`` checks against) and rewrites the
golden file. Run it after an *intentional* behaviour change::

    PYTHONPATH=src python tools/freeze_fingerprints.py

then review the JSON diff: each changed key names the workload×config
whose bit-level behaviour moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", type=Path,
        default=REPO_ROOT / "tests" / "golden_fingerprints.json",
        help="where to write the frozen fingerprints")
    parser.add_argument(
        "--check", action="store_true",
        help="do not write; exit 1 if the file would change")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT))
    from tests.test_golden_fingerprints import golden_matrix

    fingerprints = {}
    for key, compute in golden_matrix().items():
        fingerprints[key] = compute()
        print(f"  {key:<40} {fingerprints[key][:16]}…")

    payload = {
        "_comment": (
            "Frozen fingerprints (workload × lanes × variant, plus "
            "seeded random programs). "
            "Regenerate with: PYTHONPATH=src python "
            "tools/freeze_fingerprints.py"),
        "fingerprints": fingerprints,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.check:
        current = (args.output.read_text()
                   if args.output.exists() else "")
        if current != text:
            print(f"{args.output} is stale", file=sys.stderr)
            return 1
        print(f"{args.output} is up to date")
        return 0
    args.output.write_text(text)
    print(f"wrote {len(fingerprints)} fingerprints to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
