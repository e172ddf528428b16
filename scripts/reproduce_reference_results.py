#!/usr/bin/env python3
"""One-shot reproduction of the headline results.

Re-verifies the whole catalog (float + exact) and prints the 3x3 realized /
forbidden / open report, both through the CLI (``ptinertia catalog verify
--all`` and ``ptinertia table --dims 3 3``), so their lines are the CLI's and
PTINERTIA_TOL_ZERO sets their zero band as it does there.  Then prints the
2x3 -> 3x3 relationship table and the 3xN family counts for n = 3, 4, which
no command prints.  Exits 1 when either command exits nonzero.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptinertia import cli, lemma3n_family, table1_report


def main() -> int:
    print("== catalog ==")
    # the exit statuses of the two commands count as the failures
    failures = cli.main(["catalog", "verify", "--all"])

    print("\n== 3x3 inertia sets ==")
    failures += cli.main(["table", "--dims", "3", "3"])

    print("\n== 2x3 -> 3x3 table ==")
    for source, edges in table1_report().items():
        targets = ", ".join(str(e.target) for e in edges)
        print(f"{source} -> {targets}")

    print("\n== 3xN families ==")
    for n in (3, 4):
        family = lemma3n_family(n)
        print(f"n={n}: {len(family)} verified inertias")

    print("\nall good" if not failures else f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
