#!/usr/bin/env python3
"""Randomized hunt for the two unresolved 3x3 inertias (3,2,4) and (4,1,4).

Runs the seeded search over several ranks and both ensembles, alarms on the
two open triples plus the three excluded ones (any hit on the latter would
signal a bug), and appends one record line per run to the results log.

Example:
    python scripts/hunt_open_inertias.py --samples 100000 --seed 7 \
        --log results/hunt.log
"""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptinertia import SearchConfig, run_search, tables
from ptinertia.search import append_record


def _configs(args) -> list[SearchConfig]:
    """One 3x3 search config per ensemble; bad input raises ValueError."""
    try:
        ranks = tuple(int(r) for r in args.ranks.split(","))
    except ValueError:
        raise ValueError(f"--ranks: cannot parse rank set {args.ranks!r}") from None
    return [SearchConfig(m=3, n=3, ranks=ranks, ensemble=ensemble,
                         samples=args.samples, seed=args.seed, workers=args.workers)
            for ensemble in ("real", "complex", "structured")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=100000,
                    help="samples per (rank set, ensemble) run")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--ranks", default="2,3,4,5",
                    help="comma-separated rank set per run")
    ap.add_argument("--log", default=None, help="append record lines here")
    args = ap.parse_args()

    try:
        configs = _configs(args)
        if args.log:
            # an unwritable log fails here, before the first run, not after it
            open(args.log, "a", encoding="utf-8").close()
    except (ValueError, OSError) as exc:
        # one line and exit 2, as the CLI does; exit 1 means alarm(s) found
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        hits = _hunt(configs, args.log)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # a closed stdout (`| head`): the records already appended stay, and
        # stdout goes to devnull so the flush at shutdown has nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if hits else 0


def _hunt(configs, log) -> int:
    """Run and print each config, appending its record to `log` first; the alarm count."""
    alarm_set = tables.OPEN_33 | set(tables.FORBIDDEN_33)
    hits = 0
    for cfg in configs:
        record = run_search(cfg, alarm_set)
        if log:
            # the record goes in before any output, which a closed stdout could cut short
            append_record(log, record)
        print(f"ensemble={cfg.ensemble} samples={cfg.samples} "
              f"marginal={record.marginal} alarms={len(record.alarms)}")
        for triple, count in sorted(record.counts.items()):
            print(f"  {triple} {count}")
        for alarm in record.alarms:
            print(f"  ALARM {alarm.inertia} index={alarm.index} rank={alarm.rank}")
            hits += 1
    if hits:
        print(f"{hits} alarm(s): replay them via the CLI before celebrating")
    else:
        print("no alarms: neither open triple appeared (nor any excluded one)")
    return hits


if __name__ == "__main__":
    raise SystemExit(main())
