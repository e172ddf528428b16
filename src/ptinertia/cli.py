"""Command-line interface wiring all modules together.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or input error.  Output is line-oriented and stable across reruns;
timing appears only on lines starting with ``# ``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog, matio, search, tables, witness
from .exact import exact_inertia, exact_is_hermitian, exact_partial_transpose
from .inertia import Inertia, inertia_of, pt_inertia
from .linalg import TOL_ZERO
from .states import ENSEMBLES, State, partial_transpose, pt_array, schmidt
from .witness import min_product_expectation

ENV_TOL = "PTINERTIA_TOL_ZERO"


def default_tol() -> float:
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return TOL_ZERO
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(f"invalid {ENV_TOL}={raw!r}")
    if value <= 0:
        raise SystemExit(f"{ENV_TOL} must be positive")
    return value


def _fmt(triple: Inertia) -> str:
    return f"{triple.neg} {triple.zero} {triple.pos}"


def _parse_alarms(text: str) -> list[Inertia]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        parts = [int(p) for p in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(f"alarm triple must have three entries: {chunk!r}")
        out.append(Inertia(*parts))
    return out


def cmd_inertia(args) -> int:
    mf = matio.load_matrix(args.file)
    if args.exact:
        if mf.exact is None:
            print("error: --exact requires a matrix file with rational entries",
                  file=sys.stderr)
            return 2
        if not exact_is_hermitian(mf.exact):
            print("error: matrix is not exactly Hermitian", file=sys.stderr)
            return 2
        print(_fmt(exact_inertia(mf.exact)))
        return 0
    ine, marginal = inertia_of(mf.mat, args.tol, with_flag=True)
    if marginal:
        print("# marginal spectrum: an eigenvalue sits near the zero threshold",
              file=sys.stderr)
    print(_fmt(ine))
    return 0


def cmd_pt(args) -> int:
    mf = matio.load_matrix(args.file)
    if not mf.bipartite:
        print("error: partial transpose needs a bipartite header (m, n > 0)",
              file=sys.stderr)
        return 2
    gamma = pt_array(mf.mat, mf.m, mf.n)
    exact = exact_partial_transpose(mf.exact, mf.m, mf.n) if mf.exact else None
    text = matio.dumps_matrix(gamma, mf.m, mf.n, exact)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_schmidt(args) -> int:
    m, n = args.dims
    vec = matio.parse_ket(args.ket, m, n)
    dec = schmidt(vec, m, n)
    print(f"rank {dec.rank}")
    print("coefficients " + " ".join(f"{c:.12g}" for c in dec.coefficients))
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry_id in catalog.entry_ids():
            entry = catalog.get_entry(entry_id)
            expected = catalog.expected_inertia(entry_id)
            print(f"{entry_id} dims={entry.dims[0]}x{entry.dims[1]} "
                  f"expected=({_fmt(expected).replace(' ', ',')})")
        return 0
    if args.action == "verify":
        ids = catalog.entry_ids() if args.all or not args.id else [args.id]
        failures = 0
        for entry_id in ids:
            result = catalog.verify(entry_id, args.tol)
            exact_s = _fmt(result.exact_inertia) if result.exact_inertia else "-"
            status = "PASS" if result.passed else "FAIL"
            if not result.passed:
                failures += 1
            print(f"{entry_id} expected={_fmt(result.expected)} "
                  f"float={_fmt(result.float_inertia)} exact={exact_s} {status}")
        return 1 if failures else 0
    if args.action == "dump":
        if not args.id:
            print("error: catalog dump needs an entry id", file=sys.stderr)
            return 2
        state = catalog.build(args.id)
        exact = catalog.build_exact(args.id)
        text = matio.dumps_matrix(state.mat, state.m, state.n, exact)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    raise AssertionError(f"unhandled catalog action {args.action!r}")


def cmd_table(args) -> int:
    m, n = args.dims
    report = tables.inertia_table(m, n, args.tol)
    print(f"dims {m} {n}")
    print(f"realized {len(report.realized)}")
    for triple in sorted(report.realized):
        print(f"  {_fmt(triple)}  witness={report.realized[triple]}")
    print(f"forbidden {len(report.forbidden)}")
    for triple in sorted(report.forbidden):
        print(f"  {_fmt(triple)}  reason={report.forbidden[triple]}")
    print(f"open {len(report.open)}")
    for triple in sorted(report.open):
        print(f"  {_fmt(triple)}")
    return 0


def cmd_verify_ew(args) -> int:
    mf = matio.load_matrix(args.file)
    if not mf.bipartite:
        print("error: witness check needs a bipartite header", file=sys.stderr)
        return 2
    state = State(mf.m, mf.n, mf.mat)
    ine = pt_inertia(state, args.tol)
    gamma = partial_transpose(state.normalized())
    value, _ = min_product_expectation(gamma, mf.m, mf.n,
                                       restarts=args.restarts, seed=args.seed)
    ok = ine.neg >= 1 and value >= -witness.EW_TOL
    print(f"inertia {_fmt(ine)}")
    print(f"product_min {value:.12e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_search(args) -> int:
    cfg = search.SearchConfig(m=args.dims[0], n=args.dims[1],
                              ranks=tuple(args.ranks), ensemble=args.ensemble,
                              samples=args.samples, seed=args.seed,
                              workers=args.workers, tol_zero=args.tol)
    alarms = _parse_alarms(args.alarm) if args.alarm else []
    record = search.run_search(cfg, alarms)
    for triple, count in sorted(record.counts.items(),
                                key=lambda kv: (-kv[1], kv[0])):
        print(f"{_fmt(triple)} {count}")
    print(f"marginal {record.marginal}")
    print(f"alarms {len(record.alarms)}")
    for alarm in record.alarms:
        print(f"  alarm {_fmt(alarm.inertia)} index={alarm.index} rank={alarm.rank}")
    if args.log:
        search.append_record(args.log, record)
    print(f"# wall_time_s={record.wall_time:.3f}")
    return 0


def cmd_replay(args) -> int:
    records = search.load_records(args.log)
    if not records:
        print("error: results log is empty", file=sys.stderr)
        return 2
    if not -len(records) <= args.record < len(records):
        print(f"error: record index {args.record} out of range for "
              f"{len(records)} record(s)", file=sys.stderr)
        return 2
    record = records[args.record]
    try:
        state = search.replay(record, args.alarm)
    except IndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    got = pt_inertia(state, record.config.tol_zero)
    want = record.alarms[args.alarm].inertia
    print(f"replayed {_fmt(got)} recorded {_fmt(want)}")
    if args.dump:
        matio.save_matrix(args.dump, state.mat, state.m, state.n)
    return 0 if got == want else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptinertia",
        description="inertias of partial transposes of bipartite states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inertia", help="inertia of a matrix file")
    p.add_argument("--file", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_inertia)

    p = sub.add_parser("pt", help="partial transpose of a state file")
    p.add_argument("--file", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pt)

    p = sub.add_parser("schmidt", help="Schmidt decomposition of a ket literal")
    p.add_argument("--ket", required=True)
    p.add_argument("--dims", type=int, nargs=2, required=True)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("catalog", help="reference family registry")
    p.add_argument("action", choices=["list", "verify", "dump"])
    p.add_argument("id", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--out")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("table", help="realized/forbidden/open inertia report")
    p.add_argument("--dims", type=int, nargs=2, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify-ew", help="validate the PT of a state as a witness")
    p.add_argument("--file", required=True)
    p.add_argument("--restarts", type=int, default=witness.DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_verify_ew)

    p = sub.add_parser("search", help="randomized inertia search")
    p.add_argument("--dims", type=int, nargs=2, required=True)
    p.add_argument("--ranks", type=lambda s: [int(x) for x in s.split(",")],
                   default=[2, 3, 4, 5])
    p.add_argument("--ensemble", choices=ENSEMBLES, default="real")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--alarm", default="")
    p.add_argument("--log")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("replay", help="regenerate an alarming sample from a log")
    p.add_argument("--log", required=True)
    p.add_argument("--record", type=int, default=-1)
    p.add_argument("--alarm", type=int, default=0)
    p.add_argument("--dump")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if hasattr(args, "tol") and args.tol is None:
        args.tol = default_tol()
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
