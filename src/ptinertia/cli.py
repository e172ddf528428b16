"""Command-line interface wiring all modules together.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or input error.  Output is line-oriented and stable across reruns;
timing appears only on lines starting with ``# ``.

The parser declares every argument each command (and each ``catalog``
action) takes, so it refuses any other with one ``error:`` line.  A command
raises on bad input instead of printing; ``main`` writes that one line.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog, matio, search, tables, witness
from .exact import exact_inertia
from .inertia import Inertia, inertia_of, pt_inertia
from .linalg import TOL_ZERO, check_tol_zero
from .states import ENSEMBLES, State, pt_array, schmidt

ENV_TOL = "PTINERTIA_TOL_ZERO"


def default_tol() -> float:
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return TOL_ZERO
    try:
        return check_tol_zero(float(raw))
    except ValueError:
        raise ValueError(f"invalid {ENV_TOL}={raw!r}: must be a finite number > 0") from None


def _fmt(triple: Inertia) -> str:
    return f"{triple.neg} {triple.zero} {triple.pos}"


def _parse_alarms(text: str) -> list[Inertia]:
    """Alarm triples "(neg,zero,pos);..."; search.check_alarms rejects an impossible one."""
    out = []
    for chunk in text.split(";"):
        triple = chunk.strip()
        chunk = triple.strip("()")
        if not chunk:
            continue
        try:
            parts = [int(p) for p in chunk.split(",")]
        except ValueError:
            raise ValueError(f"--alarm: cannot parse triple {triple!r}") from None
        if len(parts) != 3:
            raise ValueError(f"alarm triple must have three entries: {chunk!r}")
        out.append(Inertia(*parts))
    return out


def _write_matrix(out, mat, m: int, n: int, exact) -> None:
    """Matrix-file text to the path `out`, or to stdout when it is unset."""
    if out:
        matio.save_matrix(out, mat, m, n, exact)
    else:
        sys.stdout.write(matio.dumps_matrix(mat, m, n, exact))


def cmd_inertia(args) -> int:
    mf = matio.load_matrix(args.file)
    if args.exact:
        if mf.exact is None:
            raise ValueError("--exact requires a matrix file with rational entries")
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
        raise ValueError("partial transpose needs a bipartite header (m, n > 0)")
    gamma = pt_array(mf.mat, mf.m, mf.n)
    exact = pt_array(mf.exact, mf.m, mf.n) if mf.exact is not None else None
    _write_matrix(args.out, gamma, mf.m, mf.n, exact)
    return 0


def cmd_schmidt(args) -> int:
    m, n = args.dims
    vec = matio.parse_ket(args.ket, m, n)
    dec = schmidt(vec, m, n)
    print(f"rank {dec.rank}")
    print("coefficients " + " ".join(f"{c:.12g}" for c in dec.coefficients))
    return 0


def cmd_catalog_list(args) -> int:
    for entry_id in catalog.entry_ids():
        m, n = catalog.get_entry(entry_id).dims
        print(f"{entry_id} dims={m}x{n} expected={catalog.expected_inertia(entry_id)}")
    return 0


def cmd_catalog_verify(args) -> int:
    results = [catalog.verify(args.id, args.tol)] if args.id else catalog.verify_all(args.tol)
    for result in results:
        exact_s = _fmt(result.exact_inertia) if result.exact_inertia else "-"
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.entry_id} expected={_fmt(result.expected)} "
              f"float={_fmt(result.float_inertia)} exact={exact_s} {status}")
    return 0 if all(result.passed for result in results) else 1


def cmd_catalog_dump(args) -> int:
    state = catalog.build(args.id)
    exact = catalog.build_exact(args.id)
    _write_matrix(args.out, state.mat, state.m, state.n, exact)
    return 0


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
    # checked before the file is read; the default --restarts 0 runs no minimiser
    for name in ("restarts", "seed"):
        if getattr(args, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(args, name)}")
    mf = matio.load_matrix(args.file)
    if not mf.bipartite:
        raise ValueError("witness check needs a bipartite header")
    # the inertia line is the triple is_witness decided on, from either outcome
    try:
        w = witness.is_witness(State(mf.m, mf.n, mf.mat), args.tol, exact=mf.exact)
    except witness.NotAWitness as exc:
        print(f"inertia {_fmt(exc.inertia)}")
        print(f"# {exc}", file=sys.stderr)
        print("FAIL")
        return 1
    print(f"inertia {_fmt(w.inertia)}")
    print(f"certified {w.certified}")
    if args.restarts:
        # a diagnostic upper bound on the product minimum; it decides no verdict
        product_min, _ = witness.min_product_expectation(w.mat, mf.m, mf.n,
                                                         args.restarts, args.seed)
        print(f"product_min {product_min:.12e}")
    print("PASS")
    return 0


def cmd_search(args) -> int:
    cfg = search.SearchConfig(m=args.dims[0], n=args.dims[1],
                              ranks=tuple(args.ranks), ensemble=args.ensemble,
                              samples=args.samples, seed=args.seed,
                              workers=args.workers, tol_zero=args.tol)
    alarms = search.check_alarms(cfg, _parse_alarms(args.alarm))
    if args.log:
        # an unwritable log fails here, before the search, not after it
        open(args.log, "a", encoding="utf-8").close()
    record = search.run_search(cfg, alarms)
    if args.log:
        # the record goes in before any output, which a closed stdout could cut short
        search.append_record(args.log, record)
    for triple, count in sorted(record.counts.items(),
                                key=lambda kv: (-kv[1], kv[0])):
        print(f"{_fmt(triple)} {count}")
    print(f"marginal {record.marginal}")
    print(f"alarms {len(record.alarms)}")
    for alarm in record.alarms:
        print(f"  alarm {_fmt(alarm.inertia)} index={alarm.index} rank={alarm.rank}")
    print(f"# wall_time_s={record.wall_time:.3f}")
    return 0


def cmd_replay(args) -> int:
    records = search.load_records(args.log)
    if not records:
        raise ValueError("results log is empty")
    if not -len(records) <= args.record < len(records):
        raise ValueError(f"record index {args.record} out of range for "
                         f"{len(records)} record(s)")
    record = records[args.record]
    try:
        state = search.replay(record, args.alarm)
    except IndexError as exc:
        raise ValueError(str(exc)) from None
    if args.dump:
        # the dump goes out before the verdict, so an unwritable path prints no verdict
        matio.save_matrix(args.dump, state.mat, state.m, state.n)
    got = pt_inertia(state, record.config.tol_zero)
    want = record.alarms[args.alarm].inertia
    print(f"replayed {_fmt(got)} recorded {_fmt(want)}")
    return 0 if got == want else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is one `error:` line and exit 2; add_subparsers passes the class on."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _rank_set(text: str) -> list[int]:
    try:
        return [int(r) for r in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse rank set {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    actions = sub.add_parser("catalog", help="reference family registry").add_subparsers(
        dest="action", required=True)
    actions.add_parser("list", help="ids, dims and expected triples").set_defaults(
        func=cmd_catalog_list)
    p = actions.add_parser("verify", help="verify one entry, or --all (the default)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("id", nargs="?")
    which.add_argument("--all", action="store_true")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_catalog_verify)
    p = actions.add_parser("dump", help="write an entry's matrix file")
    p.add_argument("id")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog_dump)

    p = sub.add_parser("table", help="realized/forbidden/open inertia report")
    p.add_argument("--dims", type=int, nargs=2, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify-ew", help="validate the PT of a state as a witness")
    p.add_argument("--file", required=True)
    p.add_argument("--restarts", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_verify_ew)

    p = sub.add_parser("search", help="randomized inertia search")
    p.add_argument("--dims", type=int, nargs=2, required=True)
    p.add_argument("--ranks", type=_rank_set, default=[2, 3, 4, 5])
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
    try:
        if hasattr(args, "tol"):
            args.tol = default_tol() if args.tol is None else check_tol_zero(args.tol)
        return args.func(args)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
