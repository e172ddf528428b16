"""The benchmark's workloads: inputs from a seed, timed passes, output checks.

Each workload builds its inputs once from the seed (the set-up), then runs
whole passes over them in a closed loop. A pass is a fixed amount of work;
every item in it is timed and checked. Checks test invariants of the output
rather than pinned digests, so a later change of the search's seed scheme
can change record content without failing them.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from ptinertia import catalog, exact, inertia, matio, search, states, tables, witness
from ptinertia.exact import GaussianRational
from ptinertia.linalg import Inertia

from perfbench.tracing import Tracer

OPEN_33 = frozenset({Inertia(3, 2, 4), Inertia(4, 1, 4)})
EXCLUDED_33 = frozenset({Inertia(2, 4, 3), Inertia(3, 3, 3), Inertia(4, 2, 3)})


def universe(m: int, n: int) -> set[Inertia]:
    """Candidate triples: 1 <= v- <= (m-1)(n-1) and v+ >= 3, summing to m*n."""
    d = m * n
    return {Inertia(neg, d - neg - pos, pos)
            for neg in range(1, (m - 1) * (n - 1) + 1)
            for pos in range(3, d - neg + 1)}


REALIZED_33 = frozenset(universe(3, 3) - OPEN_33 - EXCLUDED_33)


@dataclass
class PassResult:
    wall_s: float = 0.0
    op_ms: list[float] = field(default_factory=list)  # per item, in item order
    checks: list[bool] = field(default_factory=list)
    samples: int = 0
    search_s: list[float] = field(default_factory=list)  # one per run_search call


def _check(what: str, fn, *args) -> bool:
    try:
        ok = bool(fn(*args))
    except Exception:
        # an item that raises counts as failed; the run goes on to the next item
        print(f"perfbench: {what} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    return ok


def run_items(result: PassResult, items, pass_no: int) -> None:
    """Time and check each ``(what, fn, args)`` item; results land in item order.

    Each pass runs its items in its own shuffled order, fixed by the pass
    number. No item always follows the same work, and each kind of item is
    spread over the whole pass rather than run as one block, so a slow or
    fast stretch of a shared machine falls on every kind alike.
    """
    order = list(range(len(items)))
    random.Random(pass_no).shuffle(order)
    timed = [(0.0, False)] * len(items)
    for k in order:
        what, fn, args = items[k]
        t0 = time.perf_counter()
        ok = _check(what, fn, *args)
        timed[k] = ((time.perf_counter() - t0) * 1e3, ok)
    result.op_ms.extend(ms for ms, _ in timed)
    result.checks.extend(ok for _, ok in timed)


class SearchWorkload:
    """Shared by both hunts: record invariants and the search counts."""

    workers = 1
    excluded: frozenset = frozenset()
    distinct_items = False  # a pass repeats calls of one kind

    def __init__(self):
        self.first_payload: dict[str, dict] = {}

    def check_record(self, record, cfg, alarm_set) -> bool:
        payload = record.payload()
        # the first pass is the reference: every later pass must repeat it
        reference = self.first_payload.setdefault(cfg.digest(), payload)
        return (sum(record.counts.values()) + record.marginal == cfg.samples
                and not self.excluded & set(record.counts)
                and all(a.inertia in alarm_set for a in record.alarms)
                and payload == reference)

    def layer_metrics(self) -> dict[str, float]:
        """Alarm and marginal counts of the first pass, fixed by the seed."""
        payloads = self.first_payload.values()
        samples = sum(p["config"]["samples"] for p in payloads)
        marginal = sum(p["marginal"] for p in payloads)
        return {"search.alarms": sum(len(p["alarms"]) for p in payloads),
                "search.marginal": marginal,
                "search.useful_frac": (samples - marginal) / samples}

    def probe_layers(self, inputs) -> None:
        """Nothing beyond the pass: the search's own calls give its layers."""


class Hunt(SearchWorkload):
    """The open-triple hunt of scripts/hunt_open_inertias.py on 3x3."""

    name = "hunt"
    ensembles = ("real", "complex", "structured")
    alarm_set = OPEN_33 | EXCLUDED_33
    excluded = EXCLUDED_33

    def __init__(self, samples: int = 2048):
        super().__init__()
        self.samples = samples

    def build_inputs(self, seed: int, workdir: Path):
        return [search.SearchConfig(m=3, n=3, ranks=(2, 3, 4, 5), ensemble=ens,
                                    samples=self.samples, seed=seed, workers=self.workers)
                for ens in self.ensembles]

    def run_pass(self, cfgs, tracer, pass_no: int) -> PassResult:
        result = PassResult(samples=sum(cfg.samples for cfg in cfgs))
        t_pass = time.perf_counter()
        run_items(result, [(f"hunt {cfg.ensemble}", self._search_ok, (cfg, tracer))
                           for cfg in cfgs], pass_no)
        result.wall_s = time.perf_counter() - t_pass
        result.search_s = [ms / 1e3 for ms in result.op_ms]
        return result

    def _search_ok(self, cfg, tracer) -> bool:
        with tracer.span("search.run_search"):
            record = search.run_search(cfg, self.alarm_set)
        return self.check_record(record, cfg, self.alarm_set)


class HuntWide(SearchWorkload):
    """A 3x4 complex hunt on two workers whose alarms are all replayed."""

    name = "hunt_wide"
    # each is about 0.3% of samples, so a pass raises a few hundred alarms
    alarm_set = frozenset({Inertia(2, 0, 10), Inertia(5, 0, 7)})
    workers = 2

    # four search spans of 4 * CHUNK samples, so each worker scans two
    def __init__(self, samples: int = 16 * search.CHUNK):
        super().__init__()
        self.samples = samples

    def build_inputs(self, seed: int, workdir: Path):
        cfg = search.SearchConfig(m=3, n=4, ranks=(2, 3, 4, 5, 6), ensemble="complex",
                                  samples=self.samples, seed=seed, workers=self.workers)
        return cfg, workdir / "hunt_wide.log"

    def run_pass(self, inputs, tracer, pass_no: int) -> PassResult:
        cfg, log = inputs
        result = PassResult(samples=cfg.samples)
        t_pass = time.perf_counter()
        with tracer.span("search.run_search"):
            record = search.run_search(cfg, self.alarm_set)
        result.search_s.append(time.perf_counter() - t_pass)
        result.checks.append(_check("hunt_wide record", self.check_record,
                                    record, cfg, self.alarm_set))
        log.unlink(missing_ok=True)
        search.append_record(log, record)
        run_items(result, [(f"hunt_wide replay {i}", self._replay_matches, (log, i, alarm))
                           for i, alarm in enumerate(record.alarms)], pass_no)
        result.wall_s = time.perf_counter() - t_pass
        return result

    @staticmethod
    def _replay_matches(log, i, alarm) -> bool:
        # what `ptinertia replay --log LOG --alarm i` does, plus the match
        loaded = search.load_records(log)[-1]
        state = search.replay(loaded, i)
        return loaded.alarms[i] == alarm and inertia.pt_inertia(state) == alarm.inertia


@dataclass
class ReproduceInputs:
    entry_ids: list[str]
    family: list[tuple[Path, Inertia]]
    dense: list[Path]
    seed: int


class Reproduce:
    """The certified report: catalog, tables, 3xN families, dense PTs, witnesses."""

    name = "reproduce"
    distinct_items = True  # every item of a pass is its own computation
    table_dims = ((2, 3), (2, 8), (3, 3), (3, 6), (3, 8))
    # npt2_iva's advertised regime rule is not attainable at these points:
    # exact arithmetic certifies (2,2,5) at D = 0 and (3,0,6) at D > 0
    iva_defect = (({"a": 0, "b": 1}, Inertia(2, 2, 5)),
                  ({"a": 0, "b": 2}, Inertia(3, 0, 6)))

    def __init__(self, family_ns=(4, 6, 8),
                 dense_ranks=(((3, 3), (2, 3, 5, 9)), ((3, 4), (2, 4, 6, 12)),
                              ((3, 5), (3, 5, 8, 15)))):
        self.family_ns = family_ns
        self.dense_ranks = dense_ranks
        self.probe_ms: dict[int, float] = {}  # fastest exact_inertia per dimension

    @staticmethod
    def _exact(gamma: np.ndarray):
        # dyadic and integer floats convert to Fraction without rounding
        return [[GaussianRational(Fraction(z.real), Fraction(z.imag)) for z in row]
                for row in np.asarray(gamma, dtype=complex)]

    @classmethod
    def _write_exact(cls, path: Path, gamma: np.ndarray, m: int, n: int) -> None:
        path.write_text(matio.dumps_matrix(gamma, m, n, exact=cls._exact(gamma)),
                        encoding="utf-8")

    def build_inputs(self, seed: int, workdir: Path) -> ReproduceInputs:
        family = []
        for n in self.family_ns:
            for k, (want, state) in enumerate(catalog.lemma3n_family(n)):
                path = workdir / f"family_3x{n}_{k:03d}.txt"
                self._write_exact(path, states.partial_transpose(state), 3, n)
                family.append((path, want))
        # integer Wishart states rho = R R^T, exactly of rank r
        rng = np.random.default_rng(seed)
        dense = []
        for (m, n), ranks in self.dense_ranks:
            for r in ranks:
                big_r = rng.integers(-3, 4, size=(m * n, r))
                path = workdir / f"dense_{m}x{n}_r{r}.txt"
                self._write_exact(path, states.pt_array(big_r @ big_r.T, m, n), m, n)
                dense.append(path)
        return ReproduceInputs(catalog.entry_ids(), family, dense, seed)

    def run_pass(self, inp: ReproduceInputs, tracer, pass_no: int) -> PassResult:
        items = [(f"verify {eid}", self._verify_ok, (eid,)) for eid in inp.entry_ids]
        items += [(f"npt2_iva defect at {params}", self._iva_defect_shows, (params, certified))
                  for params, certified in self.iva_defect]
        items += [(f"inertia_table({m},{n})", self._table_ok, (m, n)) for m, n in self.table_dims]
        items.append(("table1_report", self._table1_ok, ()))
        items += [(f"certify {path.name}", self._family_ok, (path, want, tracer))
                  for path, want in inp.family]
        items += [(f"certify {path.name}", self._dense_ok, (path, tracer)) for path in inp.dense]
        items += [(f"is_witness {eid}", self._witness_ok, (eid,)) for eid in inp.entry_ids]
        result = PassResult()
        t_pass = time.perf_counter()
        run_items(result, items, pass_no)
        result.wall_s = time.perf_counter() - t_pass
        return result

    @staticmethod
    def _verify_ok(eid: str) -> bool:
        return catalog.verify(eid).passed

    @staticmethod
    def _iva_defect_shows(params, certified) -> bool:
        r = catalog.verify("npt2_iva", **params)
        return (not r.passed and r.exact_inertia == certified
                and r.float_inertia == certified)

    @staticmethod
    def _table_ok(m: int, n: int) -> bool:
        rep = tables.inertia_table(m, n)
        covered = set(rep.realized) | set(rep.forbidden) | rep.open
        if covered != universe(m, n):
            return False
        if (m, n) == (3, 3):
            return (set(rep.realized) == REALIZED_33 and set(rep.forbidden) == EXCLUDED_33
                    and rep.open == OPEN_33)
        # chain-seed constructions: (n-1)^2 triples on 2xN, (n-1)(2n-1) on 3xN
        return len(rep.realized) == (n - 1) * (n - 1 if m == 2 else 2 * n - 1)

    @staticmethod
    def _table1_ok() -> bool:
        groups = tables.table1_report()
        targets = {edge.target for edges in groups.values() for edge in edges}
        return (set(groups) == {Inertia(1, 2, 3), Inertia(1, 1, 4), Inertia(2, 0, 4)}
                and targets == REALIZED_33)

    @staticmethod
    def _family_ok(path: Path, want: Inertia, tracer) -> bool:
        mf = matio.load_matrix(path)
        with tracer.span("exact.exact_inertia.sparse"):
            got = exact.exact_inertia(mf.exact)
        return got == want

    @staticmethod
    def _dense_ok(path: Path, tracer) -> bool:
        mf = matio.load_matrix(path)
        with tracer.span("exact.exact_inertia.dense"):
            got = exact.exact_inertia(mf.exact)
        float_ine, marginal = inertia.inertia_of(mf.mat, with_flag=True)
        return marginal or float_ine == got

    @staticmethod
    def _witness_ok(eid: str) -> bool:
        witness.is_witness(catalog.build(eid))
        return True

    # exact.max_dim is the dense dimension exact_inertia certifies in this time
    probe_budget_ms = 50.0

    def probe_layers(self, inp) -> None:
        """Certify dense full-rank 3xn integer-Wishart PTs, n = 2, 3, ..., 12,
        until one takes longer than the budget; keep each one's fastest time."""
        rng = np.random.default_rng([inp.seed, 1])
        for n in range(2, 13):
            big_r = rng.integers(-3, 4, size=(3 * n, 3 * n))
            mat = self._exact(states.pt_array(big_r @ big_r.T, 3, n))
            t0 = time.perf_counter()
            exact.exact_inertia(mat)
            ms = (time.perf_counter() - t0) * 1e3
            self.probe_ms[3 * n] = min(ms, self.probe_ms.get(3 * n, ms))
            if ms > self.probe_budget_ms:
                break

    def layer_metrics(self) -> dict[str, float]:
        """The budget's dimension, interpolated on log-log axes between the
        largest probed dimension within it and the next one."""
        within = [d for d, ms in self.probe_ms.items() if ms <= self.probe_budget_ms]
        if not within:
            return {"exact.max_dim": 0.0}
        lo = max(within)
        if lo + 3 not in self.probe_ms:  # the whole ladder fits the budget
            return {"exact.max_dim": float(lo)}
        hi = lo + 3
        t_lo, t_hi = self.probe_ms[lo], self.probe_ms[hi]
        slope = np.log(hi / lo) / np.log(t_hi / t_lo)
        return {"exact.max_dim": float(lo * (self.probe_budget_ms / t_lo) ** slope)}


WORKLOADS = {cls.name: cls for cls in (Hunt, HuntWide, Reproduce)}

# Public functions traced by patching, with the span name each records.
# Library-internal calls through these module attributes are traced too.
TRACED = [
    ("ptinertia.catalog", "build", "catalog.build"),
    ("ptinertia.catalog", "build_exact", "catalog.build_exact"),
    ("ptinertia.catalog", "verify", "catalog.verify"),
    ("ptinertia.catalog", "lemma3n_family", "catalog.lemma3n_family"),
    ("ptinertia.tables", "inertia_table", "tables.inertia_table"),
    ("ptinertia.tables", "table1_report", "tables.table1_report"),
    ("ptinertia.tables", "embed", "inertia.embed"),
    ("ptinertia.witness", "is_witness", "witness.is_witness"),
    ("ptinertia.witness", "min_product_expectation", "witness.min_product_expectation"),
    ("ptinertia.matio", "load_matrix", "matio.load_matrix"),
    ("ptinertia.search", "append_record", "search.append_record"),
    ("ptinertia.search", "load_records", "search.load_records"),
    ("ptinertia.search", "replay", "search.replay"),
    ("ptinertia.inertia", "pt_inertia", "inertia.pt_inertia"),
]

# Layers the search's scan calls per sample or per chunk, wrapped under the
# names ptinertia.search looks them up by and summed over each scan call.
SCAN = ("ptinertia.search", "_scan_range")
SUMMED = [
    ("ptinertia.search", "random_state", "states.random_state"),
    ("ptinertia.search", "pt_array", "states.pt_array"),
    ("numpy.linalg", "eigvalsh", "search.eigensolve"),
]


def new_tracer() -> Tracer:
    return Tracer(SUMMED, SCAN)


def run_passes(workload, inputs, seconds: float, tracer) -> list[PassResult]:
    """Whole passes until `seconds` have elapsed, at least one.

    With tracing on, each pass is followed by the workload's own layer
    probes (reproduce's exact.max_dim ladder), outside the pass's wall time.
    """
    passes = []
    t_end = time.perf_counter() + seconds
    with tracer.patched(TRACED):
        while not passes or time.perf_counter() < t_end:
            passes.append(workload.run_pass(inputs, tracer, pass_no=len(passes)))
            if tracer.enabled:
                workload.probe_layers(inputs)
    return passes
