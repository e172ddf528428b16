"""Reproducible randomized search over PT inertias of random states.

Seed scheme 2: the samples are cut into aligned blocks of BLOCK indices, and
block b draws from one generator seeded by numpy's SeedSequence hash of
(master seed, 2, b).  The samples of a block draw from it in index order, so
sample i is fixed by the seed, the index and the ranks of the samples before
it in its block.  Block boundaries depend only on the index, so the tally is
deterministic and independent of chunking and worker count, and any alarming
sample can be regenerated bit-for-bit: replay reseeds its block generator and
skips the normals of the earlier samples in one draw.  Record lines name
the scheme, and a line under any other scheme, or under none, is refused.
"""

from __future__ import annotations

import hashlib
import json
import operator
import time
from dataclasses import dataclass
from itertools import chain, repeat
from multiprocessing import Pool
from operator import itemgetter
from typing import Iterable, NamedTuple

import numpy as np

from .linalg import Inertia, TOL_ZERO, check_tol_zero, spectrum_inertia
from .states import ENSEMBLES, State, pt_array, random_state

CHUNK = 2048
BLOCK = 16  # samples per generator; divides CHUNK, so scan spans start on a block
SEED_SCHEME = 2  # the scheme run_search draws under and replay regenerates


def _as_int(field: str, value) -> int:
    """value as a Python int; bools, floats and other non-integers raise ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SearchConfig:
    m: int
    n: int
    ranks: tuple[int, ...]
    ensemble: str = "real"
    samples: int = 1000
    seed: int = 0
    workers: int = 1
    tol_zero: float = TOL_ZERO

    def __post_init__(self):
        # m, n, samples, seed, workers and each rank are integers: numpy integers
        # become Python ints (the config is hashed as JSON), a float or bool is refused
        for field in ("m", "n", "samples", "seed", "workers"):
            object.__setattr__(self, field, _as_int(field, getattr(self, field)))
        object.__setattr__(self, "ranks", tuple(_as_int("rank", r) for r in self.ranks))
        if self.m < 1 or self.n < 1:
            raise ValueError(f"local dimensions must be >= 1, got ({self.m},{self.n})")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}, "
                             f"expected one of {', '.join(ENSEMBLES)}")
        if self.ensemble == "structured" and self.m < 2:
            raise ValueError("structured ensemble needs m >= 2")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        check_tol_zero(self.tol_zero)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.ranks:
            raise ValueError("rank set must be nonempty")
        for r in self.ranks:
            if not 1 <= r <= self.m * self.n:
                raise ValueError(f"rank {r} out of [1, {self.m * self.n}]")

    def rank_for(self, index: int) -> int:
        # round-robin keeps the allocation deterministic for any sample count
        return self.ranks[index % len(self.ranks)]

    def canonical(self) -> dict:
        # workers are an execution detail and must not affect the result
        return {
            "m": self.m, "n": self.n, "ranks": list(self.ranks),
            "ensemble": self.ensemble, "samples": self.samples,
            "seed": self.seed, "tol_zero": self.tol_zero,
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class Alarm(NamedTuple):
    inertia: Inertia
    index: int
    rank: int
    seed_path: tuple[int, ...]  # entropy of the generator the sample drew from


def _alarms_from_json(raw: list) -> list[Alarm]:
    """Logged alarms: int index and rank, inertia a list of 3 ints, seed_path a
    list of ints.  replay parses every alarm of a record, so the checks run
    column-wise in C and the tuples come from tuple.__new__, as in _make."""
    inertias, indices, ranks, paths = (list(map(itemgetter(key), raw))
                                       for key in ("inertia", "index", "rank", "seed_path"))
    if not (set(map(type, inertias + paths)) <= {list} and set(map(len, inertias)) <= {3}
            and set(map(type, chain(indices, ranks, *inertias, *paths))) <= {int}):
        raise ValueError("alarms need int index and rank, an inertia of 3 ints "
                         "and a seed_path of ints")
    new = tuple.__new__
    return list(map(new, repeat(Alarm), zip(map(new, repeat(Inertia), inertias),
                                            indices, ranks, map(tuple, paths))))


def _counts_from_json(raw: list, cfg: SearchConfig, marginal) -> dict[Inertia, int]:
    """Logged counts: each inertia 3 non-negative ints summing to m*n, each count
    and the marginal tally a non-negative int, and together they make up
    cfg.samples, as run_search asserts on write.  Checked column-wise, as the
    alarms are."""
    counts = {Inertia(*k): v for k, v in raw}
    if len(counts) < len(raw):
        twice = next(k for k in counts if sum(Inertia(*t) == k for t, _ in raw) > 1)
        raise ValueError(f"counts list inertia {twice} more than once")
    d = cfg.m * cfg.n
    if not (set(map(type, chain(*counts))) <= {int}
            and min(chain(*counts), default=0) >= 0 and set(map(sum, counts)) <= {d}):
        raise ValueError(f"counts need each inertia to be 3 non-negative ints summing to {d}")
    tallies = list(counts.values())
    if not (set(map(type, tallies)) <= {int} and min(tallies, default=0) >= 0):
        raise ValueError("counts need each count to be a non-negative int")
    if type(marginal) is not int or marginal < 0:
        raise ValueError(f"marginal must be a non-negative int, got {marginal!r}")
    if sum(tallies) + marginal != cfg.samples:
        raise ValueError(f"counts plus marginal make {sum(tallies) + marginal}, "
                         f"not the record's samples {cfg.samples}")
    return counts


@dataclass
class SearchRecord:
    config: SearchConfig
    config_hash: str
    counts: dict[Inertia, int]
    marginal: int
    alarms: list[Alarm]
    wall_time: float = 0.0

    def payload(self) -> dict:
        """The worker-count-independent content of the record."""
        return {
            "seed_scheme": SEED_SCHEME,
            "config": self.config.canonical(),
            "config_hash": self.config_hash,
            "counts": [[list(k), v] for k, v in sorted(self.counts.items())],
            "marginal": self.marginal,
            "alarms": [
                {"inertia": list(a.inertia), "index": a.index, "rank": a.rank,
                 "seed_path": list(a.seed_path)}
                for a in self.alarms
            ],
        }

    def to_json_line(self) -> str:
        # wall time deliberately excluded: log lines are stable under re-run
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "SearchRecord":
        """Parse one log line; malformed content, or a seed_scheme other
        than SEED_SCHEME, raises ValueError."""
        try:
            data = json.loads(line)
            conf = data["config"]
            cfg = SearchConfig(
                m=conf["m"], n=conf["n"], ranks=tuple(conf["ranks"]),
                ensemble=conf["ensemble"], samples=conf["samples"],
                seed=conf["seed"], tol_zero=conf["tol_zero"],
            )
            if not isinstance(data["counts"], list) or not isinstance(data["alarms"], list):
                raise ValueError("counts and alarms must be lists")
            counts = _counts_from_json(data["counts"], cfg, data["marginal"])
            alarms = _alarms_from_json(data["alarms"])
            scheme = data["seed_scheme"]
            record = cls(config=cfg, config_hash=data["config_hash"], counts=counts,
                         marginal=data["marginal"], alarms=alarms)
        except KeyError as exc:
            raise ValueError(f"search record lacks key {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed search record: {exc}") from exc
        if type(scheme) is not int or scheme != SEED_SCHEME:
            raise ValueError(f"unknown seed_scheme {scheme!r}")
        return record


def _seed_path(seed: int, index: int) -> tuple[int, int, int]:
    """Entropy of the scheme-2 generator that sample `index` draws from."""
    return (seed, SEED_SCHEME, index // BLOCK)


def _block_generator(cfg: SearchConfig, seed_path, index: int) -> np.random.Generator:
    """The block generator of sample `index`, advanced to that sample.

    The earlier samples of the block drew d * rank normals each, twice that
    for the complex ensemble.  A Generator keeps no state between normal
    draws, so one draw of their total skips them exactly.
    """
    rng = np.random.default_rng(seed_path)
    earlier = sum(cfg.rank_for(j) for j in range(index - index % BLOCK, index))
    if earlier:
        per_entry = 2 if cfg.ensemble == "complex" else 1
        rng.standard_normal(earlier * cfg.m * cfg.n * per_entry)
    return rng


def _scan_range(cfg: SearchConfig, start: int, stop: int,
                alarm_set: frozenset[Inertia]):
    """Tally one contiguous index range; batched eigensolves per chunk."""
    m, n, ensemble, seed, ranks = cfg.m, cfg.n, cfg.ensemble, cfg.seed, cfg.ranks
    d, n_ranks = m * n, len(ranks)
    complex_mode = ensemble == "complex"
    counts: dict[Inertia, int] = {}
    marginal = 0
    alarms: list[Alarm] = []
    # one eigensolve stack for every chunk of the range; a short chunk uses its head
    stack = np.empty((min(CHUNK, stop - start), d, d), dtype=complex if complex_mode else float)
    for lo in range(start, stop, CHUNK):
        hi = min(lo + CHUNK, stop)
        gammas = stack[:hi - lo]
        for idx in range(lo, hi):
            if idx % BLOCK == 0 or idx == start:
                rng = _block_generator(cfg, _seed_path(seed, idx), idx)
            mat = random_state(m, n, ranks[idx % n_ranks], ensemble, seed=rng).mat
            # the real ensembles' PT goes into a float stack: take it of the real part
            gammas[idx - lo] = pt_array(mat if complex_mode else mat.real, m, n)
        vals = np.linalg.eigvalsh(gammas)
        (neg, _, pos), is_marginal = spectrum_inertia(vals, cfg.tol_zero)
        marginal += int(is_marginal.sum())
        # Python runs once per distinct triple and once per alarm, not per sample
        codes = neg * (d + 1) + pos
        values, tallies = np.unique(codes[~is_marginal], return_counts=True)
        alarm_triples: dict[int, Inertia] = {}
        for code, count in zip(values.tolist(), tallies.tolist()):
            n_neg, n_pos = divmod(code, d + 1)
            triple = Inertia(n_neg, d - n_neg - n_pos, n_pos)
            counts[triple] = counts.get(triple, 0) + count
            if triple in alarm_set:
                alarm_triples[code] = triple
        if alarm_triples:
            hits = ~is_marginal & np.isin(codes, list(alarm_triples))
            for off in np.flatnonzero(hits).tolist():
                idx = lo + off
                alarms.append(Alarm(alarm_triples[int(codes[off])], idx,
                                    ranks[idx % n_ranks], _seed_path(seed, idx)))
    return counts, marginal, alarms


def _scan_star(args):
    return _scan_range(*args)


def check_alarms(cfg: SearchConfig, triples: Iterable[Inertia]) -> frozenset[Inertia]:
    """The alarm triples as a set; one that no m x n PT can have (a negative
    count, or a sum other than m*n) raises ValueError."""
    alarm_set = frozenset(Inertia(*a) for a in triples)
    d = cfg.m * cfg.n
    for triple in sorted(alarm_set):
        if min(triple) < 0 or sum(triple) != d:
            raise ValueError(f"alarm triple {triple} must be >= 0 and sum to {d}")
    return alarm_set


def run_search(cfg: SearchConfig,
               alarm_set: Iterable[Inertia] = ()) -> SearchRecord:
    """Draw cfg.samples random states, tally PT inertias, log alarm hits.

    Marginal samples (tolerance-sensitive spectra) are tallied separately and
    never raise alarms.  The record is identical for any cfg.workers value.
    The alarm triples pass through check_alarms.
    """
    alarm_set = check_alarms(cfg, alarm_set)
    t0 = time.perf_counter()
    spans = [(cfg, lo, min(lo + 4 * CHUNK, cfg.samples), alarm_set)
             for lo in range(0, cfg.samples, 4 * CHUNK)]
    if cfg.workers > 1 and len(spans) > 1:
        with Pool(min(cfg.workers, len(spans))) as pool:
            parts = pool.map(_scan_star, spans)
    else:
        parts = [_scan_range(*span) for span in spans]
    counts: dict[Inertia, int] = {}
    marginal = 0
    alarms: list[Alarm] = []
    for part_counts, part_marginal, part_alarms in parts:
        for k, v in part_counts.items():
            counts[k] = counts.get(k, 0) + v
        marginal += part_marginal
        alarms.extend(part_alarms)
    alarms.sort(key=lambda a: a.index)
    wall = time.perf_counter() - t0
    assert sum(counts.values()) + marginal == cfg.samples
    return SearchRecord(config=cfg, config_hash=cfg.digest(), counts=counts,
                        marginal=marginal, alarms=alarms, wall_time=wall)


def replay(record: SearchRecord, alarm_index: int) -> State:
    """Regenerate the state behind one recorded alarm, bit-for-bit.

    The alarm must be one run_search could have written: an index below the
    record's samples, that index's rank and seed_path, and an inertia the
    record tallies.  Otherwise ValueError names the field.
    """
    if record.config.digest() != record.config_hash:
        raise ValueError("stale record: config hash does not match its config")
    if not record.alarms:
        raise ValueError("record has no alarms to replay")
    if not 0 <= alarm_index < len(record.alarms):
        raise IndexError(f"alarm index {alarm_index} out of range "
                         f"[0, {len(record.alarms)})")
    alarm = record.alarms[alarm_index]
    cfg = record.config
    index = alarm.index
    if not 0 <= index < cfg.samples:
        raise ValueError(f"alarm index {index} out of range [0, {cfg.samples})")
    if alarm.rank != cfg.rank_for(index):
        raise ValueError(f"alarm rank {alarm.rank} is not sample {index}'s "
                         f"rank {cfg.rank_for(index)}")
    seed_path = _seed_path(cfg.seed, index)
    if alarm.seed_path != seed_path:
        raise ValueError(f"alarm seed_path {list(alarm.seed_path)} is not sample "
                         f"{index}'s seed_path {list(seed_path)}")
    if alarm.inertia not in record.counts:
        raise ValueError(f"alarm inertia {alarm.inertia} is not a tallied triple of the record")
    return random_state(cfg.m, cfg.n, alarm.rank, cfg.ensemble,
                        seed=_block_generator(cfg, seed_path, index))


def append_record(path, record: SearchRecord) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record.to_json_line() + "\n")


def load_records(path) -> list[SearchRecord]:
    """Every record of a results log; a malformed line, a byte that is not
    UTF-8 included, raises ValueError naming the path and the line."""
    out = []
    with open(path, "rb") as fh:
        # bytes.splitlines breaks at \n, \r and \r\n, as text mode reads lines
        for lineno, raw in enumerate(fh.read().splitlines(), 1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    out.append(SearchRecord.from_json_line(line))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from exc
    return out
