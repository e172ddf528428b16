"""Reproducible randomized search over PT inertias of random states.

Seed scheme 2: the samples are cut into aligned blocks of BLOCK indices, and
block b draws from one generator seeded by numpy's SeedSequence hash of
(master seed, 2, b).  The samples of a block draw from it in index order, so
sample i is fixed by the seed, the index and the ranks of the samples before
it in its block.  Block boundaries depend only on the index, so the tally is
deterministic and independent of chunking and worker count, and any alarming
sample can be regenerated bit-for-bit: replay reseeds its block generator and
skips the normals of the earlier samples in one draw.

Records carry the scheme they were drawn under.  Lines written before the
field existed are scheme 1, where sample i drew from its own generator
seeded by (master seed, i); they still replay bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterable, NamedTuple

import numpy as np

from .linalg import Inertia, TOL_ZERO
from .states import ENSEMBLES, State, pt_array, random_state

CHUNK = 2048
BLOCK = 16  # samples per generator; divides CHUNK, so scan spans start on a block
SEED_SCHEME = 2  # the scheme run_search draws under
SEED_SCHEMES = (1, 2)  # the schemes replay can regenerate


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
        if self.m < 1 or self.n < 1:
            raise ValueError(f"local dimensions must be >= 1, got ({self.m},{self.n})")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}, "
                             f"expected one of {', '.join(ENSEMBLES)}")
        if self.ensemble == "structured" and self.m < 2:
            raise ValueError("structured ensemble needs m >= 2")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not (math.isfinite(self.tol_zero) and self.tol_zero > 0):
            raise ValueError(f"tol_zero must be finite and > 0, got {self.tol_zero}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.ranks:
            raise ValueError("rank set must be nonempty")
        for r in self.ranks:
            if not 1 <= r <= self.m * self.n:
                raise ValueError(f"rank {r} out of [1, {self.m * self.n}]")
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

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


@dataclass
class SearchRecord:
    config: SearchConfig
    config_hash: str
    counts: dict[Inertia, int]
    marginal: int
    alarms: list[Alarm]
    wall_time: float = 0.0
    seed_scheme: int = SEED_SCHEME

    def payload(self) -> dict:
        """The worker-count-independent content of the record."""
        return {
            "seed_scheme": self.seed_scheme,
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
        """Parse one log line; malformed content raises ValueError.

        A line without "seed_scheme" was written under scheme 1.
        """
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
            counts = {Inertia(*k): v for k, v in data["counts"]}
            alarms = [Alarm(Inertia(*a["inertia"]), a["index"], a["rank"],
                            tuple(a["seed_path"])) for a in data["alarms"]]
            scheme = data.get("seed_scheme", 1)
            record = cls(config=cfg, config_hash=data["config_hash"], counts=counts,
                         marginal=data["marginal"], alarms=alarms, seed_scheme=scheme)
        except KeyError as exc:
            raise ValueError(f"search record lacks key {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed search record: {exc}") from exc
        if type(scheme) is not int or scheme not in SEED_SCHEMES:
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
    d = cfg.m * cfg.n
    complex_mode = cfg.ensemble == "complex"
    counts: dict[Inertia, int] = {}
    marginal = 0
    alarms: list[Alarm] = []
    lo = start
    while lo < stop:
        hi = min(lo + CHUNK, stop)
        gammas = np.empty((hi - lo, d, d), dtype=complex if complex_mode else float)
        for idx in range(lo, hi):
            if idx % BLOCK == 0 or idx == start:
                rng = _block_generator(cfg, _seed_path(cfg.seed, idx), idx)
            state = random_state(cfg.m, cfg.n, cfg.rank_for(idx), cfg.ensemble,
                                 seed=rng)
            gamma = pt_array(state.mat, cfg.m, cfg.n)
            gammas[idx - lo] = gamma if complex_mode else gamma.real
        vals = np.linalg.eigvalsh(gammas)
        scale = np.maximum(1.0, np.abs(vals).max(axis=1))

        def tally(tol):
            t = (tol * scale)[:, None]
            return (vals < -t).sum(axis=1), (vals > t).sum(axis=1)

        neg, pos = tally(cfg.tol_zero)
        neg_lo, pos_lo = tally(cfg.tol_zero / 10)
        neg_hi, pos_hi = tally(cfg.tol_zero * 10)
        is_marginal = (neg != neg_lo) | (pos != pos_lo) | (neg != neg_hi) | (pos != pos_hi)
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
                                    cfg.rank_for(idx), _seed_path(cfg.seed, idx)))
        lo = hi
    return counts, marginal, alarms


def _scan_star(args):
    return _scan_range(*args)


def run_search(cfg: SearchConfig,
               alarm_set: Iterable[Inertia] = ()) -> SearchRecord:
    """Draw cfg.samples random states, tally PT inertias, log alarm hits.

    Marginal samples (tolerance-sensitive spectra) are tallied separately and
    never raise alarms.  The record is identical for any cfg.workers value.
    """
    alarm_set = frozenset(Inertia(*a) for a in alarm_set)
    t0 = time.perf_counter()
    spans = [(cfg, lo, min(lo + 4 * CHUNK, cfg.samples), alarm_set)
             for lo in range(0, cfg.samples, 4 * CHUNK)]
    if cfg.workers > 1 and len(spans) > 1:
        with Pool(cfg.workers) as pool:
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
    """Regenerate the state behind one recorded alarm, bit-for-bit."""
    if record.config.digest() != record.config_hash:
        raise ValueError("stale record: config hash does not match its config")
    if not record.alarms:
        raise ValueError("record has no alarms to replay")
    if not 0 <= alarm_index < len(record.alarms):
        raise IndexError(f"alarm index {alarm_index} out of range "
                         f"[0, {len(record.alarms)})")
    alarm = record.alarms[alarm_index]
    cfg = record.config
    if record.seed_scheme == 1:
        seed = alarm.seed_path
    elif record.seed_scheme == 2:
        seed = _block_generator(cfg, alarm.seed_path, alarm.index)
    else:
        raise ValueError(f"unknown seed_scheme {record.seed_scheme!r}")
    return random_state(cfg.m, cfg.n, alarm.rank, cfg.ensemble, seed=seed)


def append_record(path, record: SearchRecord) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record.to_json_line() + "\n")


def load_records(path) -> list[SearchRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    out.append(SearchRecord.from_json_line(line))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from exc
    return out
