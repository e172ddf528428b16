import dataclasses
import hashlib
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ptinertia import (Inertia, SearchConfig, pt_inertia, random_state, replay,
                       run_search)
from ptinertia import search
from ptinertia.search import (BLOCK, CHUNK, Alarm, SearchRecord, _scan_range,
                              append_record, load_records)

THIRTEEN = {
    (1, 0, 8), (1, 1, 7), (1, 2, 6), (1, 3, 5), (1, 4, 4), (1, 5, 3),
    (2, 0, 7), (2, 1, 6), (2, 2, 5), (2, 3, 4), (3, 0, 6), (3, 1, 5),
    (4, 0, 5),
}

ALARUM = [Inertia(3, 2, 4), Inertia(4, 1, 4)]


HUNT_33 = dict(m=3, n=3, ranks=(2, 3, 4, 5), samples=2048, seed=1)
HUNT_33_ALARMS = ALARUM + [Inertia(2, 4, 3), Inertia(3, 3, 3), Inertia(4, 2, 3)]


@pytest.mark.parametrize("cfg, alarm_set, digest", [
    # the open-triple hunt of scripts/hunt_open_inertias.py, one config per ensemble
    (SearchConfig(ensemble="real", **HUNT_33), HUNT_33_ALARMS,
     "0eb8060651ead68672dc113ccd386cf5a45e7a5db1efc7a27a24d5c28c34965a"),
    (SearchConfig(ensemble="complex", **HUNT_33), HUNT_33_ALARMS,
     "363c5a4c25bb404e13dbb919e81646bf3a02cc7997257d53ab1817017549e06b"),
    (SearchConfig(ensemble="structured", **HUNT_33), HUNT_33_ALARMS,
     "3d37388ae173e5c5118e1d8c2df84c1c8726eec84b5c4fda7451e4dbb1aba5cb"),
    # a 3x4 complex hunt on two workers, 233 alarms
    (SearchConfig(m=3, n=4, ranks=(2, 3, 4, 5, 6), ensemble="complex", samples=32768,
                  seed=1, workers=2),
     [Inertia(2, 0, 10), Inertia(5, 0, 7)],
     "ffe5ef372fe5680f0ab96e5ba9fcab07e9fcee038a33c08b2a4858eecba44665"),
], ids=["hunt-real", "hunt-complex", "hunt-structured", "3x4-complex-2-workers"])
def test_hunt_records_are_pinned(cfg, alarm_set, digest):
    # a record holds counts and alarms, not matrices, so its bytes hold on any
    # BLAS build whose spectra give the same inertias; a draw that moves one
    # sample's inertia, or one alarm, moves the digest
    line = run_search(cfg, alarm_set).to_json_line()
    assert hashlib.sha256(line.encode()).hexdigest() == digest


def test_worker_count_does_not_change_the_record():
    base = dict(m=3, n=3, ranks=(2, 3), ensemble="real", samples=2000, seed=5)
    rec1 = run_search(SearchConfig(workers=1, **base), ALARUM)
    rec2 = run_search(SearchConfig(workers=3, **base), ALARUM)
    assert rec1.payload() == rec2.payload()
    assert rec1.config_hash == rec2.config_hash


def test_pool_is_no_larger_than_the_span_count(monkeypatch):
    sizes = []

    class InlinePool:  # records the requested size and maps in this process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    cfg = SearchConfig(m=2, n=2, ranks=(2,), samples=4 * search.CHUNK + 1, seed=4)
    want = run_search(cfg).payload()
    monkeypatch.setattr(search, "Pool", InlinePool)
    assert run_search(dataclasses.replace(cfg, workers=8)).payload() == want
    assert sizes == [2]  # two spans, so two processes, not eight


def test_counts_plus_marginal_equals_samples():
    cfg = SearchConfig(m=3, n=3, ranks=(3,), samples=1500, seed=2)
    rec = run_search(cfg)
    assert sum(rec.counts.values()) + rec.marginal == cfg.samples


def test_rank_round_robin():
    cfg = SearchConfig(m=2, n=2, ranks=(1, 4), samples=10, seed=0)
    assert [cfg.rank_for(i) for i in range(4)] == [1, 4, 1, 4]


def test_json_line_round_trip(tmp_path):
    cfg = SearchConfig(m=3, n=3, ranks=(3,), samples=500, seed=9)
    probe = run_search(cfg)
    rec = run_search(cfg, list(probe.counts))  # alarm on everything observed
    line = rec.to_json_line()
    assert "wall" not in line  # log lines carry no timing
    back = SearchRecord.from_json_line(line)
    assert back.payload() == rec.payload()
    log = tmp_path / "runs.log"
    append_record(log, rec)
    append_record(log, rec)
    assert len(load_records(log)) == 2


def test_forced_alarms_replay_bit_identical():
    cfg = SearchConfig(m=3, n=3, ranks=(2, 3), samples=400, seed=13)
    probe = run_search(cfg)
    rec = run_search(cfg, list(probe.counts))
    assert rec.alarms, "alarming on every observed triple must fire"
    for idx in range(min(5, len(rec.alarms))):
        state = replay(rec, idx)
        assert pt_inertia(state, cfg.tol_zero) == rec.alarms[idx].inertia
    # full determinism: regenerating the same alarm twice is bitwise equal
    a = replay(rec, 0).mat
    b = replay(rec, 0).mat
    assert np.array_equal(a, b)


def test_replay_errors():
    cfg = SearchConfig(m=2, n=2, ranks=(2,), samples=50, seed=1)
    rec = run_search(cfg)
    with pytest.raises(ValueError, match="no alarms"):
        replay(rec, 0)
    rec2 = run_search(cfg, list(rec.counts))
    with pytest.raises(IndexError):
        replay(rec2, len(rec2.alarms))
    stale = SearchRecord(config=rec2.config, config_hash="deadbeef",
                         counts=rec2.counts, marginal=rec2.marginal,
                         alarms=rec2.alarms)
    with pytest.raises(ValueError, match="stale"):
        replay(stale, 0)


def test_two_qubit_support():
    cfg = SearchConfig(m=2, n=2, ranks=(1, 2, 3, 4), samples=4000, seed=21)
    rec = run_search(cfg)
    for triple in rec.counts:
        assert triple.neg == 0 or tuple(triple) == (1, 0, 3)


def test_full_rank_histogram_has_no_zeros():
    cfg = SearchConfig(m=3, n=3, ranks=(9,), samples=1500, seed=31)
    rec = run_search(cfg)
    assert all(t.zero == 0 for t in rec.counts)


def test_structured_ensemble_respects_the_thirteen():
    # states unsupported on the A=0 row have two product kernel vectors in
    # their PT kernel; every NPT draw must land in the realizable set
    cfg = SearchConfig(m=3, n=3, ranks=(2, 3, 4, 5), ensemble="structured",
                       samples=3000, seed=41)
    rec = run_search(cfg)
    for triple in rec.counts:
        if triple.neg:
            assert tuple(triple) in THIRTEEN


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(m=3, n=3, ranks=(), samples=10, seed=0)
    with pytest.raises(ValueError):
        SearchConfig(m=3, n=3, ranks=(10,), samples=10, seed=0)
    with pytest.raises(ValueError):
        SearchConfig(m=3, n=3, ranks=(3,), samples=0, seed=0)


ENSEMBLES = ("real", "complex", "structured")


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_scan_split_mid_block_merges_to_the_whole_range(ensemble):
    # 37 is not a multiple of BLOCK: the second range starts mid-block and
    # must skip the normals its block's earlier samples drew
    assert 37 % BLOCK
    cfg = SearchConfig(m=3, n=3, ranks=(2, 3, 4, 5), ensemble=ensemble,
                       samples=100, seed=3)
    alarm_set = frozenset(_scan_range(cfg, 0, 100, frozenset())[0])
    counts, marginal, alarms = _scan_range(cfg, 0, 100, alarm_set)
    head = _scan_range(cfg, 0, 37, alarm_set)
    tail = _scan_range(cfg, 37, 100, alarm_set)
    assert dict(Counter(head[0]) + Counter(tail[0])) == counts
    assert head[1] + tail[1] == marginal
    assert head[2] + tail[2] == alarms
    assert len(alarms) == 100 - marginal


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_replay_matches_drawing_each_block_in_sequence(ensemble):
    cfg = SearchConfig(m=3, n=3, ranks=(2, 3, 4, 5), ensemble=ensemble,
                       samples=3 * BLOCK, seed=11)
    # a record alarming on every index of three blocks, under one tallied triple
    alarms = [Alarm(Inertia(0, 0, 9), i, cfg.rank_for(i), (cfg.seed, 2, i // BLOCK))
              for i in range(cfg.samples)]
    rec = SearchRecord(config=cfg, config_hash=cfg.digest(),
                       counts={Inertia(0, 0, 9): cfg.samples}, marginal=0, alarms=alarms)
    for block in range(3):
        rng = np.random.default_rng((cfg.seed, 2, block))
        for i in range(block * BLOCK, (block + 1) * BLOCK):
            want = random_state(cfg.m, cfg.n, cfg.rank_for(i), ensemble, seed=rng)
            assert np.array_equal(replay(rec, i).mat, want.mat)
    # run_search records the same seed paths
    every_triple = [Inertia(a, 9 - a - b, b) for a in range(10) for b in range(10 - a)]
    run = run_search(cfg, every_triple)
    assert run.payload()["seed_scheme"] == 2
    assert run.alarms
    assert all(a.seed_path == alarms[a.index].seed_path for a in run.alarms)


@pytest.mark.parametrize("bad", [
    dict(tol_zero=0.0), dict(tol_zero=-1e-9), dict(tol_zero=float("nan")),
    dict(tol_zero=float("inf")), dict(workers=0), dict(ensemble="gaussian"),
    dict(m=1, ensemble="structured"),
])
def test_config_rejects_invalid_settings(bad):
    kwargs = dict(m=3, n=3, ranks=(2,), samples=10, seed=0) | bad
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


MISSING = object()  # an edit value that deletes its key from the line


def _good_line():
    cfg = SearchConfig(m=2, n=2, ranks=(2,), samples=20, seed=1)
    return run_search(cfg).to_json_line()


@pytest.mark.parametrize("edit, message", [
    ('{"config": ', "line 2"),
    ({"config": None}, "malformed"),
    ({"counts": 5}, "must be lists"),
    ({"counts": [[1, 2]]}, "malformed"),
    ({"seed_scheme": 3}, "seed_scheme"),
    ({"seed_scheme": True}, "seed_scheme"),
    ({"alarms": [{"inertia": [1, 0, 3], "index": "3", "rank": 2,
                  "seed_path": [1, 2, 0]}]}, "alarms need int"),
    ({"alarms": [{"inertia": [1, 0, 3], "index": 3, "rank": 2.0,
                  "seed_path": [1, 2, 0]}]}, "alarms need int"),
    ({"alarms": [{"inertia": [1, 3], "index": 3, "rank": 2,
                  "seed_path": [1, 2, 0]}]}, "alarms need int"),
    ({"alarms": [{"inertia": [1, "0", 3], "index": 3, "rank": 2,
                  "seed_path": [1, 2, 0]}]}, "alarms need int"),
    ({"alarms": [{"inertia": [1, 0, 3], "index": 3, "rank": True,
                  "seed_path": [1, 2, 0]}]}, "alarms need int"),
    ({"alarms": [{"inertia": [1, 0, 3], "index": 3, "rank": 2,
                  "seed_path": ["x"]}]}, "alarms need int"),
    ({"alarms": [{"inertia": [1, 0, 3], "index": 3, "rank": 2,
                  "seed_path": 7}]}, "alarms need int"),
    ({"alarms": [{"inertia": [1, 0, 3], "index": 3, "rank": 2,
                  "seed_path": "12"}]}, "alarms need int"),
    ({"alarms": [[1, 0, 3]]}, "malformed"),
    ({"config": {"m": 2.0, "n": 2, "ranks": [2], "ensemble": "real", "samples": 20,
                 "seed": 1, "tol_zero": 1e-9}}, "m must be an integer, got 2.0"),
    ({"config": {"m": 2, "n": 2, "ranks": [2.5], "ensemble": "real", "samples": 20,
                 "seed": 1, "tol_zero": 1e-9}}, "rank must be an integer, got 2.5"),
    ({"config": {"m": 2, "n": 2, "ranks": [2], "ensemble": "real", "samples": True,
                 "seed": 1, "tol_zero": 1e-9}}, "samples must be an integer"),
    ({"config": {"m": 2, "n": 2, "ranks": [2], "ensemble": "real", "samples": 20,
                 "seed": -1, "tol_zero": 1e-9}}, "seed must be >= 0"),
    ({"config": {"m": 2, "n": 2, "ranks": [2], "ensemble": "real", "samples": 20,
                 "seed": 1, "tol_zero": True}}, "tol_zero must be a real number, got True"),
    ({"config": {"m": 2, "n": 2, "ranks": [2], "ensemble": "real", "samples": 20,
                 "seed": 1, "tol_zero": "1e-9"}}, "tol_zero must be a real number"),
    ({"marginal": "seven"}, "marginal must be a non-negative int, got 'seven'"),
    ({"counts": [[[1, 0, 3], 1.5]]}, "each count to be a non-negative int"),
    ({"counts": [[[1, 0, 3], -100]]}, "each count to be a non-negative int"),
    ({"counts": [[["a", "b", "c"], 20]]}, "each inertia to be 3 non-negative ints summing to 4"),
    ({"counts": [[[2, -1, 3], 20]]}, "each inertia to be 3 non-negative ints"),
    ({"counts": [[[1, 1, 3], 20]]}, "each inertia to be 3 non-negative ints summing to 4"),
    ({"counts": [[[1, 0, 3], 19]], "marginal": 0}, "counts plus marginal make 19, "
                                                   "not the record's samples 20"),
    # a line written before the field existed, and one that names scheme 1
    ({"seed_scheme": MISSING}, "lacks key 'seed_scheme'"),
    ({"seed_scheme": 1}, "unknown seed_scheme 1"),
])
def test_malformed_log_line_names_its_line(tmp_path, edit, message):
    good = _good_line()
    if isinstance(edit, dict):
        data = json.loads(good) | edit
        bad = json.dumps({k: v for k, v in data.items() if v is not MISSING})
    else:
        bad = edit
    log = tmp_path / "runs.log"
    log.write_text(good + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=message) as info:
        load_records(log)
    assert "line 2" in str(info.value)


def test_a_log_byte_that_is_not_utf8_names_its_path_and_line(tmp_path):
    log = tmp_path / "runs.log"
    log.write_bytes(_good_line().encode() + b"\n\xff" + _good_line().encode() + b"\n")
    with pytest.raises(ValueError) as info:
        load_records(log)
    assert str(info.value).startswith(f"{log}, line 2: 'utf-8' codec can't decode byte 0xff")


def test_log_lines_end_at_any_newline_as_text_mode_reads_them(tmp_path):
    log = tmp_path / "runs.log"
    log.write_bytes((_good_line() + "\r\n\r" + _good_line() + "\r").encode())
    assert len(load_records(log)) == 2
    log.write_bytes(b"\n\n" + b"{" + b"\r\n")
    with pytest.raises(ValueError, match="line 3"):
        load_records(log)


def test_log_line_missing_a_key_is_rejected():
    data = json.loads(_good_line())
    del data["marginal"]
    with pytest.raises(ValueError, match="lacks key 'marginal'"):
        SearchRecord.from_json_line(json.dumps(data))


@pytest.mark.parametrize("field, value, message", [
    ("m", 3.0, "m must be an integer"),
    ("n", True, "n must be an integer"),
    ("samples", 10.0, "samples must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", -1, "seed must be >= 0"),
    ("workers", 2.0, "workers must be an integer"),
    ("ranks", (2, 2.5), "rank must be an integer, got 2.5"),
    ("ranks", (True,), "rank must be an integer"),
    ("ranks", (np.bool_(True),), "rank must be an integer"),
    ("tol_zero", True, "tol_zero must be a real number, got True"),
    ("tol_zero", np.bool_(True), "tol_zero must be a real number"),
])
def test_config_type_errors_name_their_field(field, value, message):
    kwargs = dict(m=3, n=3, ranks=(2,), samples=10, seed=0) | {field: value}
    with pytest.raises(ValueError, match=message):
        SearchConfig(**kwargs)


def test_config_accepts_numpy_integers_as_ints():
    cfg = SearchConfig(m=np.int64(3), n=np.int32(3), ranks=(np.int64(2), 3),
                       samples=np.int64(10), seed=np.uint8(4), workers=np.int16(1))
    want = SearchConfig(m=3, n=3, ranks=(2, 3), samples=10, seed=4)
    assert cfg == want and cfg.digest() == want.digest()
    assert all(type(v) is int for v in (cfg.m, cfg.n, cfg.samples, cfg.seed,
                                        cfg.workers, *cfg.ranks))


@pytest.mark.parametrize("alarm", [Inertia(9, 9, 9), Inertia(-1, 2, 3), (0, 0, 5)])
def test_run_search_rejects_an_impossible_alarm_triple(alarm):
    cfg = SearchConfig(m=2, n=2, ranks=(2,), samples=200, seed=3)
    with pytest.raises(ValueError, match="must be >= 0 and sum to 4"):
        run_search(cfg, [Inertia(1, 0, 3), alarm])


def test_scan_range_fills_one_eigensolve_stack_for_all_its_chunks():
    cfg = SearchConfig(m=3, n=4, ranks=(4,), ensemble="complex", samples=3 * CHUNK)
    stack_bytes = CHUNK * 12 * 12 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        _scan_range(cfg, 0, 3 * CHUNK, frozenset())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack_bytes
