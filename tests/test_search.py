import json
from collections import Counter

import numpy as np
import pytest

from ptinertia import (Inertia, SearchConfig, pt_inertia, random_state, replay,
                       run_search)
from ptinertia.search import (BLOCK, Alarm, SearchRecord, _scan_range,
                              append_record, load_records)

THIRTEEN = {
    (1, 0, 8), (1, 1, 7), (1, 2, 6), (1, 3, 5), (1, 4, 4), (1, 5, 3),
    (2, 0, 7), (2, 1, 6), (2, 2, 5), (2, 3, 4), (3, 0, 6), (3, 1, 5),
    (4, 0, 5),
}

ALARUM = [Inertia(3, 2, 4), Inertia(4, 1, 4)]


def test_worker_count_does_not_change_the_record():
    base = dict(m=3, n=3, ranks=(2, 3), ensemble="real", samples=2000, seed=5)
    rec1 = run_search(SearchConfig(workers=1, **base), ALARUM)
    rec2 = run_search(SearchConfig(workers=3, **base), ALARUM)
    assert rec1.payload() == rec2.payload()
    assert rec1.config_hash == rec2.config_hash


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
    # a record alarming on every index of three blocks
    alarms = [Alarm(Inertia(0, 0, 9), i, cfg.rank_for(i), (cfg.seed, 2, i // BLOCK))
              for i in range(cfg.samples)]
    rec = SearchRecord(config=cfg, config_hash=cfg.digest(), counts={},
                       marginal=cfg.samples, alarms=alarms)
    for block in range(3):
        rng = np.random.default_rng((cfg.seed, 2, block))
        for i in range(block * BLOCK, (block + 1) * BLOCK):
            want = random_state(cfg.m, cfg.n, cfg.rank_for(i), ensemble, seed=rng)
            assert np.array_equal(replay(rec, i).mat, want.mat)
    # run_search records the same seed paths
    every_triple = [Inertia(a, 9 - a - b, b) for a in range(10) for b in range(10 - a)]
    run = run_search(cfg, every_triple)
    assert run.seed_scheme == 2 and run.payload()["seed_scheme"] == 2
    assert run.alarms
    assert all(a.seed_path == alarms[a.index].seed_path for a in run.alarms)


def test_scheme_1_line_replays_its_per_sample_generator():
    cfg = SearchConfig(m=3, n=3, ranks=(2, 3), ensemble="complex", samples=100, seed=7)
    line = json.dumps({
        "config": {"m": 3, "n": 3, "ranks": [2, 3], "ensemble": "complex",
                   "samples": 100, "seed": 7, "tol_zero": 1e-9},
        "config_hash": cfg.digest(),
        "counts": [[[3, 0, 6], 1]],
        "marginal": 99,
        "alarms": [{"inertia": [3, 0, 6], "index": 42, "rank": 2, "seed_path": [7, 42]}],
    })
    rec = SearchRecord.from_json_line(line)
    assert rec.seed_scheme == 1
    want = random_state(3, 3, 2, "complex", seed=(7, 42))
    assert np.array_equal(replay(rec, 0).mat, want.mat)
    # the scheme survives a round trip, and an unknown one cannot replay
    assert SearchRecord.from_json_line(rec.to_json_line()).seed_scheme == 1
    rec.seed_scheme = 3
    with pytest.raises(ValueError, match="seed_scheme"):
        replay(rec, 0)


@pytest.mark.parametrize("bad", [
    dict(tol_zero=0.0), dict(tol_zero=-1e-9), dict(tol_zero=float("nan")),
    dict(tol_zero=float("inf")), dict(workers=0), dict(ensemble="gaussian"),
    dict(m=1, ensemble="structured"),
])
def test_config_rejects_invalid_settings(bad):
    kwargs = dict(m=3, n=3, ranks=(2,), samples=10, seed=0) | bad
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


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
])
def test_malformed_log_line_names_its_line(tmp_path, edit, message):
    good = _good_line()
    if isinstance(edit, dict):
        data = json.loads(good) | edit
        bad = json.dumps(data)
    else:
        bad = edit
    log = tmp_path / "runs.log"
    log.write_text(good + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=message) as info:
        load_records(log)
    assert "line 2" in str(info.value)


def test_log_line_missing_a_key_is_rejected():
    data = json.loads(_good_line())
    del data["marginal"]
    with pytest.raises(ValueError, match="lacks key 'marginal'"):
        SearchRecord.from_json_line(json.dumps(data))
