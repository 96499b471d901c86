"""Acceptance suite: one test per release criterion.

Each test prints a [PASS] line on success (run with ``pytest -v -s`` to
see them as they execute). Published-table re-derivations assert both the
value computed from the printed inputs and its distance to the printed
result, at the stated tolerances.
"""

import json
import math
import random
import time

import pytest

from irdrift import _workers
from irdrift.change import RboConfig, delta_ri, mean_rbo, rbo_topic, relative_improvement, result_delta, rmse
from irdrift.cli import main
from irdrift.diff import diff_documents
from irdrift.effectiveness import bpref, ndcg, precision_at_k
from irdrift.ingest import (
    format_manifest,
    format_qrels,
    format_run,
    load_manifest,
    load_run,
)
from irdrift.model import (
    DocMeta,
    MeasureSpec,
    PerTopicScores,
    TopicId,
)
from irdrift.significance import bonferroni, paired_t_test

from conftest import cpu_masks, make_ranking, synth_corpus, synth_qrels, synth_run
from test_change import rbo_brute
from test_effectiveness import bpref_brute, ndcg_brute, p_at_k_brute
from test_significance import t_two_sided_p_oracle


def test_criterion_1_result_delta_rederivation():
    start = time.monotonic()
    # published ARPs for one system's P@10 across three environments
    t0, t1, t2 = 0.081, 0.111, 0.123
    d1 = result_delta(t0, t1)
    d2 = result_delta(t0, t2)
    assert d1 == pytest.approx(-0.370, abs=5e-4)
    assert d2 == pytest.approx(-0.519, abs=5e-4)
    # printed table values, reachable within rounding of 3-decimal inputs
    assert abs(d1 - (-0.377)) <= 0.02
    assert abs(d2 - (-0.522)) <= 0.02
    assert time.monotonic() - start < 1.0
    print("[PASS] criterion 1: relative ARP delta re-derivation")


def test_criterion_2_delta_ri_rederivation():
    start = time.monotonic()
    # system A's P@10: 0.096 -> 0.130; pivot's: 0.081 -> 0.111
    ri0 = relative_improvement(0.096, 0.081)
    ri1 = relative_improvement(0.130, 0.111)
    shift = delta_ri(ri0, ri1)
    assert shift == pytest.approx(0.014, abs=5e-4)
    assert abs(shift - 0.018) <= 0.01
    # second system's nDCG: 0.291 -> 0.347; pivot's: 0.280 -> 0.334
    ri0 = relative_improvement(0.291, 0.280)
    ri2 = relative_improvement(0.347, 0.334)
    assert abs(delta_ri(ri0, ri2) - 0.000) <= 0.01
    assert time.monotonic() - start < 1.0
    print("[PASS] criterion 2: pivot-relative margin shift re-derivation")


def test_criterion_3_crud_append_only_reproduction():
    start = time.monotonic()
    # append-only growth 565,737 -> 1,085,094 ids, scaled down 1000x
    n_from, n_to = 566, 1086
    docs_a = {f"d{i:05d}": DocMeta(length=10) for i in range(n_from)}
    docs_b = {f"d{i:05d}": DocMeta(length=10) for i in range(n_to)}
    d = diff_documents(docs_a, docs_b)
    assert len(d.created) == d.total_to - d.total_from == 520
    assert d.updated == frozenset()
    assert d.deleted == frozenset()
    assert abs(d.relative_delta - 0.918) <= 0.001
    assert time.monotonic() - start < 5.0
    print("[PASS] criterion 3: CRUD append-only reproduction")


def test_criterion_4_rbo_brute_force_oracle():
    start = time.monotonic()
    rng = random.Random(41)
    universe = [f"d{i}" for i in range(40)]
    for _ in range(1000):
        a = rng.sample(universe, rng.randint(0, 20))
        b = rng.sample(universe, rng.randint(0, 20))
        phi = rng.choice([0.5, 0.8, 0.9])
        depth = rng.randint(1, 25)
        normalize = rng.choice([True, False])
        cfg = RboConfig(phi=phi, depth=depth, normalize=normalize)
        got = rbo_topic(make_ranking(a), make_ranking(b), cfg)
        want = rbo_brute(a, b, phi, depth, normalize)
        assert got == pytest.approx(want, abs=1e-12)
    for phi in (0.5, 0.8, 0.9):
        cfg = RboConfig(phi=phi, depth=100, normalize=True)
        identical = make_ranking(universe[:15])
        assert rbo_topic(identical, identical, cfg) == 1.0
        disjoint = rbo_topic(
            make_ranking(universe[:10]), make_ranking(universe[20:30]), cfg
        )
        assert disjoint == 0.0
    assert time.monotonic() - start < 10.0
    print("[PASS] criterion 4: rank-biased overlap brute-force oracle")


def test_criterion_5_effectiveness_brute_force_oracle():
    start = time.monotonic()
    rng = random.Random(51)
    universe = [f"d{i}" for i in range(80)]
    for _ in range(500):
        docs = rng.sample(universe, rng.randint(0, 50))
        judged = rng.sample(universe, rng.randint(0, 10))
        grades = {d: rng.randint(0, 2) for d in judged}
        ranking = make_ranking(docs)
        k = rng.randint(1, 20)
        assert precision_at_k(ranking, grades, k) == pytest.approx(
            p_at_k_brute(docs, grades, k), abs=1e-9
        )
        assert ndcg(ranking, grades) == pytest.approx(ndcg_brute(docs, grades), abs=1e-9)
        assert bpref(ranking, grades) == pytest.approx(
            bpref_brute(docs, grades), abs=1e-9
        )
        # bpref ignores unjudged docs injected at arbitrary ranks
        padded = list(docs)
        for j in range(rng.randint(1, 4)):
            padded.insert(rng.randint(0, len(padded)), f"pad{j}")
        assert bpref(make_ranking(padded), grades) == pytest.approx(
            bpref(ranking, grades), abs=1e-12
        )
    assert time.monotonic() - start < 30.0
    print("[PASS] criterion 5: effectiveness brute-force oracle")


def test_criterion_6_rmse_properties():
    m = MeasureSpec.parse("p@10")

    def scores(values):
        return PerTopicScores(m, {TopicId(f"t{i}"): v for i, v in enumerate(values)})

    a = scores([0.3, 0.9, 0.4])
    assert rmse(a, a) == 0.0
    hand = rmse(scores([1.0, 0.5]), scores([0.5, 0.5]))
    assert hand == pytest.approx(math.sqrt(0.125), abs=1e-9)
    assert round(hand, 5) == 0.35355
    rng = random.Random(61)
    for _ in range(100):
        x = scores([rng.random() for _ in range(6)])
        y = scores([rng.random() for _ in range(6)])
        assert rmse(x, y) == rmse(y, x)
    print("[PASS] criterion 6: RMSE identity, hand value, symmetry")


def test_criterion_7_significance_oracle():
    diffs = [0.3, 0.1, -0.1, 0.2, 0.0]
    m = MeasureSpec.parse("p@10")
    a = PerTopicScores(m, {TopicId(f"t{i}"): 0.5 + d for i, d in enumerate(diffs)})
    b = PerTopicScores(m, {TopicId(f"t{i}"): 0.5 for i in range(5)})
    t, p, n = paired_t_test(a, b)
    assert n == 5
    assert t == pytest.approx(1.4142, abs=1e-3)
    assert p == pytest.approx(0.230, abs=5e-3)
    assert p == pytest.approx(t_two_sided_p_oracle(t, df=4), abs=1e-9)
    assert bonferroni(0.05, 8) == 0.00625
    print("[PASS] criterion 7: paired t-test and Bonferroni oracle")


# --- end-to-end fixture shared by criteria 8 and 9 ---

N_DOCS = 1000
TOPICS = [f"q{i:02d}" for i in range(1, 21)]
SYSTEMS = ("sysa", "zpivot")  # zpivot plays the pivot role


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """1000 dated docs, synthetic qrels, 3 append-only slices, and runs
    for two synthetic systems over each slice."""
    root = tmp_path_factory.mktemp("endtoend")
    corpus = synth_corpus(N_DOCS)
    ids = sorted(corpus)
    (root / "corpus.jsonl").write_text(format_manifest(corpus))
    (root / "qrels.txt").write_text(format_qrels(synth_qrels(ids, TOPICS)))
    out_dir = root / "slices"
    code = main(
        [
            "simulate",
            "--manifest",
            str(root / "corpus.jsonl"),
            "--qrels",
            str(root / "qrels.txt"),
            "--slices",
            "3",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    config_path = out_dir / "ees.json"
    labels = [e["label"] for e in json.loads(config_path.read_text())]
    run_paths = {}
    for label in labels:
        slice_ids = sorted(load_manifest(out_dir / f"{label}.manifest.jsonl"))
        for tag in SYSTEMS:
            run = synth_run(tag, slice_ids, TOPICS, depth=100)
            path = out_dir / f"{tag}.{label}.run.txt"
            path.write_text(format_run(run))
            run_paths[(tag, label)] = path
    return config_path, labels, run_paths, out_dir


def _change_argv(config_path, labels, run_paths, scenario):
    argv = ["change", "--config", str(config_path), "--scenario", scenario]
    for label in labels:
        argv += ["--run", f"sysa:{label}:{run_paths[('sysa', label)]}"]
        argv += ["--pivot-run", f"{label}={run_paths[('zpivot', label)]}"]
    return argv


def test_criterion_8_end_to_end_determinism(simulated, capsysbinary, monkeypatch):
    start = time.monotonic()
    config_path, labels, run_paths, _ = simulated
    outputs = {}
    for scenario in ("dtq", "dtq-prime"):
        argv = _change_argv(config_path, labels, run_paths, scenario)
        # the system and the pivot scored in this process, then in two
        results = []
        for cpus in cpu_masks():
            monkeypatch.setattr(_workers, "_cpus", lambda: cpus)
            assert main(argv) == 0
            results.append(capsysbinary.readouterr().out)
        assert main(argv) == 0
        results.append(capsysbinary.readouterr().out)
        first = results[0]
        assert results == [first] * 3  # byte-identical across repeated runs
        outputs[scenario] = first.decode("utf-8")
    # document-only scenario: t0 rows carry the ideal values
    lines = outputs["dtq"].splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 2 * 3  # two systems, three environments
    for cells in rows:
        if cells["ee"] == "t0":
            assert cells["rbo_mean"] == "1.0000"
            for name in ("p@10", "bpref", "ndcg"):
                assert cells[f"rmse_{name}"] == "0.0000"
    # qrels-tracking scenario: t0 rows carry zero deltas
    lines = outputs["dtq-prime"].splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for cells in rows:
        if cells["ee"] == "t0" and cells["system"] == "sysa":
            for name in ("p@10", "bpref", "ndcg"):
                assert cells[f"re_delta_{name}"] == "0.0000"
                assert cells[f"delta_ri_{name}"] == "0.0000"
    assert time.monotonic() - start < 30.0
    print("[PASS] criterion 8: end-to-end determinism and ideal t0 rows")


def test_criterion_9_mean_rbo_monotone_over_append_only_growth(simulated):
    config_path, labels, run_paths, out_dir = simulated
    corpora = {
        label: set(load_manifest(out_dir / f"{label}.manifest.jsonl"))
        for label in labels
    }
    cfg = RboConfig(phi=0.9, depth=100, normalize=True)
    for tag in SYSTEMS:
        runs = {label: load_run(run_paths[(tag, label)]) for label in labels}
        # precondition: each later slice adds documents that reach the
        # evaluated prefix of at least one topic
        for earlier, later in zip(labels, labels[1:]):
            new_docs = corpora[later] - corpora[earlier]
            entered = any(
                doc in new_docs
                for ranking in runs[later].rankings.values()
                for doc in ranking.docs
            )
            assert entered
        topics = {TopicId(t) for t in TOPICS}
        means = [mean_rbo(runs[labels[0]], runs[label], cfg, topics).mean for label in labels]
        assert means[0] == 1.0
        for earlier, later in zip(means, means[1:]):
            assert later <= earlier + 1e-12
    print("[PASS] criterion 9: mean overlap non-increasing over append-only growth")
