"""Temporal change measures: hand-computed cases, brute-force oracle
agreement, and structural properties."""

import inspect
import itertools
import json
import math
import random
import re
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irdrift import _workers, effectiveness, significance
from irdrift.change import (
    ChangeScores,
    ChangeWarning,
    RboConfig,
    build_matrix,
    delta_ri,
    mean_rbo,
    rbo_topic,
    relative_improvement,
    result_delta,
    rmse,
)
from irdrift.ingest import IngestWarning
from irdrift.model import MeasureSpec, PerTopicScores, TopicId
from irdrift.report import Scenario, render

from conftest import (
    CLI_TOPICS,
    NO_SHRINK,
    UnderflowingScores,
    cpu_masks,
    exact_sum,
    make_environment,
    make_qrels,
    make_ranking,
    make_run,
    score_list_pairs,
    synth_corpus,
    synth_qrels,
    synth_run,
)


def rbo_brute(docs_a, docs_b, phi, depth, normalize):
    """Literal prefix-by-prefix transcription of the truncated sum."""
    d = min(depth, max(len(docs_a), len(docs_b)))
    if d == 0:
        return 1.0
    total = 0.0
    for i in range(1, d + 1):
        agreement = len(set(docs_a[:i]) & set(docs_b[:i])) / i
        total += phi ** (i - 1) * agreement
    raw = (1.0 - phi) * total
    if normalize:
        return raw / (1.0 - phi**d)
    return raw


def _scores(values: dict[str, float], measure="p@10") -> PerTopicScores:
    return PerTopicScores(MeasureSpec.parse(measure), {TopicId(t): v for t, v in values.items()})


# --- rbo_topic ---


def test_rbo_identity_is_exactly_one():
    r = make_ranking(["a", "b", "c"])
    assert rbo_topic(r, r, RboConfig(phi=0.9, depth=100, normalize=True)) == 1.0


@pytest.mark.parametrize("normalize", [True, False])
def test_rbo_of_a_ranking_with_itself_has_the_bits_of_the_walk(normalize):
    docs = [f"d{i}" for i in range(40)]
    ranking = make_ranking(docs)
    # equal docs in a tuple of its own, so this comparison walks the prefixes
    copy = make_ranking(docs)
    assert copy.docs == ranking.docs and copy.docs is not ranking.docs
    for phi in (0.1, 0.5, 0.9, 0.98):
        for depth in (1, 7, 40, 1000):
            cfg = RboConfig(phi=phi, depth=depth, normalize=normalize)
            assert rbo_topic(ranking, ranking, cfg).hex() == rbo_topic(ranking, copy, cfg).hex()


def reference_rbo_walk(docs_a, docs_b, cfg):
    """The prefix walk as first written, indexing each ranking per step:
    the bit-for-bit oracle for ``rbo_topic``'s walk."""
    depth = min(cfg.depth, max(len(docs_a), len(docs_b)))
    pending_a: set[str] = set()
    pending_b: set[str] = set()
    overlap = 0
    total = 0.0
    norm = 0.0
    weight = 1.0
    for i in range(1, depth + 1):
        if i <= len(docs_a):
            doc = docs_a[i - 1]
            if doc in pending_b:
                pending_b.remove(doc)
                overlap += 1
            else:
                pending_a.add(doc)
        if i <= len(docs_b):
            doc = docs_b[i - 1]
            if doc in pending_a:
                pending_a.remove(doc)
                overlap += 1
            else:
                pending_b.add(doc)
        total += weight * (overlap / i)
        norm += weight
        weight *= cfg.phi
    if cfg.normalize:
        return total / norm
    return (1.0 - cfg.phi) * total


# few doc ids, so that the rankings overlap often
rbo_docs = st.lists(st.sampled_from([f"d{i}" for i in range(12)]), unique=True, max_size=12)


@settings(deadline=None, max_examples=300)
@given(
    rbo_docs,
    rbo_docs,
    st.floats(0.01, 0.99),
    st.integers(1, 30),  # past both lengths too
    st.booleans(),
)
@example(["d0", "d1", "d2"], ["d2"], 0.9, 20, False)
@example(["d0"], ["d1", "d0", "d2", "d3"], 0.5, 3, True)
def test_rbo_walk_has_the_bits_of_the_reference_walk(docs_a, docs_b, phi, depth, normalize):
    assume(docs_a or docs_b)  # two empty rankings score 1.0 without a walk
    cfg = RboConfig(phi=phi, depth=depth, normalize=normalize)
    got = rbo_topic(make_ranking(docs_a), make_ranking(docs_b), cfg)
    assert got.hex() == reference_rbo_walk(docs_a, docs_b, cfg).hex()


def test_rbo_disjoint_is_zero():
    a = make_ranking(["a", "b", "c"])
    b = make_ranking(["x", "y", "z"])
    assert rbo_topic(a, b, RboConfig()) == 0.0


def test_rbo_hand_computed():
    a = make_ranking(["a", "b", "c"])
    b = make_ranking(["b", "a", "c"])
    raw = rbo_topic(a, b, RboConfig(phi=0.9, depth=3, normalize=False))
    assert raw == pytest.approx(0.171, abs=1e-12)
    normalized = rbo_topic(a, b, RboConfig(phi=0.9, depth=3, normalize=True))
    assert normalized == pytest.approx(0.171 / 0.271, abs=1e-12)
    assert normalized == pytest.approx(0.6310, abs=5e-5)


def test_rbo_both_empty_is_one():
    assert rbo_topic(make_ranking([]), make_ranking([]), RboConfig()) == 1.0


def test_rbo_one_empty_is_zero():
    assert (
        rbo_topic(make_ranking(["a"]), make_ranking([]), RboConfig()) == 0.0
    )


def test_rbo_symmetry():
    rng = random.Random(21)
    universe = [f"d{i}" for i in range(12)]
    for _ in range(100):
        a = make_ranking(rng.sample(universe, rng.randint(0, 8)))
        b = make_ranking(rng.sample(universe, rng.randint(0, 8)))
        cfg = RboConfig(phi=rng.choice([0.5, 0.9]), depth=rng.randint(1, 10))
        assert rbo_topic(a, b, cfg) == rbo_topic(b, a, cfg)


def test_rbo_normalized_one_iff_prefixes_agree():
    cfg = RboConfig(phi=0.8, depth=3, normalize=True)
    same_prefix = rbo_topic(
        make_ranking(["a", "b", "c", "x"]),
        make_ranking(["a", "b", "c", "y"]),
        cfg,
    )
    assert same_prefix == 1.0  # disagreement sits below the evaluation depth
    differs = rbo_topic(
        make_ranking(["a", "b", "c"]), make_ranking(["a", "c", "b"]), cfg
    )
    assert differs < 1.0


def test_rbo_monotone_in_agreement():
    # replacing a disagreeing position with the other ranking's doc (when
    # that doc is not already present) never lowers the score
    universe = ["a", "b", "c", "d", "e", "f"]
    cfg = RboConfig(phi=0.7, depth=4, normalize=False)
    for length in range(1, 5):
        reference = universe[:length]
        for candidate in itertools.permutations(universe, length):
            candidate = list(candidate)
            base = rbo_topic(
                make_ranking(reference), make_ranking(candidate), cfg
            )
            for i in range(length):
                if candidate[i] != reference[i] and reference[i] not in candidate:
                    improved = candidate.copy()
                    improved[i] = reference[i]
                    better = rbo_topic(
                        make_ranking(reference), make_ranking(improved), cfg
                    )
                    assert better >= base - 1e-12


def test_rbo_brute_force_agreement():
    rng = random.Random(22)
    universe = [f"d{i}" for i in range(30)]
    for _ in range(300):
        a = rng.sample(universe, rng.randint(0, 20))
        b = rng.sample(universe, rng.randint(0, 20))
        phi = rng.choice([0.5, 0.8, 0.9])
        depth = rng.randint(1, 25)
        normalize = rng.choice([True, False])
        cfg = RboConfig(phi=phi, depth=depth, normalize=normalize)
        got = rbo_topic(make_ranking(a), make_ranking(b), cfg)
        assert got == pytest.approx(rbo_brute(a, b, phi, depth, normalize), abs=1e-12)


def test_rbo_config_validation():
    with pytest.raises(ValueError):
        RboConfig(phi=1.0)
    with pytest.raises(ValueError):
        RboConfig(phi=0.0)
    with pytest.raises(ValueError):
        RboConfig(depth=0)


# --- mean_rbo ---


def test_mean_rbo_self_comparison_is_one():
    run = make_run("s", {"1": ["a", "b"], "2": ["c"]})
    scores = mean_rbo(run, run, RboConfig(), {TopicId("1"), TopicId("2")})
    assert scores.mean == 1.0


def test_mean_rbo_disjoint_is_zero():
    a = make_run("s", {"1": ["a"], "2": ["b"]})
    b = make_run("s", {"1": ["x"], "2": ["y"]})
    assert mean_rbo(a, b, RboConfig(), {TopicId("1"), TopicId("2")}).mean == 0.0


def test_mean_rbo_averages_topics():
    a = make_run("s", {"1": ["a"], "2": ["b"]})
    b = make_run("s", {"1": ["a"], "2": ["z"]})
    scores = mean_rbo(a, b, RboConfig(), {TopicId("1"), TopicId("2")})
    assert scores.mean == pytest.approx(0.5)


def test_mean_rbo_missing_topic_warns_and_scores_zero():
    a = make_run("s", {"1": ["a"]})
    b = make_run("s", {"1": ["a"], "2": ["b"]})
    with pytest.warns(ChangeWarning, match="missing"):
        scores = mean_rbo(a, b, RboConfig(), {TopicId("1"), TopicId("2")})
    assert scores.per_topic[TopicId("2")] == 0.0
    # a run compared with itself keeps the rule for a topic it lacks
    with pytest.warns(ChangeWarning, match="missing"):
        scores = mean_rbo(a, a, RboConfig(), {TopicId("1"), TopicId("2")})
    assert scores.per_topic == {TopicId("1"): 1.0, TopicId("2"): 0.0}


def test_mean_rbo_empty_filter_is_error():
    run = make_run("s", {"1": ["a"]})
    with pytest.raises(ValueError, match="non-empty"):
        mean_rbo(run, run, RboConfig(), set())


def test_change_scores_mean_invariant():
    scores = ChangeScores({TopicId("2"): 0.6, TopicId("1"): 0.4})
    assert scores.mean == (0.4 + 0.6) / 2  # summed in topic id order
    with pytest.raises(ValueError, match="at least one topic"):
        ChangeScores({})


# --- rmse ---


def test_rmse_identical_is_exact_zero():
    s = _scores({"1": 0.3, "2": 0.9})
    assert rmse(s, s) == 0.0


def test_rmse_hand_computed():
    a = _scores({"t1": 1.0, "t2": 0.5})
    b = _scores({"t1": 0.5, "t2": 0.5})
    assert rmse(a, b) == pytest.approx(0.35355, abs=1e-5)


def test_rmse_single_topic_is_absolute_difference():
    assert rmse(_scores({"1": 0.7}), _scores({"1": 0.5})) == pytest.approx(0.2)


def test_rmse_measure_mismatch_is_error():
    with pytest.raises(ValueError, match="measure"):
        rmse(_scores({"1": 0.5}), _scores({"1": 0.5}, measure="bpref"))


def test_rmse_empty_intersection_is_error():
    with pytest.raises(ValueError, match="common"):
        rmse(_scores({"1": 0.5}), _scores({"2": 0.5}))


def test_rmse_symmetry_and_triangle_inequality():
    rng = random.Random(23)
    topics = [str(i) for i in range(8)]
    for _ in range(100):
        a = _scores({t: rng.random() for t in topics})
        b = _scores({t: rng.random() for t in topics})
        c = _scores({t: rng.random() for t in topics})
        assert rmse(a, b) == rmse(b, a)
        assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12


@NO_SHRINK
@given(score_list_pairs(min_size=1))
def test_rmse_has_the_bits_of_the_exact_sum(pair):
    a, b = pair
    topics = [f"q{i}" for i in range(len(a))]
    got = rmse(_scores(dict(zip(topics, a))), _scores(dict(zip(topics, b))))
    squares = [(x - y) * (x - y) for x, y in zip(a, b)]
    assert got.hex() == math.sqrt(exact_sum(squares) / len(a)).hex()


@NO_SHRINK
@given(score_list_pairs(min_size=2), st.randoms(use_true_random=False))
def test_means_rmse_and_t_keep_their_bits_in_any_insertion_order(pair, rng):
    by_topic = [dict(zip([f"q{i}" for i in range(len(a))], a)) for a in pair]

    def bits(order):
        a, b = (_scores({t: values[t] for t in order}) for values in by_topic)
        t, _, _ = significance.paired_t_test(a, b)
        values = (effectiveness.arp(a), ChangeScores(a.scores).mean, rmse(a, b), t)
        return [value.hex() for value in values]

    order = list(by_topic[0])
    shuffled = order[:]
    rng.shuffle(shuffled)
    assert bits(shuffled) == bits(order)


# --- ARP-level deltas ---


def test_result_delta_examples():
    assert result_delta(0.4, 0.4) == 0.0
    assert result_delta(0.4, 0.2) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="zero baseline"):
        result_delta(0.0, 0.2)


def test_result_delta_sign_tracks_improvement():
    # rising ARP over time must yield a negative delta
    assert result_delta(0.081, 0.111) < 0.0


def test_relative_improvement_examples():
    assert relative_improvement(0.4, 0.4) == 0.0
    assert relative_improvement(0.2, 0.4) == pytest.approx(-0.5)
    with pytest.raises(ValueError, match="pivot"):
        relative_improvement(0.2, 0.0)


def test_delta_ri_examples():
    assert delta_ri(0.3, 0.3) == 0.0
    assert delta_ri(0.0, 0.1) == pytest.approx(-0.1)


def test_delta_ri_scale_invariance():
    rng = random.Random(24)
    for _ in range(50):
        sys0, piv0 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        sys1, piv1 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        scale = rng.uniform(0.1, 1.0)

        def dri(s0, p0, s1, p1):
            ri0 = relative_improvement(s0, p0)
            ri1 = relative_improvement(s1, p1)
            return delta_ri(ri0, ri1)

        base = dri(sys0, piv0, sys1, piv1)
        scaled = dri(sys0 * scale, piv0 * scale, sys1 * scale, piv1 * scale)
        assert scaled == pytest.approx(base, abs=1e-9)


# --- build_matrix ---

MEASURES = [MeasureSpec.parse("p@10"), MeasureSpec.parse("ndcg")]


def _matrix_inputs(labels=("t0", "t1"), systems=("alpha",), topic_ids=None):
    """In-memory environments over one corpus, with a run per system and
    environment and a complete zpivot run set."""
    corpus = synth_corpus(60)
    ids = sorted(corpus)
    qrels = synth_qrels(ids, CLI_TOPICS)
    envs = [
        make_environment(label, corpus, qrels, CLI_TOPICS if topic_ids is None else topic_ids[i])
        for i, label in enumerate(labels)
    ]
    runs = {
        tag: {label: synth_run(tag, ids, CLI_TOPICS, depth=20) for label in labels}
        for tag in systems
    }
    pivot = {label: synth_run("zpivot", ids, CLI_TOPICS, depth=20) for label in labels}
    return envs, runs, pivot


def _build(envs, runs, pivot, **kwargs):
    return build_matrix(
        "c", envs, runs, pivot, Scenario.DTQ_PRIME, MEASURES, RboConfig(), **kwargs
    )


def test_build_matrix_rejects_mixed_pivot_tags():
    envs, runs, pivot = _matrix_inputs(systems=("alpha", "other"))
    pivot["t1"] = runs.pop("other")["t1"]
    with pytest.raises(ValueError, match="^pivot runs carry mixed system tags: other, zpivot$"):
        _build(envs, runs, pivot)


def test_build_matrix_rejects_a_pivot_that_is_also_a_system():
    envs, runs, _ = _matrix_inputs()
    message = "pivot system 'alpha' also given via --run; supply it only as --pivot-run"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _build(envs, runs, dict(runs["alpha"]))


def test_build_matrix_rejects_environments_without_a_common_topic():
    envs, runs, pivot = _matrix_inputs(topic_ids=(["q1"], ["q2"]))
    with pytest.raises(ValueError, match="^no topic is common to every environment$"):
        _build(envs, runs, pivot)


def _no_task(tasks):
    raise AssertionError("a scoring task was started")


def test_build_matrix_settles_what_needs_no_run_before_any_task(monkeypatch):
    monkeypatch.setattr(_workers, "run_tasks", _no_task)
    envs, runs, pivot = _matrix_inputs(topic_ids=(["q1"], ["q2"]))
    with pytest.raises(ValueError, match="^no topic is common to every environment$"):
        _build(envs, runs, pivot)
    envs, runs, pivot = _matrix_inputs()
    del pivot["t1"]
    with pytest.warns(ChangeWarning, match="^pivot runs missing for: t1;"):
        with pytest.raises(AssertionError, match="a scoring task was started"):
            _build(envs, runs, pivot)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"alpha": 1.5}, "alpha must lie in (0, 1], got 1.5"),
        ({"alpha": 0.0}, "alpha must lie in (0, 1], got 0.0"),
        ({"family_size": 0}, "family size must be >= 1, got 0"),
        ({"alpha": 0.05, "family_size": -3}, "family size must be >= 1, got -3"),
    ],
    ids=["alpha 1.5", "alpha 0", "family size 0", "family size -3"],
)
def test_build_matrix_rejects_a_bad_alpha_or_family_size_before_any_run_is_read(
    monkeypatch, tmp_path, kwargs, message
):
    monkeypatch.setattr(_workers, "run_tasks", _no_task)
    envs, _, _ = _matrix_inputs()
    # paths that do not exist: reading any of them would raise OSError
    runs = {"alpha": {label: tmp_path / f"alpha.{label}" for label in ("t0", "t1")}}
    pivot = {label: tmp_path / f"zpivot.{label}" for label in ("t0", "t1")}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _build(envs, runs, pivot, **kwargs)


def test_build_matrix_warns_when_a_run_file_names_another_system():
    envs, runs, pivot = _matrix_inputs()
    runs = {"gamma": runs["alpha"]}
    with pytest.warns(
        IngestWarning, match="^run tagged 'alpha' in its file is registered as system 'gamma'$"
    ):
        matrix = _build(envs, runs, pivot)
    assert {row.system_tag for row in matrix.rows} == {"gamma", "zpivot"}


def test_build_matrix_default_family_is_systems_times_later_environments(monkeypatch):
    envs, runs, pivot = _matrix_inputs(labels=("t0", "t1", "t2"), systems=("alpha", "beta"))
    families = []
    original = significance.compare

    def recording_compare(a, b, alpha, family_size):
        families.append(family_size)
        return original(a, b, alpha=alpha, family_size=family_size)

    monkeypatch.setattr(significance, "compare", recording_compare)
    _build(envs, runs, pivot)
    # every system is tested against the pivot in every environment and measure
    assert families == [2 * (3 - 1)] * (2 * 3 * len(MEASURES))
    families.clear()
    _build(envs, runs, pivot, family_size=7)
    assert set(families) == {7}


def test_build_matrix_computes_each_arp_once(monkeypatch):
    envs, runs, pivot = _matrix_inputs(labels=("t0", "t1", "t2"), systems=("alpha", "beta"))
    expected = _build(envs, runs, pivot)
    averaged = []
    original = effectiveness.arp

    def recording_arp(scores):
        averaged.append(scores)
        return original(scores)

    monkeypatch.setattr(effectiveness, "arp", recording_arp)
    assert _build(envs, runs, pivot) == expected
    # alpha, beta and the pivot, at each environment, under each measure
    assert len(averaged) == len({id(scores) for scores in averaged}) == 3 * 3 * len(MEASURES)


def test_build_matrix_tests_significance_when_the_squared_deviations_underflow(monkeypatch):
    envs, runs, pivot = _matrix_inputs()
    for cpus in cpu_masks():
        monkeypatch.setattr(_workers, "_cpus", lambda: cpus)
        stand_in = UnderflowingScores()
        monkeypatch.setattr(effectiveness, "_score_judged", stand_in)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ChangeWarning)
            matrix = _build(envs, runs, pivot)
        if len(cpus) == 1:
            assert stand_in.calls == 4  # one per run: alpha and the pivot at t0 and t1
        # the differences 0 and -1.27e-225 give t = -1 and p = 0.5
        alpha_rows = [row for row in matrix.rows if row.system_tag == "alpha"]
        assert [row.significant for row in alpha_rows] == [dict.fromkeys(MEASURES, False)] * 2


def test_build_matrix_leaves_undefined_cells_empty_and_says_why():
    # one topic, judged alike in both environments; a scores 0 at t0 and
    # the pivot p scores 0 in both, so every ratio against them is undefined
    qrels = make_qrels({("q1", "d1"): 1, ("q1", "d2"): 0})
    envs = [make_environment(label, {}, qrels) for label in ("t0", "t1")]
    runs = {"a": {"t0": make_run("a", {"q1": ["d2"]}), "t1": make_run("a", {"q1": ["d1", "d2"]})}}
    pivot = {"t0": make_run("p", {"q1": ["d2"]}), "t1": make_run("p", {"q1": ["d2", "d1"]})}
    p1 = MeasureSpec.parse("p@1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        matrix = build_matrix("c", envs, runs, pivot, Scenario.DTQ_PRIME, [p1], RboConfig())
    undefined = [
        "{} {} p@1: undefined result delta (zero baseline)",
        "{} {} p@1: undefined relative improvement (zero pivot mean)",
        "{} {} p@1: significance skipped (paired test requires >= 2 common topics, got 1)",
    ]
    expected = [m.format("a", label) for label in ("t0", "t1") for m in undefined]
    expected += [undefined[0].format("p", label) for label in ("t0", "t1")]
    assert [str(w.message) for w in caught] == expected
    assert {(w.category, w.filename, w.lineno) for w in caught} == {(ChangeWarning, __file__, line)}
    doc = json.loads(render(matrix, "json"))
    assert [
        (row["system"], row["ee"], row["arp"], row["re_delta"], row["delta_ri"], row["significant"])
        for row in doc["rows"]
    ] == [
        ("a", "t0", {"p@1": 0.0}, {}, {"p@1": None}, {"p@1": None}),
        ("a", "t1", {"p@1": 1.0}, {}, {"p@1": None}, {"p@1": None}),
        ("p", "t0", {"p@1": 0.0}, {}, {"p@1": None}, {"p@1": None}),
        ("p", "t1", {"p@1": 0.0}, {}, {"p@1": None}, {"p@1": None}),
    ]
    assert render(matrix, "csv").decode().splitlines()[1:] == [
        "c,a,t0,dtq-prime,,0.0000,,,,",
        "c,a,t1,dtq-prime,,1.0000,,,,",
        "c,p,t0,dtq-prime,,0.0000,,,,",
        "c,p,t1,dtq-prime,,0.0000,,,,",
    ]
