"""Metamorphic relations over a whole change matrix.

Each test builds a second input from the first by one known operation
(renaming systems, regrading qrels, relabelling documents, or repeating
an environment unchanged) and checks that ``build_matrix`` responds as
the model of temporal change says it must. The inputs are small
in-memory runs and qrels; unanswered topics may occur except in the
identity relation, where a topic missing from both runs would score an
overlap of 0.0. One relation runs the ``change`` command on files:
creating or deleting documents that no qrels judges and no run retrieves
changes neither its stdout nor its warnings and stderr.
"""

import contextlib
import io
import json
import warnings
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irdrift import _workers
from irdrift.change import RboConfig, build_matrix
from irdrift.cli import main
from irdrift.ingest import load_config, load_qrels, load_run
from irdrift.model import MeasureSpec, Qrels, Ranking, RunFile, Scenario

from conftest import change_argv, make_environment, make_ranking, pivot_argv, write_cli_fixture

DOCS = [f"d{i}" for i in range(8)]
TOPICS = ["q0", "q1", "q2"]
LABELS = ("t0", "t1", "t2")
MEASURES = [MeasureSpec.parse(name) for name in ("p@3", "ndcg", "bpref")]
PIVOT = "zpivot"
# no tag drawn here can be the pivot's
TAGS = st.text("abcxy", min_size=1, max_size=3)
GRADES = st.dictionaries(st.sampled_from(DOCS), st.integers(0, 2), min_size=1)
RELATIONS = settings(max_examples=40, deadline=None)


@st.composite
def qrels(draw):
    # q0 judges a relevant doc, so every environment has a topic to score
    by_topic = {"q0": draw(GRADES) | {draw(st.sampled_from(DOCS)): draw(st.integers(1, 2))}}
    for topic in TOPICS[1:]:
        if draw(st.booleans()):
            by_topic[topic] = draw(GRADES)
    return Qrels(by_topic)


@st.composite
def run_files(draw, tag, every_topic):
    topics = TOPICS if every_topic else draw(st.lists(st.sampled_from(TOPICS), unique=True))
    docs = st.lists(st.sampled_from(DOCS), unique=True, min_size=1)
    return RunFile(tag, {topic: make_ranking(draw(docs)) for topic in topics})


@st.composite
def matrix_inputs(draw, scenarios=tuple(Scenario), every_topic=False):
    """Environments t0..t2 over the same topics, a run per system and
    environment, a pivot run set that may be empty, and a scenario."""

    def run_set(tag):
        return {label: draw(run_files(tag, every_topic)) for label in LABELS}

    envs = [make_environment(label, None, draw(qrels()), TOPICS) for label in LABELS]
    tags = draw(st.lists(TAGS, unique=True, min_size=1, max_size=3))
    pivot = run_set(PIVOT) if draw(st.booleans()) else {}
    return envs, {tag: run_set(tag) for tag in tags}, pivot, draw(st.sampled_from(scenarios))


def matrix(envs, runs, pivot, scenario, rbo=RboConfig(depth=5)):
    # every task runs in this process; the workers have their own tests
    with patch.object(_workers, "_cpus", list), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_matrix("c", envs, runs, pivot, scenario, MEASURES, rbo)


@RELATIONS
@given(inputs=matrix_inputs(), data=st.data())
def test_renaming_systems_or_reordering_runs_only_re_sorts_the_rows(inputs, data):
    envs, runs, pivot, scenario = inputs
    new_tags = data.draw(st.lists(TAGS, unique=True, min_size=len(runs), max_size=len(runs)))
    rename = dict(zip(runs, new_tags))
    renamed = {
        rename[tag]: {
            label: run._replace(system_tag=rename[tag]) for label, run in runs[tag].items()
        }
        for tag in data.draw(st.permutations(list(runs)))
    }
    rename[PIVOT] = PIVOT
    rows = matrix(envs, runs, pivot, scenario).rows
    expected = sorted(
        (row._replace(system_tag=rename[row.system_tag]) for row in rows),
        key=lambda row: (row.system_tag, LABELS.index(row.ee_label)),
    )
    assert list(matrix(envs, renamed, pivot, scenario).rows) == expected


@RELATIONS
@given(inputs=matrix_inputs(scenarios=(Scenario.DTQ,)), data=st.data())
def test_regrading_a_topic_in_a_later_environment_moves_no_dtq_cell(inputs, data):
    envs, runs, pivot, scenario = inputs
    i = data.draw(st.integers(1, len(envs) - 1))
    by_topic = envs[i].qrels.by_topic
    topic = data.draw(st.sampled_from(sorted(by_topic)))
    regraded = list(envs)
    regraded[i] = envs[i]._replace(qrels=Qrels({**by_topic, topic: data.draw(GRADES)}))
    assert matrix(regraded, runs, pivot, scenario) == matrix(envs, runs, pivot, scenario)


@RELATIONS
@given(
    inputs=matrix_inputs(),
    new_ids=st.lists(
        st.text("0123456789abcdef", min_size=1, max_size=4),
        unique=True,
        min_size=len(DOCS),
        max_size=len(DOCS),
    ).map(sorted),
)
def test_relabelling_doc_ids_in_order_moves_no_cell(inputs, new_ids):
    envs, runs, pivot, scenario = inputs
    relabel = dict(zip(sorted(DOCS), new_ids))

    def env_of(env):
        by_topic = env.qrels.by_topic
        return env._replace(
            qrels=Qrels({t: {relabel[d]: g for d, g in by_topic[t].items()} for t in by_topic})
        )

    def run_of(run):
        return run._replace(
            rankings={
                topic: Ranking(tuple(relabel[d] for d in ranking.docs), ranking.scores)
                for topic, ranking in run.rankings.items()
            }
        )

    def runs_of(by_label):
        return {label: run_of(run) for label, run in by_label.items()}

    relabelled = [env_of(env) for env in envs], {tag: runs_of(r) for tag, r in runs.items()}
    assert matrix(*relabelled, runs_of(pivot), scenario) == matrix(envs, runs, pivot, scenario)


@RELATIONS
@given(
    inputs=matrix_inputs(every_topic=True),
    same_object=st.booleans(),
    phi=st.floats(0.05, 0.95),
    depth=st.integers(1, 10),
)
def test_an_unchanged_environment_changes_nothing(inputs, same_object, phi, depth):
    envs, runs, pivot, scenario = inputs
    # every environment is t0 again, and every run its system's t0 run,
    # as the same object or as a copy that the prefix walk compares
    copies = [envs[0]._replace(label=label) for label in LABELS]

    def repeated(by_label):
        first = by_label["t0"]
        if same_object:
            return dict.fromkeys(LABELS, first)
        rankings = first.rankings
        return {
            label: first._replace(
                rankings={t: Ranking(tuple(list(r.docs)), r.scores) for t, r in rankings.items()}
            )
            for label in LABELS
        }

    unchanged = {tag: repeated(by_label) for tag, by_label in runs.items()}
    rbo = RboConfig(phi, depth)
    rows = matrix(copies, unchanged, repeated(pivot) if pivot else {}, scenario, rbo).rows
    if scenario is Scenario.DTQ:
        assert {row.rbo_mean for row in rows} == {1.0}
        assert {value for row in rows for value in row.rmse.values()} == {0.0}
        return
    pivot_arp = {row.ee_label: row.arp for row in rows if row.system_tag == PIVOT}
    for row in rows:
        for measure, arp in row.arp.items():
            # RΔ is undefined at a zero ARP and ΔRI at a zero pivot ARP
            assert row.re_delta.get(measure) == (0.0 if arp else None)
            if pivot and row.system_tag != PIVOT:
                assert row.delta_ri[measure] == (0.0 if pivot_arp[row.ee_label][measure] else None)
            else:
                assert row.delta_ri[measure] is None


# --- the change command over manifests with documents nothing reads ---------


def run_cli(argv):
    """(exit code, stdout bytes, stderr text, warnings as (category, text,
    file, line)) of one CLI call, with warnings shown as by default."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code = main(argv)
    shown = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return code, stdout.buffer.getvalue(), stderr.getvalue(), shown


@pytest.fixture(scope="module")
def change_inputs(tmp_path_factory):
    """The CLI fixture with a pivot, each scenario's argv and outcome, and
    per environment the manifest lines of the documents that no qrels
    judges and no run retrieves."""
    config, runs = write_cli_fixture(
        tmp_path_factory.mktemp("change"), n_docs=400, systems=("alpha", "beta", "zpivot")
    )
    argvs = {"dtq": change_argv(config, runs, "dtq"), "dtq-prime": pivot_argv(config, runs)}
    configs = load_config(config)
    read = set()
    for path in runs.values():
        for ranking in load_run(path).rankings.values():
            read.update(ranking.docs)
    for cfg in configs:
        read.update(*load_qrels(cfg.qrels_path).by_topic.values())
    unread = []
    for cfg in configs:
        lines = cfg.manifest_path.read_text(encoding="utf-8").splitlines(keepends=True)
        unread.append([line for line in lines if json.loads(line)["doc_id"] not in read])
        assert unread[-1], "no document to delete"
    outcomes = {scenario: run_cli(argv) for scenario, argv in argvs.items()}
    assert all(code == 0 and out for code, out, *_ in outcomes.values())
    return config, configs, argvs, outcomes, unread


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_documents_that_nothing_reads_change_no_byte_of_change(
    change_inputs, data, tmp_path_factory
):
    config, configs, argvs, outcomes, unread = change_inputs
    directory = tmp_path_factory.mktemp("crud")
    entries = []
    for cfg, deletable in zip(configs, unread):
        deleted = set(data.draw(st.lists(st.sampled_from(deletable), unique=True)))
        created = [
            json.dumps({"doc_id": f"new-{cfg.label}-{k}", "length": 7})
            for k in range(data.draw(st.integers(0, 3)))
        ]
        lines = cfg.manifest_path.read_text(encoding="utf-8").splitlines(keepends=True)
        manifest = directory / cfg.manifest_path.name
        kept = "".join(line for line in lines if line not in deleted)
        manifest.write_text(kept + "".join(line + "\n" for line in created), encoding="utf-8")
        entries.append(
            {"label": cfg.label, "manifest": str(manifest), "qrels": str(cfg.qrels_path)}
        )
    changed = directory / config.name
    changed.write_text(json.dumps(entries), encoding="utf-8")
    for scenario, argv in argvs.items():
        moved = [str(changed) if arg == str(config) else arg for arg in argv]
        assert run_cli(moved) == outcomes[scenario]
