"""Metamorphic relations over a whole change matrix, and an oracle for it.

The oracle builds every cell of both scenarios from the public per-cell
calls alone, and ``build_matrix`` must equal it bit for bit, whether its
tasks run in this process or in a forked worker.

Each other test builds a second input from the first by one known
operation (renaming systems, regrading qrels, relabelling documents, or
repeating an environment unchanged) and checks that ``build_matrix``
responds as the model of temporal change says it must. The inputs are
small in-memory runs and qrels; unanswered topics may occur except in
the identity relation, where a topic missing from both runs would score
an overlap of 0.0. A regrade under dtq-prime is checked on the per-topic
table that the scoring tasks return. Three relations run the ``change``
command on files: creating or deleting documents that no qrels judges
and no run retrieves, creating a topic that only the last environment
judges and retrieves, under one CPU and two, and relabelling every
document id in order, with tied run scores that ingest orders by doc id,
change no byte of its stdout; the first two change neither its warnings
nor stderr.
"""

import contextlib
import io
import json
import warnings
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irdrift import _workers, change
from irdrift.change import (
    RboConfig,
    build_matrix,
    delta_ri,
    mean_rbo,
    relative_improvement,
    result_delta,
    rmse,
)
from irdrift.cli import main
from irdrift.effectiveness import arp, evaluate_run
from irdrift.ingest import load_config, load_qrels, load_run
from irdrift.model import MeasureSpec, PerTopicScores, Qrels, Ranking, RunFile, Scenario
from irdrift.report import ChangeReport
from irdrift.significance import compare

from conftest import (
    change_argv,
    cpu_masks,
    make_environment,
    make_ranking,
    pivot_argv,
    write_cli_fixture,
)

DOCS = [f"d{i}" for i in range(8)]
TOPICS = ["q0", "q1", "q2"]
LABELS = ("t0", "t1", "t2")
MEASURES = [MeasureSpec.parse(name) for name in ("p@3", "ndcg", "bpref")]
PIVOT = "zpivot"
# no tag drawn here can be the pivot's
TAGS = st.text("abcxy", min_size=1, max_size=3)
GRADES = st.dictionaries(st.sampled_from(DOCS), st.integers(0, 2), min_size=1)
RELATIONS = settings(max_examples=40, deadline=None)
RBO = RboConfig(depth=5)


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


def matrix(envs, runs, pivot, scenario, rbo=RBO):
    # every task runs in this process; the workers have their own tests
    with patch.object(_workers, "_cpus", list), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_matrix("c", envs, runs, pivot, scenario, MEASURES, rbo)


def _defined(compute):
    """``compute()``, or ``None`` where it raises ``ValueError``."""
    try:
        return compute()
    except ValueError:
        return None


def oracle_rows(envs, runs, pivot, scenario, rbo=RBO):
    """Every row of the matrix, each cell from one public per-cell call."""
    labels = [env.label for env in envs]
    common = set.intersection(*(set(env.topics) for env in envs))
    measures = sorted(MEASURES, key=lambda m: m.name)
    systems = dict(runs)
    if pivot and all(label in pivot for label in labels):
        systems[PIVOT] = pivot
    dtq = scenario is Scenario.DTQ
    family = max(1, len(runs) * (len(labels) - 1))  # the default: systems x later environments

    def scores(by_label, i, measure):
        qrels = envs[0 if dtq else i].qrels
        return evaluate_run(by_label[labels[i]], qrels, measure, topic_filter=common)

    rows = []
    for tag in sorted(systems):
        by_label = systems[tag]
        for i, label in enumerate(labels):
            if dtq:
                overlap = mean_rbo(by_label[labels[0]], by_label[label], rbo, common).mean
                rmses = {m: rmse(scores(by_label, 0, m), scores(by_label, i, m)) for m in measures}
                rows.append(ChangeReport(tag, label, scenario, rbo_mean=overlap, rmse=rmses))
                continue
            paired = tag != PIVOT and labels[0] in pivot and label in pivot
            arps, deltas, shifts, significant = {}, {}, {}, {}
            for m in measures:
                before, now = arp(scores(by_label, 0, m)), arp(scores(by_label, i, m))
                arps[m] = now
                if (delta := _defined(lambda: result_delta(before, now))) is not None:
                    deltas[m] = delta
                shifts[m] = significant[m] = None
                if paired:
                    pivot_before, pivot_now = arp(scores(pivot, 0, m)), arp(scores(pivot, i, m))
                    shifts[m] = _defined(
                        lambda: delta_ri(
                            relative_improvement(before, pivot_before),
                            relative_improvement(now, pivot_now),
                        )
                    )
                    significant[m] = _defined(
                        lambda: compare(
                            scores(by_label, i, m), scores(pivot, i, m), family_size=family
                        ).significant
                    )
            rows.append(
                ChangeReport(tag, label, scenario, None, {}, arps, deltas, shifts, significant)
            )
    return rows


@RELATIONS
@given(inputs=matrix_inputs())
def test_the_matrix_is_its_cells_from_the_public_calls(inputs):
    envs, runs, pivot, scenario = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = oracle_rows(envs, runs, pivot, scenario)
        for cpus in cpu_masks():
            with patch.object(_workers, "_cpus", lambda: cpus):
                built = build_matrix("c", envs, runs, pivot, scenario, MEASURES, RBO)
            rows = list(built.rows)
            # repr tells every float's bits apart, and keeps each map's order
            assert rows == expected
            assert repr(rows) == repr(expected)


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


def per_topic_entries(envs, runs, pivot, scenario):
    """Each value of the per-topic tables that the scoring tasks return,
    by (task index, label, measure or "rbo", topic), as its float's hex."""
    tables = []
    score_system = change._score_system

    def recording(*args):
        scored = score_system(*args)
        tables.append(scored.table)
        return scored

    with patch.object(change, "_score_system", recording):
        matrix(envs, runs, pivot, scenario)
    entries = {}
    for task, table in enumerate(tables):
        for (label, key), values in table.items():
            by_topic = values.scores if isinstance(values, PerTopicScores) else values.per_topic
            for topic, value in by_topic.items():
                entries[task, label, getattr(key, "name", key), topic] = value.hex()
    return entries


@RELATIONS
@given(inputs=matrix_inputs(scenarios=(Scenario.DTQ_PRIME,)), data=st.data())
def test_regrading_one_judgment_later_moves_only_its_topic_there(inputs, data):
    envs, runs, pivot, scenario = inputs
    i = data.draw(st.integers(1, len(envs) - 1))
    by_topic = envs[i].qrels.by_topic
    topic = data.draw(st.sampled_from(sorted(by_topic)))
    doc = data.draw(st.sampled_from(sorted(by_topic[topic])))
    grade = data.draw(st.integers(0, 2).filter(lambda g: g != by_topic[topic][doc]))
    regraded_qrels = Qrels({**by_topic, topic: {**by_topic[topic], doc: grade}})
    # the environment keeps a topic with a relevant document to score
    assume(any(max(grades.values()) >= 1 for grades in regraded_qrels.by_topic.values()))
    regraded = list(envs)
    regraded[i] = envs[i]._replace(qrels=regraded_qrels)
    before = per_topic_entries(envs, runs, pivot, scenario)
    after = per_topic_entries(regraded, runs, pivot, scenario)
    # every system's entry of that topic there may move, appear or go
    moved = {
        key for key in before.keys() | after.keys() if key[1] == LABELS[i] and key[3] == topic
    }
    assert {k: v for k, v in before.items() if k not in moved} == {
        k: v for k, v in after.items() if k not in moved
    }


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


def test_a_topic_outside_the_common_set_changes_no_byte_of_change(change_inputs, tmp_path):
    # qNEW is judged and retrieved at t1 only, so no scenario's common
    # topic set holds it
    config, configs, argvs, outcomes, _ = change_inputs
    last = configs[-1]
    lines = last.manifest_path.read_text(encoding="utf-8").splitlines()
    docs = [json.loads(line)["doc_id"] for line in lines[:5]]
    qrels = tmp_path / last.qrels_path.name
    judged = "".join(f"qNEW 0 {doc} {grade}\n" for doc, grade in zip(docs, (2, 1, 0, 1, 0)))
    qrels.write_text(last.qrels_path.read_text(encoding="utf-8") + judged, encoding="utf-8")
    entries = [
        {"label": cfg.label, "manifest": str(cfg.manifest_path),
         "qrels": str(qrels if cfg is last else cfg.qrels_path)}
        for cfg in configs
    ]
    moved = {str(config): tmp_path / config.name}
    moved[str(config)].write_text(json.dumps(entries), encoding="utf-8")
    for path in config.parent.glob(f"*.{last.label}.run.txt"):
        text = path.read_text(encoding="utf-8")
        tag = text.split(maxsplit=6)[5]
        ranked = docs[len(tag) % 5 :] + docs[: len(tag) % 5]
        moved[str(path)] = tmp_path / path.name
        moved[str(path)].write_text(
            text + "".join(f"qNEW Q0 {doc} {k} {1 / k} {tag}\n" for k, doc in enumerate(ranked, 1)),
            encoding="utf-8",
        )
    for scenario, argv in argvs.items():
        changed = []
        for arg in argv:
            for old, new in moved.items():
                arg = arg.replace(old, str(new))
            changed.append(arg)
        assert changed != argv
        for cpus in cpu_masks():
            with patch.object(_workers, "_cpus", lambda: cpus):
                assert run_cli(changed) == outcomes[scenario]


# --- the change command over files whose document ids are relabelled -------


@pytest.fixture(scope="module")
def tied_inputs(tmp_path_factory):
    """The CLI fixture with a pivot, its run scores cut to one decimal, so
    that ingest orders many ties by doc id; its directory, each scenario's
    argv and stdout, and its document ids."""
    directory = tmp_path_factory.mktemp("tied")
    config, runs = write_cli_fixture(directory, systems=("alpha", "beta", "zpivot"))
    for path in runs.values():
        with open(path) as handle:
            cols = [line.split() for line in handle]
        with open(path, "w") as handle:
            handle.writelines(" ".join(c[:4] + [f"{float(c[4]):.1f}", c[5]]) + "\n" for c in cols)
    argvs = {"dtq": change_argv(config, runs, "dtq"), "dtq-prime": pivot_argv(config, runs)}
    outcomes = {scenario: run_cli(argv)[:2] for scenario, argv in argvs.items()}
    assert all(code == 0 and out for code, out in outcomes.values())
    manifest = (directory / "t1.manifest.jsonl").read_text(encoding="utf-8")
    ids = sorted(json.loads(line)["doc_id"] for line in manifest.splitlines())
    return directory, argvs, outcomes, ids


def _relabelled(directory, into, relabel):
    """Every file of ``directory`` written to ``into`` with each document
    id relabelled, line for line."""
    for path in directory.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".manifest.jsonl"):
            docs = [json.loads(line) for line in text.splitlines()]
            text = "".join(json.dumps({**d, "doc_id": relabel[d["doc_id"]]}) + "\n" for d in docs)
        elif path.name.endswith(".txt"):  # run and qrels lines name the doc third
            lines = [line.split() for line in text.splitlines()]
            text = "".join(" ".join(c[:2] + [relabel[c[2]]] + c[3:]) + "\n" for c in lines)
        (into / path.name).write_text(text, encoding="utf-8")


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_relabelling_doc_ids_in_order_in_the_files_changes_no_byte_of_change(
    tied_inputs, data, tmp_path_factory
):
    directory, argvs, outcomes, ids = tied_inputs
    new_ids = data.draw(
        st.lists(
            st.text("0123456789abcdefé-_", min_size=1, max_size=5),
            unique=True,
            min_size=len(ids),
            max_size=len(ids),
        ).map(sorted)
    )
    into = tmp_path_factory.mktemp("relabelled")
    _relabelled(directory, into, dict(zip(ids, new_ids)))
    for scenario, argv in argvs.items():
        moved = [arg.replace(str(directory), str(into)) for arg in argv]
        assert run_cli(moved)[:2] == outcomes[scenario]
