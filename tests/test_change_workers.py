"""``change`` behaves the same whether its scoring tasks run in the calling
process or in forked workers.

Each CLI test runs the CLI under both answers of ``conftest.cpu_masks``
for the CPU query of :mod:`irdrift._workers`: one CPU, where every task
runs in this process, and two, where the tasks of the dtq fixture (alpha,
beta and the pivot zpivot) split into alpha and zpivot here and beta in
one forked worker. Both paths must give the same error line and exit
code, the same warnings in the same order, and leave no child process.
The last tests call ``run_tasks`` itself: against a plain loop over
synthetic tasks on up to three processes, and with a calling process
that fails while a worker is still in its task.
"""

import os
import threading
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from irdrift import _workers, change
from irdrift.cli import main

from conftest import change_argv, count_forks, cpu_masks, write_cli_fixture


def _dtq_argv(tmp_path):
    """dtq over alpha and beta with zpivot as a complete pivot."""
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "zpivot"))
    argv = change_argv(config, runs, "dtq")
    for label in ("t0", "t1"):
        argv += ["--pivot-run", f"{label}={runs[('zpivot', label)]}"]
    return argv, runs


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_both_ways(monkeypatch, capsys, argv, action=None):
    """(exit code, stderr, warnings as (text, category, file, line)) of
    the CLI under each CPU mask, with warnings recorded under ``action``."""
    outcomes = []
    for cpus in cpu_masks():
        monkeypatch.setattr(_workers, "_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            if action is not None:
                warnings.simplefilter(action)
            code = main(argv)
        _no_child_left()
        shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        outcomes.append((code, capsys.readouterr().err, shown))
    return outcomes


@pytest.mark.parametrize(
    "broken, reported",
    [
        ([("beta", "t1")], ("beta", "t1")),  # the last system's task
        ([("zpivot", "t1")], ("zpivot", "t1")),  # the pivot's task
        # beta's task comes before the pivot's, though the pivot runs here
        ([("zpivot", "t0"), ("beta", "t1")], ("beta", "t1")),
    ],
)
def test_a_malformed_run_gives_one_error_line_in_both_paths(
    tmp_path, capsys, monkeypatch, broken, reported
):
    argv, runs = _dtq_argv(tmp_path)
    for key in broken:
        with open(runs[key], "a") as handle:
            handle.write("q1 Q0 extra 1\n")
    with open(runs[reported]) as handle:
        lines = sum(1 for _ in handle)
    expected = (
        f"error: {runs[reported]}: line {lines}: expected 6 columns "
        f"(topic Q0 doc rank score tag), got 4\n"
    )
    assert _run_both_ways(monkeypatch, capsys, argv) == [(2, expected, [])] * 2


def test_an_undecodable_run_read_in_a_worker_is_named(tmp_path, capsys, monkeypatch):
    argv, runs = _dtq_argv(tmp_path)
    path = runs[("beta", "t1")]
    with open(path, "r+b") as handle:
        handle.write(b"\xff")
    expected = (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        f"invalid start byte\n"
    )
    assert _run_both_ways(monkeypatch, capsys, argv) == [(2, expected, [])] * 2


def _warning_fixture(tmp_path):
    """The dtq fixture with alpha's and beta's t1 runs both tagged 'shared'
    in their files, both without topic q3, and both ending in a line
    tagged 'other': each system's task warns the same three texts."""
    argv, runs = _dtq_argv(tmp_path)
    for tag in ("alpha", "beta"):
        path = runs[(tag, "t1")]
        with open(path) as handle:
            cols = [line.split() for line in handle]
        kept = [" ".join(c[:5] + ["shared"]) + "\n" for c in cols if c[0] != "q3"]
        with open(path, "w") as handle:
            handle.writelines(kept + ["q1 Q0 extra 99 -1.0 other\n"])
    return argv, len(kept) + 1


@pytest.mark.parametrize("action", ["default", "always", "once"])
def test_both_paths_warn_the_same(tmp_path, capsys, monkeypatch, action):
    argv, line = _warning_fixture(tmp_path)
    one, two = _run_both_ways(monkeypatch, capsys, argv, action)
    assert one == two
    code, _, shown = one
    assert code == 0
    mixed = f"line {line}: mixed run tags ('other' after 'shared'); keeping the first"
    missing = "topic q3 missing from run 'shared'; scoring overlap 0.0"
    registered = "run tagged 'shared' in its file is registered as system {!r}"
    # each system's parse and overlap warnings, then the tag checks; the
    # default filter shows a text raised twice at one place once
    repeated = [mixed, missing] if action == "always" else []
    assert [text for text, *_ in shown] == [
        mixed,
        missing,
        *repeated,
        registered.format("alpha"),
        registered.format("beta"),
    ]
    assert [category.__name__ for _, category, *_ in shown] == [
        "IngestWarning",
        "ChangeWarning",
        *(["IngestWarning", "ChangeWarning"] if repeated else []),
        "IngestWarning",
        "IngestWarning",
    ]


def test_warnings_as_errors_raise_the_first_warning_in_both_paths(tmp_path, capsys, monkeypatch):
    argv, line = _warning_fixture(tmp_path)
    outcomes = _run_both_ways(monkeypatch, capsys, argv, "error")
    message = f"line {line}: mixed run tags ('other' after 'shared'); keeping the first"
    assert outcomes == [(1, f"internal error: IngestWarning({message!r})\n", [])] * 2


def test_a_worker_that_ends_without_a_result_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    argv, _ = _dtq_argv(tmp_path)
    monkeypatch.setattr(_workers, "_cpus", lambda: cpu_masks()[1])
    parent = os.getpid()
    score_system = change._score_system

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return score_system(*args)

    monkeypatch.setattr(change, "_score_system", dying)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError('worker process ")
    assert err.endswith(" ended without a result (exit status 3)')\n")
    _no_child_left()


def test_one_cpu_one_task_or_another_thread_forks_nothing(tmp_path, capsys, monkeypatch):
    argv, runs = _dtq_argv(tmp_path)
    forks = count_forks(monkeypatch)
    one, two = cpu_masks()
    monkeypatch.setattr(_workers, "_cpus", lambda: one)
    assert main(argv) == 0
    assert forks == []
    monkeypatch.setattr(_workers, "_cpus", lambda: two)
    # one system and no pivot is one task
    config = argv[argv.index("--config") + 1]
    assert main(change_argv(config, runs, "dtq", systems=("alpha",))) == 0
    assert forks == []
    # a forked child would hold a copy of this thread only
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert main(argv) == 0
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert forks == []
    # beta's scoring task
    assert main(argv) == 0
    assert forks == [1]
    _no_child_left()
    capsys.readouterr()


def test_a_failed_fork_leaves_its_share_to_the_calling_process(tmp_path, capsysbinary, monkeypatch):
    argv, _ = _dtq_argv(tmp_path)
    monkeypatch.setattr(_workers, "_cpus", lambda: cpu_masks()[0])
    assert main(argv) == 0
    expected = capsysbinary.readouterr().out

    def failing():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(_workers, "_cpus", lambda: cpu_masks()[1])
    monkeypatch.setattr(os, "fork", failing)
    assert main(argv) == 0
    assert capsysbinary.readouterr() == (expected, b"")


def test_the_calling_process_keeps_its_cpu_mask(tmp_path, capsys, monkeypatch):
    argv, runs = _dtq_argv(tmp_path)
    monkeypatch.setattr(_workers, "_cpus", lambda: cpu_masks()[1])
    forks = count_forks(monkeypatch)
    before = os.sched_getaffinity(0)
    calls = []
    setaffinity = os.sched_setaffinity

    def recorded(*args):
        calls.append(args)  # a forked worker appends to its own copy
        setaffinity(*args)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)
    assert main(argv) == 0
    with open(runs[("beta", "t1")], "a") as handle:
        handle.write("q1 Q0 extra 1\n")
    assert main(argv) == 2
    assert forks == [1, 1]
    assert calls == []
    assert os.sched_getaffinity(0) == before
    _no_child_left()
    capsys.readouterr()


class _Stop(BaseException):
    """Not an ``Exception``, so no task records it: it leaves ``run_tasks``."""


def test_a_calling_process_that_fails_stops_and_reaps_its_workers(monkeypatch):
    monkeypatch.setattr(_workers, "_cpus", lambda: cpu_masks()[1])
    read, write = os.pipe()

    def sleeping():  # the worker's task
        os.write(write, b".")
        time.sleep(60)

    def stopping():  # this process's task
        os.read(read, 1)  # the worker is in its task
        raise _Stop

    try:
        with pytest.raises(_Stop):
            _workers.run_tasks([stopping, sleeping])
    finally:
        os.close(read)
        os.close(write)
    _no_child_left()


# the places a synthetic task warns from, one line each
_WARN_AT = (
    lambda text: warnings.warn(text, UserWarning),
    lambda text: warnings.warn(text, DeprecationWarning),
)


def _task(i, warns, raises):
    def task():
        for place, text in warns:
            _WARN_AT[place](text)
        if raises:
            raise ValueError(f"task {i}")
        return i * i

    return task


def _outcome(call, action):
    """What ``call()`` gives under the filter ``action``: its result, or its
    error's type and arguments, and its warnings as (text, category, file,
    line) in the order shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            got = ("returned", call())
        except Exception as exc:
            got = ("raised", type(exc), exc.args)
    return got, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


# a task: the (place, text) of each warning it raises, and whether it then raises
_TASKS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 1), st.sampled_from(["drift", "churn"])), max_size=2),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


# up to two forks per example
@settings(max_examples=30, deadline=None)
@given(
    specs=_TASKS,
    copies=st.integers(1, 3),
    action=st.sampled_from(["default", "always", "error"]),
)
def test_run_tasks_behaves_as_a_plain_loop(specs, copies, action):
    tasks = [_task(i, warns, raises) for i, (warns, raises) in enumerate(specs)]
    expected = _outcome(lambda: [task() for task in tasks], action)
    cpu = sorted(os.sched_getaffinity(0))[0]
    with pytest.MonkeyPatch.context() as patch:
        # the allowed CPU named once, twice or three times, as cpu_masks does
        patch.setattr(_workers, "_cpus", lambda: [cpu] * copies)
        forks = count_forks(patch)
        assert _outcome(lambda: _workers.run_tasks(tasks), action) == expected
    assert len(forks) == max(min(len(tasks), copies) - 1, 0)
    _no_child_left()
