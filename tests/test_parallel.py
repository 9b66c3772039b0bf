"""compare's forked workers against the same run in process.

``SHARE_MIN_BYTES`` is patched to 1, so every manifest of two or more
bases forks, and ``os.sched_getaffinity`` to four CPUs, whatever the
machine: the demo's ten bases go to four processes, the parent's share and
three children's. Each forked run must give the in-process run's exit code,
stdout, stderr and report files byte for byte, and leave no child behind.
"""
import errno
import json
import marshal
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import gatedepth.cli
from gatedepth.cli import _shares, main
from test_workloads import BENCH, TINY

DEMO = Path(__file__).resolve().parent.parent / "demo"
REPORTS = ("pairs.csv", "report.json", "summary.json")


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork``, made with four usable CPUs."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return calls


def compare(capfd, argv, out, threshold, monkeypatch):
    """(exit code, stdout, stderr, report files) of ``compare`` with
    ``SHARE_MIN_BYTES`` at ``threshold``. Unflushed text waits in
    stdout's buffer, so a child that flushed what it inherited would
    write it twice. No child may be left, running or unreaped."""
    monkeypatch.setattr(gatedepth.cli, "SHARE_MIN_BYTES", threshold)
    sys.stdout.write("unflushed ")
    code = main([*argv, "--out", str(out)])
    stdout, stderr = capfd.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, stdout, stderr, {name: (out / name).read_bytes() for name in REPORTS
                                  if (out / name).exists()}


def forked_and_in_process(capfd, monkeypatch, forks, argv, tmp_path, children=None):
    """The forked run's result, once it is shown to equal the in-process
    run's; ``children`` is the number of forks the forked run must make."""
    alone = compare(capfd, argv, tmp_path / "alone", sys.maxsize, monkeypatch)
    assert forks == []
    forked = compare(capfd, argv, tmp_path / "forked", 1, monkeypatch)
    assert forked == alone
    if children is not None:
        assert len(forks) == children
    assert set(forks) <= {os.getpid()}  # no child forks
    return forked


def demo_copy(root: Path) -> Path:
    """The demo's inputs under ``root``, which a test may then break."""
    shutil.copytree(DEMO, root, ignore=shutil.ignore_patterns("*.py"))
    return root / "manifest.json"


def demo_argv(manifest: Path, barrier: str = "skip", root: Path = DEMO) -> list[str]:
    return ["compare", str(manifest), "--durations", str(root / "durations_device0.json"),
            "--weights", str(root / "weights.json"), "--barrier", barrier]


@pytest.mark.parametrize("barrier", ["skip", "sync"])
def test_the_demo_forked_is_byte_identical(barrier, capfd, monkeypatch, forks, tmp_path):
    code, stdout, stderr, files = forked_and_in_process(
        capfd, monkeypatch, forks, demo_argv(DEMO / "manifest.json", barrier), tmp_path, 3)
    assert (code, stderr, sorted(files)) == (0, "", sorted(REPORTS))
    assert stdout.startswith("unflushed ") and stdout.count("pairs,") == 3


@pytest.mark.parametrize("barrier", ["skip", "sync"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_drawn_corpora_forked_are_byte_identical(seed, barrier, capfd, monkeypatch, forks,
                                                 tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    plan = workloads.WORKLOADS["corpus_compare"](seed, tmp_path, **TINY["corpus_compare"])
    (tmp_path / "out").mkdir()
    weights, compare_call = plan.calls
    assert main(weights) == 0
    capfd.readouterr()
    argv = compare_call[:compare_call.index("--out")] + ["--barrier", barrier]
    code, _, stderr, _ = forked_and_in_process(capfd, monkeypatch, forks, argv, tmp_path,
                                               TINY["corpus_compare"]["bases"] - 1)
    assert (code, stderr) == (0, "")


def shares_of(manifest: Path, monkeypatch) -> list[list[str]]:
    """The version file names of each share of the manifest, forked."""
    monkeypatch.setattr(gatedepth.cli, "SHARE_MIN_BYTES", 1)
    shares = _shares(gatedepth.cli._load_manifest(str(manifest)))
    return [[Path(path).name for *_, path in share] for share in shares]


# a parse error (exit 2), and a gate with no weight (exit 3), after the first gate, or
# the file deleted (exit 2), which also leaves its bytes uncounted in the shares
PLANTED = {"parse": "\nx q[0]\n", "weight": "\ny q[0];\n", "missing": None}


@pytest.mark.parametrize("kind", sorted(PLANTED))
@pytest.mark.parametrize("where", [("parent",), ("child",), ("parent", "child"),
                                   ("child", "last child")])
def test_the_first_failure_in_manifest_order_exits(kind, where, capfd, monkeypatch, forks,
                                                   tmp_path):
    """Each share stops at its first failing version; the one that fails
    first in manifest order gives the exit code and message, as in process."""
    manifest = demo_copy(tmp_path / "in")
    shares = shares_of(manifest, monkeypatch)
    assert len(shares) == 4
    planted = {"parent": shares[0][-1], "child": shares[1][1], "last child": shares[3][0]}
    for name in (planted[w] for w in where):
        if PLANTED[kind] is None:
            os.remove(manifest.parent / "circuits" / name)
            continue
        with open(manifest.parent / "circuits" / name, "a") as fh:
            fh.write(PLANTED[kind])
    code, stdout, stderr, files = forked_and_in_process(
        capfd, monkeypatch, forks, demo_argv(manifest, root=manifest.parent), tmp_path)
    first = manifest.parent / "circuits" / planted[where[0]]
    assert (code, stdout, files) == ({"parse": 2, "weight": 3, "missing": 2}[kind],
                                     "unflushed ", {})
    assert stderr.startswith(f"{first}:")
    assert len(stderr.splitlines()) == 1
    if kind == "missing":
        assert stderr == f"{first}: file not found\n"


@pytest.mark.parametrize("how", ["raise", "kill", "truncate"])
def test_a_failed_child_has_its_share_run_in_process(how, capfd, monkeypatch, forks, tmp_path):
    """A forked child raises, is killed, or sends its result less its last
    bytes: the parent runs the child's share itself."""
    parent, work = os.getpid(), gatedepth.cli._version_results

    def version_results(*args, **kwargs):
        if os.getpid() != parent and how == "raise":
            raise RuntimeError("a bug in a child")
        if os.getpid() != parent and how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return work(*args, **kwargs)

    class Truncating:
        loads = staticmethod(marshal.loads)

        @staticmethod
        def dumps(value):
            data = marshal.dumps(value)
            return data[:-3] if os.getpid() != parent and how == "truncate" else data

    monkeypatch.setattr(gatedepth.cli, "_version_results", version_results)
    monkeypatch.setattr(gatedepth.cli, "marshal", Truncating)
    code, _, stderr, files = forked_and_in_process(capfd, monkeypatch, forks,
                                                   demo_argv(DEMO / "manifest.json"), tmp_path, 3)
    assert (code, stderr, sorted(files)) == (0, "", sorted(REPORTS))


def test_an_interrupt_reaps_every_child(capfd, monkeypatch, forks, tmp_path):
    """A KeyboardInterrupt in the parent's share kills and reaps the
    children before it propagates."""
    parent, work = os.getpid(), gatedepth.cli._version_results

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return work(*args, **kwargs)

    monkeypatch.setattr(gatedepth.cli, "_version_results", interrupted)
    monkeypatch.setattr(gatedepth.cli, "SHARE_MIN_BYTES", 1)
    with pytest.raises(KeyboardInterrupt):
        main([*demo_argv(DEMO / "manifest.json"), "--out", str(tmp_path / "out")])
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")


def test_an_os_error_not_of_stdout_propagates_as_itself(capfd, monkeypatch, forks, tmp_path):
    """An OSError that no input or output file gives (here a
    ProcessLookupError in the parent's share) leaves main as itself: it is
    not reported as stdout's, and fd 1 still writes."""
    parent, work = os.getpid(), gatedepth.cli._version_results

    def lost(*args, **kwargs):
        if os.getpid() == parent:
            raise ProcessLookupError(errno.ESRCH, os.strerror(errno.ESRCH))
        return work(*args, **kwargs)

    monkeypatch.setattr(gatedepth.cli, "_version_results", lost)
    monkeypatch.setattr(gatedepth.cli, "SHARE_MIN_BYTES", 1)
    with pytest.raises(ProcessLookupError):
        main([*demo_argv(DEMO / "manifest.json"), "--out", str(tmp_path / "out")])
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    os.write(1, b"fd 1 still writes\n")
    assert capfd.readouterr() == ("fd 1 still writes\n", "")


@pytest.mark.parametrize("case", ["one CPU", "below the threshold", "one base",
                                  "another thread"])
def test_no_fork_without_two_cpus_the_bytes_and_two_bases(case, capfd, monkeypatch, forks,
                                                          tmp_path):
    """Nor while another thread runs, which a forked child would lack: the
    run forks nothing and gives the in-process bytes."""
    manifest = DEMO / "manifest.json"
    threshold = 1
    thread = None
    if case == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "below the threshold":
        threshold = gatedepth.cli.SHARE_MIN_BYTES  # the demo's files are 27 KB
    elif case == "one base":
        data = json.loads(manifest.read_text())
        manifest = tmp_path / "one.json"
        manifest.write_text(json.dumps({"bases": [{
            "name": "base00", "versions": [{**v, "file": str(DEMO / v["file"])}
                                           for v in data["bases"][0]["versions"]]}]}))
    else:
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
    try:
        result = compare(capfd, demo_argv(manifest), tmp_path / "out", threshold, monkeypatch)
    finally:
        if thread is not None:
            release.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
    assert (result[0], result[2], forks) == (0, "", [])
    if thread is not None:
        assert result == compare(capfd, demo_argv(manifest), tmp_path / "alone", sys.maxsize,
                                 monkeypatch)


def test_importing_the_cli_loads_no_process_pool_nor_pickle():
    """The workers are forked and send their results with marshal, which
    is built in: start-up pays for no pool and no pickle."""
    script = ("import sys, gatedepth.cli\n"
              "print(*(m for m in ('multiprocessing', 'concurrent.futures', 'pickle')"
              " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(gatedepth.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "\n")


def test_a_fork_that_fails_leaves_its_share_to_this_process(capfd, monkeypatch, forks, tmp_path):
    """Past a process limit fork raises; compare then runs that share itself."""
    fork = os.fork
    no_more = iter([False, True, False])

    def limited():
        if next(no_more):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", limited)  # forks counts the two that start
    code, _, stderr, files = forked_and_in_process(capfd, monkeypatch, forks,
                                                   demo_argv(DEMO / "manifest.json"), tmp_path, 2)
    assert (code, stderr, sorted(files)) == (0, "", sorted(REPORTS))


@pytest.mark.parametrize("how", ["done", "interrupted"])
def test_an_ignored_sigchld_changes_nothing(how, capfd, monkeypatch, forks, tmp_path):
    """Where SIGCHLD is ignored, children are reaped as they exit and
    waitpid finds none: a complete result still counts, and an interrupt
    still propagates as it is."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        if how == "done":
            code, _, stderr, files = forked_and_in_process(
                capfd, monkeypatch, forks, demo_argv(DEMO / "manifest.json"), tmp_path, 3)
            assert (code, stderr, sorted(files)) == (0, "", sorted(REPORTS))
        else:
            parent, work = os.getpid(), gatedepth.cli._version_results

            def late(*args, **kwargs):
                results = work(*args, **kwargs)
                if os.getpid() == parent:
                    time.sleep(0.5)  # every child has exited, and is gone
                    raise KeyboardInterrupt
                return results

            monkeypatch.setattr(gatedepth.cli, "_version_results", late)
            monkeypatch.setattr(gatedepth.cli, "SHARE_MIN_BYTES", 1)
            with pytest.raises(KeyboardInterrupt):
                main([*demo_argv(DEMO / "manifest.json"), "--out", str(tmp_path / "out")])
            assert len(forks) == 3
    finally:
        signal.signal(signal.SIGCHLD, previous)


@pytest.mark.parametrize("processes", [2, 3])
def test_each_process_gets_share_min_bytes(processes, monkeypatch, forks):
    """With four usable CPUs, the demo's files make as many runs as they
    hold ``SHARE_MIN_BYTES``, not one per CPU."""
    manifest = gatedepth.cli._load_manifest(str(DEMO / "manifest.json"))
    total = sum(os.stat(path).st_size for *_, path in manifest)
    monkeypatch.setattr(gatedepth.cli, "SHARE_MIN_BYTES", total // processes)
    shares = _shares(manifest)
    assert len(shares) == processes
    assert [v for share in shares for v in share] == manifest


def test_a_pipe_that_fails_leaves_its_share_to_this_process(capfd, monkeypatch, forks,
                                                            tmp_path):
    """With no descriptor left for a pipe, compare forks no child and runs
    every share itself, with the in-process bytes and exit code."""
    def no_descriptor():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", no_descriptor)
    code, _, stderr, files = forked_and_in_process(capfd, monkeypatch, forks,
                                                   demo_argv(DEMO / "manifest.json"), tmp_path, 0)
    assert (code, stderr, sorted(files)) == (0, "", sorted(REPORTS))
