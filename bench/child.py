"""Run one workload's CLI calls back to back in this process, for a time.

Usage: python3 bench/child.py PLAN.json RESULT.json

``bench/run.py`` starts this with ``PYTHONPATH`` set to the checkout's
``src`` and ``bench``. The plan names the argv of each call of one round, the files each
call writes under ``WORK/out``, the seconds to run and whether to trace.
Rounds repeat while one more fits in the seconds; with tracing, the first half
of the time runs untraced and the second half traced. The speed probe
(``bench/speedref.py``), the plan's probe calls made with the frozen
``refprog.cli``, runs before the first round and after every round.
Every call's stdout and output files are hashed, and the first round's
are kept (stdout in the result, files in ``WORK/out0``) for the reference
check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import refprog.cli


def run_call(cli, argv):
    """(seconds, exit code, stdout, stderr) of one ``gatedepth`` call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed call, not a failed run
        code = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def digest(stdout: str, files) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in files:
        try:
            h.update(path.read_bytes())
        except FileNotFoundError:
            h.update(b"\0missing\0")
    return h.hexdigest()


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import gatedepth.calibration
    import gatedepth.cli
    import gatedepth.compare

    work = Path(plan["work"])
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    (work / "probe").mkdir(exist_ok=True)

    def probe():
        seconds = 0.0
        for argv in plan["probe"]:
            taken, code, _, stderr = run_call(refprog.cli, argv)
            if code != 0:
                sys.exit(f"speed probe {argv[0]} exited {code}: {stderr[-2000:]}")
            seconds += taken
        return seconds

    probe()  # warm-up: the first call compiles the parser's patterns
    probes = [probe()]
    outputs = [[out / f for f in files] for files in plan["outputs"]]
    rounds: list[dict] = []
    stdouts: list[str] = []

    def run_rounds(seconds, tracer=None):
        # start another round only if one more, as long as the last, fits
        start = last = time.perf_counter()
        first = len(rounds)
        while len(rounds) == first or 2 * time.perf_counter() - last - start <= seconds:
            last = time.perf_counter()
            if tracer:
                tracer.begin_round()
            calls = []
            for argv, files in zip(plan["calls"], outputs):
                if tracer:
                    tracer.call_id += 1
                seconds_taken, code, stdout, stderr = run_call(gatedepth.cli, argv)
                calls.append({"s": seconds_taken, "rc": code, "digest": digest(stdout, files),
                              "stderr": stderr[-2000:] if code else ""})
                if not rounds:
                    stdouts.append(stdout)
            if not rounds:
                shutil.copytree(out, work / "out0")
            probes.append(probe())
            rounds.append({"traced": tracer is not None, "calls": calls,
                           "layers": tracer.summarize() if tracer else None})

    if plan["trace"]:
        from tracing import Tracer
        run_rounds(plan["seconds"] / 2)
        tracer = Tracer()
        tracer.install(sys.modules)
        run_rounds(plan["seconds"] / 2, tracer)
        tracer.write(plan["spans"])
    else:
        run_rounds(plan["seconds"])

    result = {"rounds": rounds, "probes": probes, "stdouts": stdouts,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
