"""The CLI's output files against ``bench/reference.py``, the independent
reference that never imports ``gatedepth``: each benchmark workload's calls
run at tiny sizes through ``gatedepth.cli.main`` in process, and the
workload's own check holds what they wrote against the reference."""
from pathlib import Path

import pytest

from gatedepth.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
TINY = {
    "corpus_compare": {"bases": 3, "min_gates": 10, "max_gates": 40},
    "demo_sweep": {"points": 11, "samples": 3},
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_cli_files_match_the_reference(workload, seed, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    plan = workloads.WORKLOADS[workload](seed, tmp_path, **TINY[workload])
    (tmp_path / "out").mkdir()  # the calls write into it, and `weights --out` makes no directory
    stdouts = []
    for argv in plan.calls:
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        stdouts.append(out)
    assert [msg for msgs in plan.check(stdouts, tmp_path / "out") for msg in msgs] == []
