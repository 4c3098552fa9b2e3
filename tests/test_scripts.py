"""The scripts in scripts/: two run end to end in a fresh interpreter, and
the summary of bench_ab.py is checked on synthetic runs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [["reproduce_examples.py"], ["random_roundtrip.py", "3"]],
    ids=["reproduce_examples", "random_roundtrip"],
)
def test_script_exits_0(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_ab_summary_of_synthetic_runs():
    bench_ab = load_script("bench_ab")
    end_to_end = [{"name": "pairs_per_kref", "better": "higher"}, {"name": "setup_s", "better": "lower"}]

    def run(rate, setup, failed=0):
        return {"failed": failed, "metrics": {"pairs_per_kref": {"value": rate}, "setup_s": {"value": setup}}}

    parent = [run(100, 0.10), run(102, 0.09), run(98, 0.11), run(101, 0.10, failed=1)]
    change = [run(110, 0.11), run(101, 0.09), run(112, 0.10), run(111, 0.10)]
    rate, setup = bench_ab.summarize(end_to_end, parent, change)
    # inclusive quartiles of 98, 100, 101, 102 and of 101, 110, 111, 112
    assert rate["parent"] == (99.5, 100.5, 101.25) and rate["change"] == (107.75, 110.5, 111.25)
    # higher is better: pair 2 (102 -> 101) is lost; the medians lie 10 apart,
    # beyond the parent's interquartile distance of 1.75
    assert (rate["wins"], rate["pairs"], rate["beyond_iqr"]) == (3, 4, True)
    # lower is better and a tie is no win: only pair 3 (0.11 -> 0.10) is won,
    # and both medians are 0.10
    assert (setup["wins"], setup["beyond_iqr"]) == (1, False)
    table = bench_ab.render([rate, setup], parent, change)
    assert "| `pairs_per_kref` | 100.5 [99.5, 101.2] | 110.5 [107.8, 111.2] | 3/4 | yes |" in table
    assert "failed operations: parent [0, 0, 0, 1], change [0, 0, 0, 0]" in table
    with pytest.raises(ValueError):
        bench_ab.summarize(end_to_end, parent, change[:3])

    def detail(medians, tail, p50):
        # pair i takes medians[i] (None: no round reached it), three rounds
        # each, outcome C, N or U and size n
        names = {"C": ["conjugate"], "N": ["not_conjugate"], "U": ["unknown"]}
        pairs = [
            {"outcomes": names[o], "n": n, "times_ref": [] if m is None else [m + 1, m, m - 1]}
            for m, o, n in zip(medians, "CNUUCNC", (2, 2, 3, 3, 3, 10, 2))
        ]
        metrics = {"decide_tail_ref": {"value": tail}, "decide_p50_ref": {"value": p50}}
        return {"seed": 7, "pairs": pairs, "metrics": metrics}

    # six timed pairs: the tail is a pair's own median, and the median of an
    # even count lies between pairs 4 (median 3) and 0 (median 5)
    parent_run = detail([5, 9, 2, None, 3, 8, 1], tail=8, p50=4)
    assert bench_ab.setting_pairs(parent_run) == {"decide_tail_ref": [5], "decide_p50_ref": [4, 0]}
    change_run = detail([5, 9, 2, None, 4, 8, 1], tail=8, p50=4.5)
    lines = bench_ab.render_setting_pairs(parent_run, change_run).splitlines()
    assert lines == [
        "pairs setting `decide_tail_ref` at seed 7: parent [5], change [5]",
        "pairs setting `decide_p50_ref` at seed 7: parent [4, 0], change [4, 0]",
    ]
    # the medians by outcome: conjugate 5 + 3 + 1 (5 + 4 + 1 on the change
    # side), not_conjugate 9 + 8, unknown 2 (pair 3 has no time)
    assert bench_ab.outcome_times(parent_run) == {"conjugate": 9, "not_conjugate": 17, "unknown": 2}
    lines = bench_ab.render_outcome_times(parent_run, change_run).splitlines()
    assert lines == [
        "time by outcome at seed 7, parent: `conjugate` 9 (32.1 %), `not_conjugate` 17 (60.7 %), "
        "`unknown` 2 (7.1 %); total 28 ref",
        "time by outcome at seed 7, change: `conjugate` 10 (34.5 %), `not_conjugate` 17 (58.6 %), "
        "`unknown` 2 (6.9 %); total 29 ref",
    ]
    # the medians by size, n = 10 after n = 3: n = 2 holds 5 + 9 + 1, n = 3
    # holds 2 + 3 (2 + 4 on the change side), n = 10 holds 8
    assert bench_ab.size_times(parent_run) == {2: 15, 3: 5, 10: 8}
    lines = bench_ab.render_size_times(parent_run, change_run).splitlines()
    assert lines == [
        "time by size at seed 7, parent: n = 2 15 (53.6 %), n = 3 5 (17.9 %), n = 10 8 (28.6 %); total 28 ref",
        "time by size at seed 7, change: n = 2 15 (51.7 %), n = 3 6 (20.7 %), n = 10 8 (27.6 %); total 29 ref",
    ]
