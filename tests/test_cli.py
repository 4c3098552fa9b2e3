import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from toralconj import cli
from toralconj.conjugacy_pipeline import DEFAULT_CONFIG

from conftest import A1, A2, B1, B2, RING_A, RING_B, direct_sum


def write(tmp_path, name, M):
    p = tmp_path / name
    p.write_text("\n".join(" ".join(str(x) for x in row) for row in M) + "\n")
    return str(p)


@pytest.fixture
def mats(tmp_path):
    return {
        "A1": write(tmp_path, "A1.txt", A1),
        "B1": write(tmp_path, "B1.txt", B1),
        "A2": write(tmp_path, "A2.txt", A2),
        "B2": write(tmp_path, "B2.txt", B2),
        "RING_A": write(tmp_path, "RING_A.txt", RING_A),
        "RING_B": write(tmp_path, "RING_B.txt", RING_B),
    }


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(argv):
    """The CLI in a fresh interpreter, so that a traceback would show on
    stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "toralconj.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )


# ------------------------------------------------------------------ parsing

def test_parse_matrix_grid():
    M = cli.parse_matrix_text("1 2\n3 4\n")
    assert M == ((1, 2), (3, 4))


def test_parse_matrix_json():
    M = cli.parse_matrix_text('{"n": 2, "rows": [[1, 2], [3, 4]]}')
    assert M == ((1, 2), (3, 4))


def test_parse_matrix_rejects_bad_inputs():
    from toralconj.errors import InputError

    for text in ("", "1 2\n3\n", '{"rows": [[1.5, 2], [3, 4]]}', '{"n": 3, "rows": [[1]]}', "1 x\n3 4\n"):
        with pytest.raises(InputError):
            cli.parse_matrix_text(text)


def test_parse_matrix_arbitrary_precision():
    big = 10**50
    M = cli.parse_matrix_text(f"{big} 0\n0 {big}\n")
    assert M[0][0] == big


# ------------------------------------------------------------------ commands

def test_bf_command(capsys, mats):
    code, out, _ = run(capsys, ["bf", mats["A1"], "x+1", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["order"] == 32
    assert rep["result"]["invariant_factors"] == [4, 8]
    assert rep["inputs"]["g"] == "x+1"


def test_bf_trivial_group(capsys, mats):
    code, out, _ = run(capsys, ["bf", mats["A1"], "x", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["order"] == 1
    assert rep["result"]["invariant_factors"] == []


def test_bf_singular_exit_code(capsys, mats):
    code, _, err = run(capsys, ["bf", mats["A1"], "x^3-23x^2+7x-1"])
    assert code == 1
    assert "det=0" in err


def test_bf_parse_error_exit(capsys, mats):
    code, _, err = run(capsys, ["bf", mats["A1"], "x***"])
    assert code == 1


def test_screen_example1(capsys, mats):
    code, out, _ = run(capsys, ["screen", mats["A1"], mats["B1"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["outcome"] == "not_equivalent"
    assert rep["result"]["witness"] == "x+1"


def test_screen_example2(capsys, mats):
    code, out, _ = run(capsys, ["screen", mats["A2"], mats["B2"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["outcome"] == "passed_screen"


def test_screen_self(capsys, mats):
    code, out, _ = run(capsys, ["screen", mats["A1"], mats["A1"], "--json"])
    assert code == 0
    assert json.loads(out)["result"]["outcome"] == "passed_screen"


def test_screen_not_similar(capsys, mats):
    code, out, _ = run(capsys, ["screen", mats["A1"], mats["A2"], "--json"])
    assert code == 0
    assert json.loads(out)["result"]["outcome"] == "not_similar"


def test_screen_at_budget_zero_ends_partial_unknown_without_a_traceback(tmp_path):
    # at g = x^4 + 1 both BF groups are Z/7 + Z/98858726414, and a component
    # hom set is far too large to enumerate; the walk stops at the budget
    P = write(tmp_path, "P.txt", [[12, 0, 8], [3, 1, -6], [-6, 9, 0]])
    Q = write(tmp_path, "Q.txt", [[0, 9, 6], [-6, 1, -3], [-8, 0, 12]])
    done = run_fresh(["screen", P, Q, "--budget", "0", "--json"])
    assert (done.returncode, done.stderr) == (2, "")
    result = json.loads(done.stdout)["result"]
    assert result["outcome"] == "partial_unknown"
    assert result["undecided"] == ["x^2-1", "x^4-1", "x^4+1"]
    rec = next(r for r in result["records"] if r["g"] == "x^4+1")
    assert rec["factors_left"] == rec["factors_right"] == [7, 98858726414]


def test_tower_command(capsys, mats):
    code, out, _ = run(capsys, ["tower", mats["A1"], "--levels", "2", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert [lv["order"] for lv in rep["result"]["levels"]] == [16, 512]


def test_tower_verify(capsys, mats):
    code, out, _ = run(
        capsys, ["tower", mats["A2"], "--levels", "3", "--verify", "--probe-bound", "2", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    checks = rep["result"]["verify"]
    assert checks["nesting_verified"]
    assert all(checks["factorization"].values())
    assert all(checks["filtered_from_below"].values())


def test_tower_non_hyperbolic_exit(capsys, tmp_path):
    p = write(tmp_path, "id.txt", ((1, 0), (0, 1)))
    code, _, err = run(capsys, ["tower", p, "--levels", "2"])
    assert code == 1
    assert "hyperbolic" in err


def test_ideal_ring(capsys, mats):
    code, out, _ = run(capsys, ["ideal", mats["A2"], "ring", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["equals_z_beta"]


def test_ideal_weak_equiv(capsys, mats):
    code, out, _ = run(capsys, ["ideal", mats["A2"], "weak-equiv", mats["B2"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["weak_equivalence"]["weakly_equivalent"]


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["bf", "A1", "x+1"], 0, "  order: 32"),
        (["screen", "A1", "B1"], 0, "screen outcome: not_equivalent"),
        (["tower", "A1", "--verify", "--probe-bound", "3"], 0, "  injectivity probe (bound 3): all_escape=True"),
        (["ideal", "A2", "show"], 0, "eigenvector entries: ['-8-2b+b^2', '-2+b', '1']"),
        (["ideal", "A2", "ring"], 0, "equals Z[beta]: True"),
        (["ideal", "A2", "weak-equiv", "B2"], 0, "weakly equivalent: True"),
        (["ideal", "RING_A", "weak-equiv", "RING_B"], 0, "weakly equivalent: False (ring_mismatch)"),
        (["ideal", "A2", "principal", "B2"], 0, "principal search on (J : I) at bound 8: not found within bound"),
        (["decide", "A1", "A1"], 0, "verdict: conjugate"),
        (["decide", "A1", "B1"], 0, "verdict: not_conjugate"),
        (["decide", "A2", "B2"], 2, "verdict: unknown"),
    ],
)
def test_human_readable_output(capsys, mats, argv, code, line):
    got, out, _ = run(capsys, [mats.get(a, a) for a in argv])
    lines = out.splitlines()
    assert got == code
    assert line in lines
    assert lines[-1].startswith("elapsed: ")


def test_ideal_principal(capsys, mats):
    code, out, _ = run(
        capsys, ["ideal", mats["A2"], "principal", mats["B2"], "--bound", "8", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["principal_search"]["principal"] is False
    assert rep["result"]["principal_search"]["bound"] == 8


@pytest.mark.parametrize("sub", ["principal", "weak-equiv"])
def test_ideal_rejects_non_similar_pair(capsys, tmp_path, sub):
    # companions of x^3-3x^2+x-1 and x^3-4x^2+2x-1: both irreducible, but
    # different fields, so their eigen ideals cannot be compared
    A = write(tmp_path, "A.txt", ((0, 1, 0), (0, 0, 1), (1, -1, 3)))
    B = write(tmp_path, "B.txt", ((0, 1, 0), (0, 0, 1), (1, -2, 4)))
    code, out, err = run(capsys, ["ideal", A, sub, B, "--json"])
    assert code == 1
    assert out == ""
    assert "not similar" in err and err.count("\n") == 1


def test_ideal_reducible_exit(capsys, tmp_path):
    p = write(tmp_path, "red.txt", ((1, 1), (0, 1)))
    code, _, err = run(capsys, ["ideal", p, "ring"])
    assert code == 1


def test_ideal_missing_second_matrix(capsys, mats):
    code, _, err = run(capsys, ["ideal", mats["A2"], "weak-equiv"])
    assert code == 1


def test_decide_example1(capsys, mats):
    code, out, _ = run(capsys, ["decide", mats["A1"], mats["B1"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["outcome"] == "not_conjugate"
    assert rep["result"]["witness"]["g"] == "x+1"


def test_decide_self_conjugate(capsys, mats):
    code, out, _ = run(capsys, ["decide", mats["A1"], mats["A1"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["outcome"] == "conjugate"
    assert rep["result"]["certificate"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_decide_defaults_are_the_pipeline_defaults(capsys, mats):
    code, out, _ = run(capsys, ["decide", mats["A1"], mats["B1"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["config"] == rep["result"]["config"] == DEFAULT_CONFIG.to_data()


def test_decide_example2_unknown_exit(capsys, mats):
    code, out, _ = run(capsys, ["decide", mats["A2"], mats["B2"], "--json"])
    assert code == 2
    rep = json.loads(out)
    assert rep["result"]["outcome"] == "unknown"


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, ["bf", "/nonexistent/file.txt", "x+1"])
    assert code == 1


@pytest.mark.parametrize("cmd", [["decide"], ["screen"], ["ideal", "principal"], ["ideal", "weak-equiv"]])
def test_size_mismatch_exits_1(capsys, mats, tmp_path, cmd):
    small = write(tmp_path, "S.txt", ((2, 1), (1, 1)))
    code, out, err = run(capsys, [cmd[0], small, *cmd[1:], mats["A1"]])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_json_reports_are_deterministic(capsys, mats):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["decide", mats["A1"], mats["B1"], "--json"])
        outs.append(out)
    assert outs[0] == outs[1]


def test_report_inputs_round_trip(capsys, mats, tmp_path):
    # re-running a command on the echoed inputs reproduces the report
    code, out, _ = run(capsys, ["decide", mats["A1"], mats["B1"], "--json"])
    rep = json.loads(out)
    echoed = rep["inputs"]["matrix_a"]["rows"], rep["inputs"]["matrix_b"]["rows"]
    pa = tmp_path / "echo_a.txt"
    pb = tmp_path / "echo_b.txt"
    pa.write_text("\n".join(" ".join(str(x) for x in row) for row in echoed[0]))
    pb.write_text("\n".join(" ".join(str(x) for x in row) for row in echoed[1]))
    code2, out2, _ = run(capsys, ["decide", str(pa), str(pb), "--json"])
    rep2 = json.loads(out2)
    assert rep["result"] == rep2["result"]


def test_resource_cap_exits_loudly(capsys, mats, monkeypatch):
    monkeypatch.setenv("TORALCONJ_MAX_BITS", "16")
    code, _, err = run(capsys, ["tower", mats["A1"], "--levels", "4"])
    assert code == 1
    assert "TORALCONJ_MAX_BITS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", "A1", "--levels", "7"],
        ["decide", "A2", "B2", "--tower-depth", "7", "--json"],
        ["decide", "A1", "B1", "--tower-depth", "50", "--json"],
    ],
    ids=["tower_levels", "decide_tower_depth", "decide_tower_depth_pair_1"],
)
def test_deep_towers_exit_1(mats, argv):
    # A^(7!) has entries past the 4,300-digit limit of int-to-string
    # conversion; depth 7 is refused before any of it is formed, also for a
    # pair that is refuted before the tower route
    started = time.perf_counter()
    done = run_fresh([mats.get(a, a) for a in argv])
    assert time.perf_counter() - started < 5.0
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error:") and "depth cap exceeded" in done.stderr


# |det(M^720 - I)| has about 4,320 decimal digits, past the interpreter's
# 4,300-digit limit of int-to-string conversion
BIG_ENTRIES_M = ((1000001, 1000000), (1, 1))
BIG_ENTRIES_N = ((2, 28169), (71, 1000000))
# M + X against N + X: the characteristic polynomial is reducible, so decide
# does not skip the tower route on the ground of equal periodic data
SMALL_SUMMAND = ((2, 1), (1, 1))
BIG_ENTRIES_SUM_M = direct_sum(BIG_ENTRIES_M, SMALL_SUMMAND)
BIG_ENTRIES_SUM_N = direct_sum(BIG_ENTRIES_N, SMALL_SUMMAND)


@pytest.mark.parametrize(
    "argv",
    [["tower", "M", "--levels", "6"], ["decide", "MX", "NX", "--tower-depth", "6", "--json"]],
    ids=["tower_levels", "decide_tower_depth_json"],
)
def test_orders_past_the_digit_limit_exit_1(tmp_path, argv):
    paths = {
        "M": write(tmp_path, "M.txt", BIG_ENTRIES_M),
        "MX": write(tmp_path, "MX.txt", BIG_ENTRIES_SUM_M),
        "NX": write(tmp_path, "NX.txt", BIG_ENTRIES_SUM_N),
    }
    done = run_fresh([paths.get(a, a) for a in argv])
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
    assert "4300 digits" in done.stderr


def test_screen_partial_unknown_exit(capsys, mats):
    # zero budget starves the per-component search, leaving honest unknowns
    code, out, _ = run(capsys, ["screen", mats["A2"], mats["B2"], "--budget", "0", "--json"])
    rep = json.loads(out)
    if rep["result"]["outcome"] == "partial_unknown":
        assert code == 2
    else:
        assert code == 0


def test_tower_single_level(capsys, mats):
    code, out, _ = run(capsys, ["tower", mats["A1"], "--levels", "1", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert [lv["order"] for lv in rep["result"]["levels"]] == [16]


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", "A1", "--levels", "0"],
        ["tower", "A1", "--probe-bound", "-1", "--verify"],
        ["decide", "A2", "B2", "--tower-depth", "-1"],
        ["decide", "A2", "B2", "--iso-budget", "-5"],
        ["screen", "A1", "B1", "--budget", "-1"],
        ["ideal", "A1", "principal", "A1", "--bound", "-2"],
    ],
    ids=["levels_0", "probe_bound", "tower_depth", "iso_budget", "screen_budget", "ideal_bound"],
)
def test_out_of_range_options_exit_1(mats, argv):
    done = run_fresh([mats.get(a, a) for a in argv])
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: --")


@pytest.mark.parametrize(
    "argv",
    [
        ["bf", "E", "x+1"],
        ["screen", "E", "E"],
        ["tower", "E", "--verify"],
        ["ideal", "E", "show"],
        ["decide", "E", "E"],
    ],
    ids=["bf", "screen", "tower_verify", "ideal_show", "decide"],
)
def test_empty_matrix_never_ends_in_a_traceback(tmp_path, argv):
    # Z^0 is a valid input with one element; each command answers or refuses
    p = tmp_path / "E.json"
    p.write_text('{"n": 0, "rows": []}')
    done = run_fresh([str(p) if a == "E" else a for a in argv])
    assert done.returncode in (0, 1, 2), done.stdout + done.stderr
    assert "Traceback" not in done.stderr


def test_decide_tower_depth_0_screens_nothing(capsys, tmp_path):
    M, N = write(tmp_path, "MX.txt", BIG_ENTRIES_SUM_M), write(tmp_path, "NX.txt", BIG_ENTRIES_SUM_N)
    code, out, _ = run(capsys, ["decide", M, N, "--tower-depth", "0", "--json"])
    assert code == 2
    tower = [e for e in json.loads(out)["evidence"] if e["stage"] == "tower_route"]
    assert tower[0]["report"] == {"family": [], "outcome": "passed_screen", "records": []}
