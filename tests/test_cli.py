import json
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from copymax import cli
from copymax.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = ROOT / "bench" / "references"
# the benchmark's invocations, read from bench/ without importing it
BENCH = runpy.run_path(str(ROOT / "bench" / "workloads.py"))


def run_cli(*args, expect=0, timeout=None):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cp = subprocess.run([sys.executable, "-m", "copymax.cli", *args],
                        capture_output=True, text=True, timeout=timeout,
                        env={**os.environ, "PYTHONPATH": path})
    assert cp.returncode == expect, cp.stderr
    return cp


def test_analyze_g6(tmp_path):
    out = tmp_path / "g6.json"
    run_cli("analyze", "--builtin", "G6", "--out", str(out))
    data = json.loads(out.read_text())
    assert data["alpha"] == 3
    assert data["alpha_star"] == "7/2"
    assert data["star_limit_constant"] == "3/8"
    assert data["automorphisms"] == 4
    assert data["weightings"] == 145
    assert data["spectrum"]["alpha_star"] == "7/2"


def test_analyze_g6_matches_reference():
    # the analyze output contract: byte for byte what the benchmark checks
    ref = (REFERENCES / "analyze-builtin-G6.out").read_text()
    assert run_cli("analyze", "--builtin", "G6").stdout == ref


@pytest.mark.parametrize("argv, reference", [
    pytest.param("classify --builtin G6", "classify-builtin-G6", id="classify"),
    pytest.param("profile --builtin G6", "profile-builtin-G6", id="profile"),
    pytest.param("crossover --builtin G6 --q1 1 --q2 1/sqrt2",
                 "crossover-builtin-G6-q1-1-q2-1-sqrt2", id="crossover"),
    pytest.param("lp --builtin G6 --epsilon 1/10", "lp-builtin-G6-epsilon-1-10",
                 id="lp-G6"),
    pytest.param("lp --builtin K8 --epsilon 1", "lp-builtin-K8-epsilon-1", id="lp-K8"),
    # every lp reference: the printed dual pins the simplex's pivot path
    pytest.param("lp --builtin C9 --epsilon 1/5", "lp-builtin-C9-epsilon-1-5", id="lp-C9"),
    pytest.param("lp --builtin C10 --epsilon 1/3", "lp-builtin-C10-epsilon-1-3",
                 id="lp-C10"),
    pytest.param("lp --builtin C16 --epsilon 1/10", "lp-builtin-C16-epsilon-1-10",
                 id="lp-C16"),
    pytest.param("lp --builtin P6 --epsilon 1/2", "lp-builtin-P6-epsilon-1-2", id="lp-P6"),
    pytest.param("lp --builtin star6 --epsilon 1/4", "lp-builtin-star6-epsilon-1-4",
                 id="lp-star6"),
    pytest.param("lp --family 4,3 --epsilon 2/3", "lp-family-4-3-epsilon-2-3",
                 id="lp-family-4-3"),
    pytest.param("lp --family 5,4 --epsilon 1/7", "lp-family-5-4-epsilon-1-7",
                 id="lp-family-5-4"),
])
def test_sweep_g6_matches_reference(argv, reference):
    # through the python -m entry point, byte for byte
    ref = (REFERENCES / f"{reference}.out").read_text()
    assert run_cli(*argv.split()).stdout == ref


def test_benchmark_invocations_match_references(capsys):
    # every invocation the benchmark runs, in process and byte for byte: the
    # benchmark's own check lets floats differ by 1e-9 relative, which
    # would hide a change in the last printed digits
    invocations = sorted({inv for w in BENCH["WORKLOADS"].values()
                          for inv in w.every_invocation()})
    assert len(invocations) == len(list(REFERENCES.glob("*.out"))) == 35
    for inv in invocations:
        assert main(list(inv)) == 0, inv
        assert capsys.readouterr().out == (REFERENCES / BENCH["slug"](inv)).read_text(), inv


def test_analyze_ten_vertices_automorphisms():
    # the self-embedding search counts |Aut C10| well inside the timeout
    cp = run_cli("analyze", "--builtin", "C10", timeout=5)
    assert json.loads(cp.stdout)["automorphisms"] == 20


def test_analyze_refuses_eleven_vertices():
    cp = run_cli("analyze", "--builtin", "K12", expect=2)
    assert "automorphism scan limited to 10 vertices" in cp.stderr


def test_analyze_accepts_edge_list_and_graph6():
    a = run_cli("analyze", "--graph", "1-2,1-3,2-3,3-4,4-5,4-6").stdout
    b = run_cli("analyze", "--graph", "g6:ExCO").stdout
    assert json.loads(a)["alpha_star"] == json.loads(b)["alpha_star"] == "7/2"


def test_crossover_matches_known_value():
    cp = run_cli("crossover", "--builtin", "G6", "--q1", "1",
                 "--q2", "0.7071067811865476", "--tol", "1e-9")
    data = json.loads(cp.stdout)
    assert abs(float(data["beta"]) - 0.01613474) <= 1e-6


def test_crossover_accepts_sqrt_literal():
    cp = run_cli("crossover", "--builtin", "G6", "--q1", "1", "--q2", "1/sqrt2",
                 "--bracket", "0.01:0.03", "--tol", "1e-9")
    data = json.loads(cp.stdout)
    assert abs(float(data["beta"]) - 0.01613474) <= 1e-6


def test_profile_flips_at_half(tmp_path):
    out = tmp_path / "p2.csv"
    run_cli("profile", "--builtin", "P2", "--beta", "0.001:1:200", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "beta,f_T,q_star,t_S,t_K,winner"
    winners = [(float(ln.split(",")[0]), ln.split(",")[-1]) for ln in lines[1:]]
    flip = next(beta for beta, w in winners if w == "K")
    assert all(w == "S" for beta, w in winners if beta < flip)
    assert 0.49 <= flip <= 0.51
    assert winners[-1][1] == "K"


def test_deterministic_output():
    a = run_cli("profile", "--builtin", "P4", "--beta", "0.01:0.9:25").stdout
    b = run_cli("profile", "--builtin", "P4", "--beta", "0.01:0.9:25").stdout
    assert a == b


def test_classify_command():
    cp = run_cli("classify", "--builtin", "P2", "--tol", "1e-7")
    data = json.loads(cp.stdout)
    assert data["pattern"] == "SK"
    assert abs(data["gamma"] - 0.5) <= 1e-6


def test_classify_all(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli("classify-all", "--max-v", "3", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("graph6,v,e,alpha,alpha_star,A,pattern")
    assert len(lines) == 4  # header + K2, P2, K3


def test_classify_all_six_vertices(capsys):
    # the 6-vertex sweep runs, every row passing the sweep's start and
    # K-throughout checks, and leaves the rows on <= 5 vertices as they were
    assert main(["classify-all", "--max-v", "6"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert len(lines) == 1 + 142
    assert "".join(lines[:31]) == (REFERENCES / "classify-all-max-v-5.out").read_text()
    six = [ln.split(",") for ln in lines[31:]]
    assert {row[1] for row in six} == {"6"}
    assert Counter(row[6] for row in six) == {"K": 95, "SK": 14, "TK": 3}
    # K throughout exactly when alpha* = v/2: alpha* = v/2 forces K
    # (Friedgut-Kahn), and alpha* > v/2 makes S or T win at small beta
    rows = [ln.split(",") for ln in lines[1:]]
    assert all((row[6] == "K") == (2 * Fraction(row[4]) == int(row[1])) for row in rows)


def test_classify_all_six_vertices_matches_reference():
    # the 143 lines of the 6-vertex sweep, byte for byte through the
    # python -m entry point: a sweep past the benchmark's 5 vertices
    ref = (ROOT / "tests" / "references" / "classify-all-max-v-6.out").read_text()
    assert run_cli("classify-all", "--max-v", "6").stdout == ref


def test_search_finds_g6():
    cp = run_cli("search", "--max-v", "6")
    data = json.loads(cp.stdout)
    assert data["count"] >= 1
    assert any(g["alpha_star"] == "7/2" and g["v"] == 6 for g in data["graphs"])
    cp = run_cli("search", "--max-v", "5")
    assert json.loads(cp.stdout)["count"] == 0


def test_search_takes_one_census_per_graph(monkeypatch, capsys):
    # the printed alpha and alpha* come from the census that found the graph
    import copymax.weightings as weightings
    from copymax.graphs import enumerate_connected_graphs

    calls, census = [], weightings._census

    def counting(g):
        calls.append(g)
        return census(g)

    monkeypatch.setattr(weightings, "_census", counting)
    assert main(["search", "--max-v", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] >= 1
    assert len(calls) == sum(1 for _ in enumerate_connected_graphs(6))


def test_lp_command():
    cp = run_cli("lp", "--builtin", "G6", "--epsilon", "1/10")
    data = json.loads(cp.stdout)
    assert data["primal"] == data["dual"] == data["formula"] == "23/4"
    assert data["witness_x"]["x6"] == "1"


def test_lp_refuses_oversized_program():
    # K9 has 9 + 36 = 45 dual variables, past the 40 the dense simplex takes
    cp = run_cli("lp", "--builtin", "K9", "--epsilon", "1", expect=2, timeout=30)
    assert "LP exceeds the supported (small, dense) size" in cp.stderr


@pytest.mark.parametrize("n", ["0", "-1"])
def test_ex_refuses_empty_host(n):
    # refused before the class enumeration, whose numpy reshape used to fail
    cp = run_cli("ex", "--builtin", "K3", "--n", n, "--e", "0", expect=2)
    assert f"host needs at least 1 vertex, got n = {n}" in cp.stderr
    assert "reshape" not in cp.stderr and "dimension" not in cp.stderr


@pytest.mark.parametrize("bracket", [(), ("--bracket", "0.1:0.2")],
                         ids=["scan", "bracket"])
def test_crossover_refuses_equal_q(bracket):
    cp = run_cli("crossover", "--builtin", "G6", "--q1", "0.5", "--q2", "0.5",
                 *bracket, expect=2)
    assert "q1 and q2 must differ, both are 0.5" in cp.stderr


def test_only_cli_formats_text():
    # the numeric layers return records; cli.py alone prints them
    offenders = [path.name for path in sorted((ROOT / "src" / "copymax").glob("*.py"))
                 if path.name != "cli.py"
                 and re.search(r"\bdumps\b|\.12g", path.read_text())]
    assert offenders == []


def test_only_density_bisects():
    # one beta bisection (density.bisect_side) serves classify and crossover
    holders = [path.name for path in sorted((ROOT / "src" / "copymax").glob("*.py"))
               if "lo < mid < hi" in path.read_text()]
    assert holders == ["density.py"]


@pytest.mark.parametrize("argv", [
    ("classify-all", "--max-v", "-1"),
    ("search", "--max-v", "-3"),
    ("search", "--max-v", "1"),
])
def test_max_v_below_two_is_refused(argv):
    # these used to exit 0 with an empty CSV or "count": 0
    cp = run_cli(*argv, expect=2)
    assert f"max_v must be at least 2, got {argv[-1]}" in cp.stderr
    assert cp.stdout == ""


G6_Q1_Q0 = ("--builtin", "G6", "--q1", "1", "--q2", "0")


@pytest.mark.parametrize("argv", [
    pytest.param(G6_Q1_Q0, id="scan"),
    pytest.param((*G6_Q1_Q0, "--bracket", "0:1"), id="0:1"),
    pytest.param((*G6_Q1_Q0, "--bracket", "0:0.5"), id="0:0.5"),
    pytest.param((*G6_Q1_Q0, "--bracket", "0.5:1"), id="0.5:1"),
    pytest.param(("--builtin", "P1", "--q1", "1", "--q2", "0.5"), id="P1"),
    pytest.param(("--graph", "1-2,3-4", "--q1", "1", "--q2", "0.5"), id="two-edges"),
])
def test_crossover_refuses_trivial_ties(argv):
    # every host has density 0 at beta = 0 and 1 at beta = 1; G6 has no
    # crossover of q = 1 and q = 0 in between; a perfect matching has
    # t = beta^(v/2) at every q, so its gap is rounding noise (P1 and
    # 1-2,3-4 used to print beta = 1.05e-06)
    run_cli("crossover", *argv, expect=2)


def test_crossover_star5_is_its_gamma():
    cp = run_cli("crossover", "--builtin", "star5", "--q1", "1", "--q2", "0")
    assert json.loads(cp.stdout)["beta"] == "0.903836850964"


def test_ex_command():
    cp = run_cli("ex", "--builtin", "K3", "--n", "5", "--e", "6")
    data = json.loads(cp.stdout)
    assert data["maximum"] == 4


def test_ex_refuses_nine_vertices():
    # refused up front: the 9-vertex classes are beyond the enumeration limit
    cp = run_cli("ex", "--builtin", "P2", "--n", "9", "--e", "3", expect=2, timeout=30)
    assert "limited to 8 vertices" in cp.stderr


def test_oracle_command():
    cp = run_cli("oracle", "--builtin", "P2", "--beta", "0.2", "--q", "1/sqrt2",
                 "--n-list", "20,40")
    lines = cp.stdout.strip().split("\n")
    assert lines[0] == "n,beta,q,hom,injective,copies,normalised,t_reference,gap"
    assert len(lines) == 3


def test_invalid_input_exit_code():
    run_cli("analyze", "--graph", "1-1", expect=2)
    run_cli("analyze", "--graph", "1-2", "--builtin", "P2", expect=2)
    run_cli("crossover", "--builtin", "G6", "--q1", "1", "--q2", "7", expect=2)


def test_internal_zero_division_is_not_invalid_input(monkeypatch):
    # every input error is a ValueError; a ZeroDivisionError is a fault of
    # the program, so it is not reported as exit 2
    def divide_by_zero(args):
        return 1 // 0
    monkeypatch.setattr(cli, "cmd_lp", divide_by_zero)
    with pytest.raises(ZeroDivisionError):
        main(["lp", "--builtin", "G6"])


def test_budget_exit_code():
    # ex counts each host by backtracking, which the budget can cut short
    cp = run_cli("ex", "--builtin", "G6", "--n", "7", "--e", "12", "--budget", "100",
                 expect=3)
    assert "count aborted after 101 nodes" in cp.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(("--builtin", "G6", "--n", "7", "--e", "12", "--budget", "0"), id="G6-0"),
    pytest.param(("--builtin", "G6", "--n", "7", "--e", "12", "--budget", "-5"), id="G6-neg"),
    pytest.param(("--builtin", "K1", "--n", "3", "--e", "1", "--budget", "0"), id="K1-0"),
])
def test_budget_below_one_is_bad_input(argv):
    cp = run_cli("ex", *argv, expect=2, timeout=30)
    assert "budget must be at least 1" in cp.stderr


def test_oracle_refuses_nine_vertex_pattern():
    # the partition route would list Bell-many partitions: refused up front
    cp = run_cli("oracle", "--builtin", "C9", expect=2, timeout=30)
    assert "pattern limited to 8 vertices" in cp.stderr


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize("argv", [
    pytest.param(("classify", "--builtin", "P2"), id="classify"),
    pytest.param(("crossover", "--builtin", "G6", "--q1", "1", "--q2", "1/sqrt2"),
                 id="crossover"),
])
def test_bisection_refuses_nonpositive_tol(argv, tol):
    cp = run_cli(*argv, "--tol", tol, expect=2, timeout=10)
    assert "tol must be positive" in cp.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(("classify", "--builtin", "P2"), id="classify"),
    pytest.param(("crossover", "--builtin", "G6", "--q1", "1", "--q2", "1/sqrt2"),
                 id="crossover"),
])
def test_bisection_stops_at_adjacent_floats(argv):
    # a tol below the float spacing used to bisect forever
    run_cli(*argv, "--tol", "1e-300", timeout=10)


def test_crossover_bracket_needs_two_values():
    cp = run_cli("crossover", "--builtin", "G6", "--q1", "1", "--q2", "1/sqrt2",
                 "--bracket", "0.01:0.02:0.03", expect=2)
    assert "bracket must be lo:hi, got '0.01:0.02:0.03'" in cp.stderr


def test_family_needs_two_values(capsys):
    for text in ("4", "4,2,1"):
        assert main(["lp", "--family", text]) == 2
        assert f"family must be a,b, got '{text}'" in capsys.readouterr().err


def test_explicit_empty_values_are_input_errors():
    for flag in ("--n-list", "--q", "--beta"):
        run_cli("oracle", "--builtin", "P2", flag, "", expect=2)
    # removed flags are unknown options
    run_cli("analyze", "--builtin", "G6", "--q", "0.5", expect=2)
    run_cli("classify-all", "--max-v", "3", "--tol", "1e-7", expect=2)


@pytest.mark.parametrize("argv", [
    "analyze --builtin G6",
    "profile --builtin P4 --beta 0.01:0.9:5",
    "crossover --builtin G6 --q1 1 --q2 1/sqrt2",
    "classify --builtin P2",
    "classify-all --max-v 3",
    "oracle --builtin P2 --n-list 20,40",
    "search --max-v 5",
    "lp --builtin G6",
    "ex --builtin K3 --n 5 --e 6",
], ids=lambda argv: argv.split()[0])
def test_out_file_holds_stdout(argv, tmp_path, capsys):
    assert main(argv.split()) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out"
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


def test_oracle_defaults(capsys):
    assert main(["oracle", "--builtin", "P2"]) == 0
    default = capsys.readouterr().out
    assert main(["oracle", "--builtin", "P2", "--beta", "0.2", "--q", "1/sqrt2",
                 "--n-list", "30,60"]) == 0
    assert capsys.readouterr().out == default


NUMPY_PROBE = """
import contextlib, io, json, sys
import copymax.cli as cli
loaded = {"import": "numpy" in sys.modules}
for argv in (["oracle", "--builtin", "G6", "--beta", "0.2", "--q", "1/sqrt2",
              "--n-list", "30,60,90"],
             ["lp", "--builtin", "C16", "--epsilon", "1/10"],
             ["analyze", "--builtin", "G6"],
             ["search", "--max-v", "6"],
             ["ex", "--builtin", "G6", "--n", "6", "--e", "9"],
             ["profile", "--builtin", "G6"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_exact_commands_never_load_numpy():
    # a fresh interpreter: this test process has loaded numpy already.
    # profile runs last and must load it, so the probe cannot pass vacuously.
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cp = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True,
                        text=True, env={**os.environ, "PYTHONPATH": path})
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout) == {"import": False, "oracle": False, "lp": False,
                                     "analyze": False, "search": False, "ex": False,
                                     "profile": True}


MA_PROBE = """
import contextlib, io, json, sys
import copymax.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["classify", "--builtin", "G6"]) == 0
print(json.dumps({"numpy": "numpy" in sys.modules, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_classify_never_loads_numpy_ma():
    # numpy.ma is a lazy import of np.unique that costs each process
    # 10-15 ms; a fresh interpreter, as this test process may have loaded
    # it.  numpy itself must load, so the probe cannot pass vacuously.
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cp = subprocess.run([sys.executable, "-c", MA_PROBE], capture_output=True,
                        text=True, env={**os.environ, "PYTHONPATH": path})
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout) == {"numpy": True, "numpy.ma": False}
