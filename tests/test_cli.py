import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, expect=0):
    cp = subprocess.run([sys.executable, "-m", "copymax.cli", *args],
                        capture_output=True, text=True)
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
    ref = (ROOT / "bench" / "references" / "analyze-builtin-G6.out").read_text()
    assert run_cli("analyze", "--builtin", "G6").stdout == ref


def test_analyze_ten_vertices_automorphisms():
    # the self-embedding search counts |Aut C10| well inside the timeout
    cp = subprocess.run([sys.executable, "-m", "copymax.cli", "analyze", "--builtin", "C10"],
                        capture_output=True, text=True, timeout=5)
    assert cp.returncode == 0, cp.stderr
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


def test_search_finds_g6():
    cp = run_cli("search", "--max-v", "6")
    data = json.loads(cp.stdout)
    assert data["count"] >= 1
    assert any(g["alpha_star"] == "7/2" and g["v"] == 6 for g in data["graphs"])
    cp = run_cli("search", "--max-v", "5")
    assert json.loads(cp.stdout)["count"] == 0


def test_lp_command():
    cp = run_cli("lp", "--builtin", "G6", "--epsilon", "1/10")
    data = json.loads(cp.stdout)
    assert data["primal"] == data["dual"] == data["formula"] == "23/4"
    assert data["witness_x"]["x6"] == "1"


def test_ex_command():
    cp = run_cli("ex", "--builtin", "K3", "--n", "5", "--e", "6")
    data = json.loads(cp.stdout)
    assert data["maximum"] == 4


def test_ex_refuses_eight_vertices():
    # refused up front: enumerating the 8-vertex classes would not finish
    cp = subprocess.run([sys.executable, "-m", "copymax.cli", "ex", "--builtin", "P2",
                         "--n", "8", "--e", "3"],
                        capture_output=True, text=True, timeout=30)
    assert cp.returncode == 2
    assert "limited to 7 vertices" in cp.stderr


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


def test_budget_exit_code():
    run_cli("oracle", "--builtin", "G6", "--beta", "0.5", "--q", "0.5",
            "--n-list", "40", "--budget", "100", expect=3)
