import functools
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphent.cli
import graphent.entanglement
import graphent.graphs
import graphent.statevector
import graphent.verify
from graphent.cli import TOPOLOGIES, main
from graphent.graphs import DirectedGraph, degree_distribution, load_graph, save_graph
from helpers import NoNumpy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_of(out, label):
    for line in out.splitlines():
        if line.startswith(label + ":"):
            return float(line.split(":", 1)[1])
    raise AssertionError(f"no line {label!r} in output:\n{out}")


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------

def test_gen_btree(tmp_path, capsys):
    out = str(tmp_path / "btree.json")
    code, stdout, _ = run(capsys, "gen", "--topology", "btree", "--depth", "3", "--out", out)
    assert code == 0
    assert "vertices: 7" in stdout
    assert "edges: 6" in stdout
    g = load_graph(out)
    assert g.num_vertices == 7 and g.num_edges == 6


def test_gen_young_fibonacci(tmp_path, capsys):
    out = str(tmp_path / "yf.json")
    code, stdout, _ = run(capsys, "gen", "--topology", "yf", "--layers", "4", "--out", out)
    assert code == 0
    assert "vertices: 10" in stdout
    assert "degree distribution: {1: 2, 2: 3, 3: 4, 4: 1}" in stdout


def test_gen_bridged(tmp_path, capsys):
    out = str(tmp_path / "b.json")
    code, stdout, _ = run(capsys, "gen", "--topology", "bridged", "--cycles", "3,3", "--out", out)
    assert code == 0
    assert "vertices: 6" in stdout and "edges: 7" in stdout


# One size per family (a family added to the table without one fails below):
# the flag's text and the value the generator receives.
TOPOLOGY_SIZES = {
    "yf": ("4", 4),
    "ffnn": ("3,4,2", (3, 4, 2)),
    "btree": ("3", 3),
    "bridged": ("3,4,3", (3, 4, 3)),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_gen_topology_table(tmp_path, capsys, name):
    dest, count, generate, _ = TOPOLOGIES[name]
    flag = "--" + dest.replace("_", "-")
    text, size = TOPOLOGY_SIZES[name]
    out = str(tmp_path / "g.json")
    code, _, _ = run(capsys, "gen", "--topology", name, flag, text, "--out", out)
    assert code == 0
    assert load_graph(out) == generate(size)
    assert degree_distribution(load_graph(out)).counts == count(size)
    code, stdout, stderr = run(capsys, "gen", "--topology", name, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert stdout == ""
    assert f"error: --topology {name} needs {flag}" in stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("name", [*sorted(TOPOLOGIES), "edgeless"])
def test_save_graph_writes_to_json_in_chunks(tmp_path, monkeypatch, name, chunk):
    # Whatever the chunk size, the file holds the bytes of to_json and a newline.
    graph = DirectedGraph(3, []) if name == "edgeless" else TOPOLOGIES[name][2](TOPOLOGY_SIZES[name][1])
    monkeypatch.setattr(graphent.graphs, "_SAVE_EDGES", chunk)
    path = tmp_path / "g.json"
    save_graph(graph, str(path))
    assert path.read_bytes() == (graphent.graphs.to_json(graph) + "\n").encode()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["ed", "--topology", "yf", "--layers", "3", "--depth", "9", "--theta", "1"],
            "--depth does not apply to --topology yf",
        ),
        (
            ["gen", "--topology", "btree", "--depth", "2", "--cycles", "3,3"],
            "--cycles does not apply to --topology btree",
        ),
        (["ed", "--graph", "g.json", "--depth", "2", "--theta", "1"], "--depth does not apply with --graph"),
        (["ed", "--depth", "2", "--theta", "1"], "--depth needs --topology btree"),
        (["verify", "--random-graphs", "1", "--layer-sizes", "2,2"], "--layer-sizes needs --topology ffnn"),
        (
            ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "3", "--limit",
             "--theta-steps", "3", "--out", "x.csv"],
            "--layers does not apply with --limit",
        ),
        (
            ["sweep", "--quantity", "ed", "--topology", "ffnn", "--limit", "--theta-steps", "3",
             "--out", "x.csv"],
            "--limit needs --topology yf or btree",
        ),
        (
            ["sweep", "--quantity", "ed", "--topology", "bridged", "--limit", "--theta-steps", "3",
             "--out", "x.csv"],
            "--limit needs --topology yf or btree",
        ),
        (
            ["sweep", "--quantity", "ed", "--limit", "--theta-steps", "3", "--out", "x.csv"],
            "--limit needs --topology yf or btree",
        ),
        (["verify", "--graph", "g.json", "--max-vertices", "5"], "--max-vertices needs --random-graphs"),
        (["verify", "--graph", "g.json", "--edge-prob", "0.9"], "--edge-prob needs --random-graphs"),
        (
            ["sweep", "--quantity", "hs2", "--graph", "g.json", "--theta-steps", "3", "--out", "x.csv"],
            "--graph does not apply to --quantity hs2",
        ),
        (
            ["sweep", "--quantity", "entropy", "--topology", "yf", "--layers", "3", "--theta-steps", "3",
             "--out", "x.csv"],
            "--topology does not apply to --quantity entropy",
        ),
        (
            ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "3", "--p-steps", "5",
             "--theta-steps", "3", "--out", "x.csv"],
            "--p-steps does not apply to --quantity ed",
        ),
        (
            ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "3", "--p", "0.2",
             "--theta-steps", "3", "--out", "x.csv"],
            "--p does not apply to --quantity ed",
        ),
        (
            ["sweep", "--quantity", "hs2", "--limit", "--theta-steps", "3", "--out", "x.csv"],
            "--limit does not apply to --quantity hs2",
        ),
        (
            ["sweep", "--quantity", "ed-general", "--topology", "yf", "--limit", "--theta-steps", "3",
             "--out", "x.csv"],
            "--limit does not apply to --quantity ed-general",
        ),
        (
            ["sweep", "--quantity", "hs2", "--p-min", "0.2", "--theta-steps", "3", "--out", "x.csv"],
            "--p-min needs --p-steps",
        ),
        (
            ["sweep", "--quantity", "hs2", "--p-max", "0.8", "--theta-steps", "3", "--out", "x.csv"],
            "--p-max needs --p-steps",
        ),
        (
            ["sweep", "--quantity", "hs2", "--p-steps", "3", "--p", "0.3", "--theta-steps", "3",
             "--out", "x.csv"],
            "--p does not apply with --p-steps",
        ),
        (
            ["sweep", "--quantity", "hs2", "--theta-min", "2", "--theta-max", "1", "--theta-steps", "3",
             "--out", "x.csv"],
            "--theta-min must be less than --theta-max",
        ),
        (
            ["sweep", "--quantity", "hs2", "--p-min", "0.5", "--p-max", "0.5", "--p-steps", "3",
             "--theta-steps", "3", "--out", "x.csv"],
            "--p-min must be less than --p-max",
        ),
        (
            ["sweep", "--quantity", "ed", "--theta-steps", "3", "--out", "x.csv"],
            "no graph source: pass --graph PATH or --topology plus its parameters",
        ),
        # a flag given as 0 is given (0.0 == False must not let it through)
        (
            ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "3", "--p", "0",
             "--theta-steps", "3", "--out", "x.csv"],
            "--p does not apply to --quantity ed",
        ),
        (
            ["sweep", "--quantity", "hs2", "--p-min", "0", "--theta-steps", "3", "--out", "x.csv"],
            "--p-min needs --p-steps",
        ),
        (
            ["sweep", "--quantity", "hs2", "--p-steps", "3", "--p", "0", "--theta-steps", "3",
             "--out", "x.csv"],
            "--p does not apply with --p-steps",
        ),
        (["verify", "--graph", "g.json", "--edge-prob", "0"], "--edge-prob needs --random-graphs"),
        # the closed forms read neither the phase nor the simulation cap
        (
            ["ed", "--topology", "btree", "--depth", "2", "--theta", "1", "--method", "closed",
             "--psi", "0.3"],
            "--psi does not apply to --method closed",
        ),
        (
            ["ed", "--topology", "btree", "--depth", "2", "--theta", "1", "--method", "closed",
             "--max-qubits", "1"],
            "--max-qubits does not apply to --method closed",
        ),
        (
            ["ed", "--topology", "btree", "--depth", "2", "--theta", "1", "--method", "closed",
             "--psi", "0"],
            "--psi does not apply to --method closed",
        ),
        (
            ["ed", "--topology", "btree", "--depth", "2", "--theta", "1", "--method", "closed",
             "--max-qubits", "22"],
            "--max-qubits does not apply to --method closed",
        ),
    ],
)
def test_stray_topology_flag_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert f"error: {message}\n" == stderr
    assert list(tmp_path.iterdir()) == []


def test_gen_invalid_params_exit_2(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "gen", "--topology", "yf", "--layers", "1", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "error:" in stderr
    # A vertex count beyond int64 is refused, not an overflow traceback.
    code, stdout, stderr = run(
        capsys, "ed", "--topology", "bridged", "--cycles", "99999999999999999999,3",
        "--theta", "0.3", "--method", "closed",
    )
    assert (code, stdout) == (2, "")
    assert stderr == "error: --cycles: num_vertices 100000000000000000002 is more than 2^63 - 1\n"
    # The tree's depth is bounded before 2^depth or any array is formed.
    for depth in ("64", "20000"):
        code, stdout, stderr = run(
            capsys, "ed", "--topology", "btree", "--depth", depth, "--theta", "0.3",
            "--method", "closed",
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: --depth: depth {depth} is more than 63: 2^depth - 1 vertices exceed 2^63 - 1\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--topology", "btree", "--depth", "40"],
            "--depth: a full binary tree of depth 40 has 1099511627774 edges, "
            "which need 87960930221920 bytes, but only 1073741824 bytes of memory are available",
        ),
        (
            ["--topology", "btree", "--depth", "63"],
            "--depth: a full binary tree of depth 63 has 9223372036854775806 edges, "
            "which need 737869762948382064480 bytes, but only 1073741824 bytes of memory are available",
        ),
        (
            ["--topology", "ffnn", "--layer-sizes", "100000,100000"],
            "--layer-sizes: a layered network of layer sizes (100000, 100000) has 10000000000 edges, "
            "which need 800000000000 bytes, but only 1073741824 bytes of memory are available",
        ),
        (
            ["--topology", "yf", "--layers", "10000000000"],
            "--layers: num_vertices 50000000005000000000 is more than 2^63 - 1",
        ),
    ],
)
def test_oversized_family_exit_2_names_its_flag(tmp_path, capsys, monkeypatch, argv, message):
    # Building the graph is what needs the memory.  The probe is replaced and
    # numpy withheld from the generators, so nothing of this size is ever
    # allocated, whatever the machine.
    monkeypatch.setattr(graphent.graphs, "_available_bytes", lambda: 2**30)
    monkeypatch.setattr(graphent.graphs, "np", NoNumpy())
    out = tmp_path / "g.json"
    code, stdout, stderr = run(capsys, "gen", *argv, "--out", str(out))
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert not out.exists()


def _refused(*args, **kwargs):
    raise AssertionError("the closed route built a graph")


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_closed_route_builds_no_graph(tmp_path, capsys, monkeypatch, name):
    # The closed total of a family is read from its degree-count rule: with
    # every generator refusing, ed and sweep still answer, with the bits of
    # the built graph's total.
    built = degree_distribution(TOPOLOGIES[name][2](TOPOLOGY_SIZES[name][1]))
    expected = graphent.entanglement.ed_closed_general(built, 0.3, 0.7)
    for row in TOPOLOGIES:
        dest, count, _, curve = TOPOLOGIES[row]
        monkeypatch.setitem(TOPOLOGIES, row, (dest, count, _refused, curve))
    source = ("--topology", name, "--" + TOPOLOGIES[name][0].replace("_", "-"), TOPOLOGY_SIZES[name][0])
    code, stdout, _ = run(capsys, "ed", *source, "--theta", "0.7", "--p", "0.3", "--method", "closed")
    assert (code, stdout) == (0, f"closed: {expected:.17g}\n")
    out = tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "sweep", "--quantity", "ed-general", *source, "--theta-min", "0.7",
        "--theta-max", "0.8", "--theta-steps", "2", "--p", "0.3", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().splitlines()[1] == f"0.69999999999999996,{expected:.17g}"


def test_closed_total_of_a_family_past_memory(capsys):
    # 2^40 - 1 vertices: no graph could be built, and none is.
    code, stdout, stderr = run(
        capsys, "ed", "--topology", "btree", "--depth", "40", "--theta", "0.3", "--method", "closed"
    )
    assert (code, stdout, stderr) == (0, "closed: 0.16355705477538052\n", "")
    code, stdout, _ = run(
        capsys, "ed", "--topology", "btree", "--depth", "63", "--theta", "0.3", "--method", "closed"
    )
    assert code == 0
    assert value_of(stdout, "closed") == graphent.entanglement.ed_binary_tree(0.3, 63)


def test_ed_closed_matches_sweep_bit_for_bit(tmp_path, capsys):
    # One closed total: ed's line and every sweep value are the same
    # ed_closed_general on the family's counts.
    out = tmp_path / "yf5.csv"
    code, _, _ = run(
        capsys, "sweep", "--quantity", "ed", "--topology", "yf", "--layers", "5",
        "--theta-steps", "201", "--out", str(out),
    )
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        theta, value = line.split(",")
        code, stdout, _ = run(
            capsys, "ed", "--topology", "yf", "--layers", "5", "--theta", theta, "--method", "closed"
        )
        assert (code, stdout) == (0, f"closed: {value}\n"), theta


# ----------------------------------------------------------------------
# ed
# ----------------------------------------------------------------------

def test_ed_single_edge_both(tmp_path, capsys):
    path = str(tmp_path / "pair.json")
    save_graph(DirectedGraph(2, [(0, 1)]), path)
    code, stdout, _ = run(
        capsys, "ed", "--graph", path, "--theta-pi-frac", "1/2", "--p", "0.5", "--method", "both"
    )
    assert code == 0
    assert value_of(stdout, "closed") == pytest.approx(1.0, abs=1e-12)
    assert value_of(stdout, "simulate") == pytest.approx(1.0, abs=1e-12)
    assert value_of(stdout, "diff") < 1e-12


def test_ed_empty_graph(tmp_path, capsys):
    path = str(tmp_path / "empty.json")
    save_graph(DirectedGraph(3, []), path)
    code, stdout, _ = run(capsys, "ed", "--graph", path, "--theta", "0.9")
    assert code == 0
    assert value_of(stdout, "closed") == pytest.approx(0.0, abs=1e-12)
    assert value_of(stdout, "simulate") == pytest.approx(0.0, abs=1e-12)


def test_ed_yf3_oracle_value(capsys):
    code, stdout, _ = run(
        capsys, "ed", "--topology", "yf", "--layers", "3", "--theta-pi-frac", "1/4"
    )
    assert code == 0
    assert value_of(stdout, "closed") == pytest.approx(17 / 24, abs=1e-12)


def test_ed_theta_flags_agree(capsys):
    _, out_frac, _ = run(capsys, "ed", "--topology", "btree", "--depth", "2", "--theta-pi-frac", "1/3")
    _, out_rad, _ = run(
        capsys, "ed", "--topology", "btree", "--depth", "2", "--theta", repr(math.pi / 3)
    )
    assert out_frac == out_rad


def test_ed_verbose_lists_vertices(capsys):
    code, stdout, _ = run(
        capsys, "ed", "--topology", "btree", "--depth", "2", "--theta", "0.8",
        "--method", "closed", "--verbose",
    )
    assert code == 0
    assert stdout.count("vertex") == 3


def test_ed_missing_theta_exit_2(capsys):
    code, _, stderr = run(capsys, "ed", "--topology", "btree", "--depth", "2")
    assert code == 2
    assert "error:" in stderr


def test_ed_missing_graph_source_exit_2(capsys):
    code, _, stderr = run(capsys, "ed", "--theta", "1.0")
    assert code == 2


def test_ed_bad_graph_file_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"num_vertices": 2}')
    code, _, stderr = run(capsys, "ed", "--graph", str(path), "--theta", "1.0")
    assert code == 2
    missing = tmp_path / "nope.json"
    code, _, _ = run(capsys, "ed", "--graph", str(missing), "--theta", "1.0")
    assert code == 2


@pytest.mark.parametrize(
    "text, field",
    [
        ("[0, 1]", "top level"),
        ('{"num_vertices": 2.7, "edges": []}', "num_vertices"),
        ('{"num_vertices": 3, "edges": [[0, 1, 5]]}', "edges[0]"),
        ('{"num_vertices": 3, "edges": [[0, 1], 5]}', "edges[1]"),
        ('{"num_vertices": 3, "edges": [null]}', "edges[0]"),
        ('{"num_vertices": 3, "edges": [[0, 1], [2, 2]]}', "edges[1]"),
        ('{"num_vertices": 3, "edges": [[0, 3]]}', "edges[0]"),
        ('{"num_vertices": 1000000000000000000000000000000, "edges": []}', "num_vertices"),
    ],
)
def test_ed_malformed_graph_json_names_field(tmp_path, capsys, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, stdout, stderr = run(capsys, "ed", "--graph", str(path), "--theta", "1.0")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: malformed graph JSON: {field} ")
    assert stderr.count("\n") == 1


# Exact stdout, 17 significant digits per value: the closed-form lines are a
# byte-level contract.  The simulate lines depend on numpy's floating-point
# summation order and on the state kernel's phase arithmetic (recorded with
# numpy 2.4 on x86-64).
GOLDEN_ED_BRIDGED = """\
closed: 0.5332851785281153
  vertex 0: 0.60783596310355581
  vertex 1: 0.48358465547782159
  vertex 2: 0.48358465547782159
  vertex 3: 0.60783596310355581
  vertex 4: 0.48358465547782159
  vertex 5: 0.60783596310355581
  vertex 6: 0.48358465547782159
  vertex 7: 0.48358465547782159
  vertex 8: 0.60783596310355581
  vertex 9: 0.48358465547782159
simulate: 0.53328517852811519
  vertex 0: 0.6078359631035557
  vertex 1: 0.48358465547782115
  vertex 2: 0.4835846554778217
  vertex 3: 0.6078359631035557
  vertex 4: 0.48358465547782126
  vertex 5: 0.6078359631035557
  vertex 6: 0.48358465547782159
  vertex 7: 0.48358465547782159
  vertex 8: 0.6078359631035557
  vertex 9: 0.48358465547782137
diff: 1.1102230246251565e-16
"""


# Exact verify stdout: the worst deviation of each check, 17 digits, depends on
# the draw order of the seeded generator and on every oracle row.
GOLDEN_VERIFY_RANDOM = """\
graphs: 40 random (<= 12 vertices)
check                                max deviation  status
closed-form oracle          3.8996583739958623e-15  pass
general-closed oracle       3.9960303946026676e-15  pass
psi independence            2.0539125955565396e-15  pass
orientation flip            6.1853733940298028e-16  pass
vertex relabeling           5.2735593669694936e-16  pass
result: PASS (tol 1e-10)
"""

GOLDEN_VERIFY_FFNN = """\
graphs: 1 (13 vertices, 36 edges)
check                                max deviation  status
closed-form oracle          7.7715611723760958e-16  pass
general-closed oracle       8.8817841970012523e-16  pass
psi independence            5.5511151231257827e-16  pass
orientation flip            2.2204460492503131e-16  pass
vertex relabeling           3.3306690738754696e-16  pass
ffnn degree-distribution form vs oracle: 1.6653345369377348e-15
ffnn output-self-exponent form vs oracle: 0.030425130407432333
result: PASS (tol 1e-10)
"""


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("--random-graphs", "40", "--max-vertices", "12", "--samples", "5", "--seed", "1"),
         GOLDEN_VERIFY_RANDOM),
        (("--topology", "ffnn", "--layer-sizes", "3,4,4,2", "--samples", "3", "--seed", "5"),
         GOLDEN_VERIFY_FFNN),
    ],
    ids=["random", "ffnn"],
)
def test_verify_golden_stdout(capsys, argv, golden):
    code, stdout, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert stdout == golden


def test_ed_golden_stdout(capsys):
    code, stdout, _ = run(
        capsys, "ed", "--topology", "bridged", "--cycles", "3,4,3", "--theta", "0.7",
        "--p", "0.3", "--method", "both", "--verbose",
    )
    assert code == 0
    assert stdout == GOLDEN_ED_BRIDGED


def test_ed_cap_flag(capsys):
    code, _, stderr = run(
        capsys, "ed", "--topology", "yf", "--layers", "3", "--theta", "0.5",
        "--method", "simulate", "--max-qubits", "3",
    )
    assert code == 2 and "cap" in stderr
    code, stdout, _ = run(
        capsys, "ed", "--topology", "yf", "--layers", "3", "--theta", "0.5",
        "--method", "simulate", "--max-qubits", "10",
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv, qubits",
    [
        (("verify", "--topology", "ffnn", "--layer-sizes", "2000,2000"), 4000),
        (("ed", "--topology", "btree", "--depth", "23", "--theta", "0.3", "--method", "simulate"), 2**23 - 1),
        (("ed", "--topology", "btree", "--depth", "23", "--theta", "0.3", "--method", "both"), 2**23 - 1),
    ],
    ids=["verify-ffnn", "ed-simulate", "ed-both"],
)
def test_cap_refuses_a_family_before_it_is_generated(capsys, monkeypatch, argv, qubits):
    # The vertex count comes from the family's degree-count rule: with every
    # generator refusing, the command still exits 2 with the cap message.
    def generated(*args):
        raise AssertionError("a family over the cap was generated")

    for row in TOPOLOGIES:
        dest, count, _, curve = TOPOLOGIES[row]
        monkeypatch.setitem(TOPOLOGIES, row, (dest, count, generated, curve))
    assert run(capsys, *argv) == (
        2,
        "",
        f"error: {qubits} qubits exceeds the configured cap of 22 (2^{qubits} amplitudes); "
        "raise the cap explicitly to proceed\n",
    )


def test_verify_ffnn_generates_the_family_once(capsys, monkeypatch):
    # The variant report reads the graph the source flags built.  Every name
    # bound to the generator, in any graphent module, counts its calls.
    dest, count, generate, curve = TOPOLOGIES["ffnn"]
    calls = []

    def counted(sizes):
        calls.append(sizes)
        return generate(sizes)

    monkeypatch.setitem(TOPOLOGIES, "ffnn", (dest, count, counted, curve))
    for module in (graphent.cli, graphent.entanglement, graphent.graphs, graphent.verify):
        for name, value in list(vars(module).items()):
            if value is generate:
                monkeypatch.setattr(module, name, counted)
    argv = ("--topology", "ffnn", "--layer-sizes", "3,4,4,2", "--samples", "3", "--seed", "5")
    assert run(capsys, "verify", *argv) == (0, GOLDEN_VERIFY_FFNN, "")
    assert calls == [(3, 4, 4, 2)]


def test_oracle_parses_its_graph_once(tmp_path, capsys, monkeypatch):
    # The cap reads the loaded graph: a --graph file is parsed once, within
    # the cap or past it.
    path = str(tmp_path / "g.json")
    save_graph(DirectedGraph(4, [(0, 1), (1, 2), (3, 2)]), path)
    parse, parsed = graphent.graphs.from_json, []
    monkeypatch.setattr(graphent.graphs, "from_json", lambda text: parsed.append(1) or parse(text))
    for method, cap, code in [("simulate", "4", 0), ("both", "4", 0), ("simulate", "3", 2)]:
        parsed.clear()
        argv = ("ed", "--graph", path, "--theta", "0.3", "--method", method, "--max-qubits", cap)
        assert run(capsys, *argv)[0] == code
        assert parsed == [1]
    parsed.clear()
    assert run(capsys, "verify", "--graph", path, "--samples", "1", "--max-qubits", "3")[0] == 2
    assert parsed == [1]


def test_unknown_flag_exit_2(capsys):
    assert run(capsys, "ed", "--nonsense")[0] == 2


@pytest.mark.parametrize("command", ["gen", "ed", "sweep", "verify"])
def test_help_exit_0(capsys, command):
    code, stdout, _ = run(capsys, command, "--help")
    assert code == 0
    assert stdout.startswith(f"usage: graphent {command}")


def test_ed_memory_estimate_exit_2(capsys, monkeypatch):
    # The probe is replaced, so no large state is ever allocated.
    monkeypatch.setattr(graphent.statevector, "_available_bytes", lambda: 2**30)
    code, stdout, stderr = run(
        capsys, "ed", "--topology", "yf", "--layers", "7", "--theta", "0.5",
        "--method", "simulate", "--max-qubits", "28",
    )
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "error: 28 qubits need about 4563402752 bytes to build, "
        "but only 1073741824 bytes of memory are available\n"
    )


def test_ed_memory_error_exit_2(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 64. GiB")

    monkeypatch.setattr(graphent.cli, "build_graph_state", out_of_memory)
    code, stdout, stderr = run(
        capsys, "ed", "--topology", "btree", "--depth", "2", "--theta", "1", "--method", "simulate"
    )
    assert code == 2
    assert stdout == ""
    assert stderr == "error: out of memory: Unable to allocate 64. GiB\n"


@pytest.mark.parametrize(
    "argv, angles",
    [
        (("--layers", "2", "--theta", "1e308"), "theta=1e+308, psi=0.0"),
        (("--layers", "3", "--theta", "0.3", "--psi", "1e308"), "theta=0.3, psi=1e+308"),
    ],
    ids=["theta", "psi"],
)
def test_ed_overflowing_phases_exit_2(capsys, argv, angles):
    # Finite angles whose edge phases overflow are refused by name, with no
    # RuntimeWarning on the way (the test run turns one into an error).
    code, stdout, stderr = run(capsys, "ed", "--topology", "yf", *argv, "--method", "simulate")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: edge phases overflow at {angles}; reduce the angles mod 2*pi\n"


def test_ed_closed_at_huge_theta(capsys):
    code, stdout, _ = run(
        capsys, "ed", "--topology", "yf", "--layers", "2", "--theta", "1e308", "--method", "closed"
    )
    assert code == 0
    assert math.isfinite(value_of(stdout, "closed"))


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_hs2_grid(tmp_path, capsys):
    out = str(tmp_path / "hs2.csv")
    code, _, _ = run(
        capsys, "sweep", "--quantity", "hs2", "--theta-steps", "3", "--p-steps", "3", "--out", out
    )
    assert code == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "theta,p,value"
    assert lines[1] == "0,0,0.25"
    assert len(lines) == 1 + 9


def test_sweep_ed_yf10_max(tmp_path, capsys):
    out = str(tmp_path / "yf.csv")
    code, _, _ = run(
        capsys, "sweep", "--quantity", "ed", "--topology", "yf", "--layers", "10",
        "--theta-steps", "3", "--out", out,
    )
    assert code == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "theta,value"
    theta, value = lines[2].split(",")  # midpoint of [0, pi] is pi/2
    assert float(theta) == pytest.approx(math.pi / 2)
    assert float(value) == 1.0


def test_sweep_entropy_value(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    code, _, _ = run(
        capsys, "sweep", "--quantity", "entropy", "--theta-steps", "3", "--p-steps", "3",
        "--out", out,
    )
    assert code == 0
    rows = [line.split(",") for line in open(out, encoding="utf-8").read().splitlines()[1:]]
    match = [r for r in rows if float(r[0]) == pytest.approx(math.pi / 2) and r[1] == "0.5"]
    assert len(match) == 1
    assert float(match[0][2]) == pytest.approx(math.log(2), abs=1e-15)


def test_sweep_values_round_trip(tmp_path, capsys):
    out = str(tmp_path / "rt.csv")
    run(capsys, "sweep", "--quantity", "hs2", "--theta-steps", "7", "--p-steps", "5", "--out", out)
    from graphent.density import hs_distance_sq_analytic

    for line in open(out, encoding="utf-8").read().splitlines()[1:]:
        theta_s, p_s, value_s = line.split(",")
        # 17 significant digits: parsing back gives the exact double
        assert float(value_s) == hs_distance_sq_analytic(float(p_s), float(theta_s))


@pytest.mark.parametrize("quantity", ["entropy", "ed-general", "hs2", "ed", "ed-limit"])
def test_sweep_lines_are_the_scalar_calls(tmp_path, capsys, quantity):
    # The sweep evaluates its grid in one call; each line must still be
    # _fmt(theta),_fmt(p),_fmt(value(p, theta)) of the scalar call there.
    from graphent.cli import _fmt, _grid
    from graphent.density import hs_distance_sq_analytic, pair_entropy_analytic
    from graphent.entanglement import ed_binary_tree_limit, ed_closed_general
    from graphent.graphs import young_fibonacci_degree_counts

    out = str(tmp_path / "s.csv")
    thetas = _grid(-1.0, 4.0, 6, "theta")  # passes theta = 0, where lo = 0
    if quantity in ("ed", "ed-limit"):  # 1-D sweeps at p = 1/2
        if quantity == "ed":
            argv = ["--topology", "yf", "--layers", "4"]
            value = functools.partial(ed_closed_general, young_fibonacci_degree_counts(4))
        else:
            argv, value = ["--topology", "btree", "--limit"], lambda p, theta: ed_binary_tree_limit(theta)
        argv += ["--theta-min", "-1", "--theta-max", "4", "--theta-steps", "6"]
        ps, fixed_p, quantity = None, 0.5, "ed"
    elif quantity == "entropy":
        argv = ["--theta-min", "-1", "--theta-max", "4", "--theta-steps", "6",
                "--p-min", "0.1", "--p-max", "0.9", "--p-steps", "5"]
        ps, value = _grid(0.1, 0.9, 5, "p"), pair_entropy_analytic
    elif quantity == "ed-general":
        graph = DirectedGraph(5, [(0, 1), (1, 2), (0, 3), (3, 1), (4, 2)])
        save_graph(graph, str(tmp_path / "g.json"))
        argv = ["--graph", str(tmp_path / "g.json"), "--theta-min", "-1", "--theta-max", "4",
                "--theta-steps", "6", "--p-steps", "4"]
        dist = degree_distribution(graph)
        ps = _grid(0.0, 1.0, 4, "p")
        value = functools.partial(graphent.entanglement.ed_closed_general, dist)
    else:  # a 1-D sweep at a fixed p
        argv = ["--theta-min", "-1", "--theta-max", "4", "--theta-steps", "6", "--p", "0.3"]
        ps, fixed_p, value = None, 0.3, hs_distance_sq_analytic
    code, stdout, _ = run(capsys, "sweep", "--quantity", quantity, *argv, "--out", out)
    assert code == 0
    if ps is None:
        expected = ["theta,value"] + [f"{_fmt(t)},{_fmt(value(fixed_p, t))}" for t in thetas]
    else:
        expected = ["theta,p,value"] + [
            f"{_fmt(t)},{_fmt(p)},{_fmt(value(p, t))}" for t in thetas for p in ps
        ]
    assert open(out, "rb").read() == ("\n".join(expected) + "\n").encode()
    assert stdout == f"wrote: {out} ({len(expected) - 1} rows)\n"


def test_sweep_limit_curves(tmp_path, capsys):
    out = str(tmp_path / "lim.csv")
    code, _, _ = run(
        capsys, "sweep", "--quantity", "ed", "--topology", "yf", "--limit",
        "--theta-steps", "5", "--out", out,
    )
    assert code == 0
    rows = open(out, encoding="utf-8").read().splitlines()
    assert float(rows[2].split(",")[1]) == pytest.approx(15 / 16, abs=1e-12)  # limit at pi/4
    assert float(rows[3].split(",")[1]) == pytest.approx(1.0, abs=1e-12)  # limit at pi/2


def test_sweep_1d_ed_general_fixed_p(tmp_path, capsys):
    out = str(tmp_path / "g.csv")
    code, _, _ = run(
        capsys, "sweep", "--quantity", "ed-general", "--topology", "btree", "--depth", "2",
        "--theta-steps", "5", "--p", "0.25", "--out", out,
    )
    assert code == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "theta,value"
    assert len(lines) == 6


def test_sweep_deterministic_bytes(tmp_path, capsys):
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["sweep", "--quantity", "entropy", "--theta-steps", "9", "--p-steps", "9"]
    run(capsys, *args, "--out", out_a)
    run(capsys, *args, "--out", out_b)
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


def test_sweep_lf_line_endings(tmp_path, capsys):
    out = str(tmp_path / "lf.csv")
    run(capsys, "sweep", "--quantity", "hs2", "--theta-steps", "3", "--out", out)
    data = open(out, "rb").read()
    assert b"\r" not in data
    assert data.endswith(b"\n")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_single_edge_passes(tmp_path, capsys):
    path = str(tmp_path / "pair.json")
    save_graph(DirectedGraph(2, [(0, 1)]), path)
    code, stdout, _ = run(
        capsys, "verify", "--graph", path, "--samples", "5", "--seed", "42", "--tol", "1e-10"
    )
    assert code == 0
    assert "result: PASS" in stdout


def test_verify_random_graphs(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--random-graphs", "5", "--max-vertices", "6",
        "--samples", "2", "--seed", "3",
    )
    assert code == 0
    assert stdout.startswith("graphs: 5 random (<= 6 vertices)\ncheck")


def test_verify_ffnn_reports_variant_deviations(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--topology", "ffnn", "--layer-sizes", "1,2,2,1",
        "--samples", "2", "--seed", "0",
    )
    assert code == 0
    assert "degree-distribution form vs oracle" in stdout
    assert "output-self-exponent form vs oracle" in stdout


def test_verify_corrupted_closed_form_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(graphent.entanglement, "ed_closed_form", lambda dist, theta: 0.42)
    code, stdout, _ = run(
        capsys, "verify", "--topology", "btree", "--depth", "2", "--samples", "2", "--seed", "1"
    )
    assert code == 1
    assert "result: FAIL" in stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("--random-graphs", "5", "--max-vertices", "10", "--max-qubits", "4", "--seed", "3"),
        ("--topology", "ffnn", "--layer-sizes", "3,4,4,2", "--max-qubits", "5"),
    ],
    ids=["random", "ffnn"],
)
def test_verify_error_leaves_stdout_empty(capsys, argv):
    code, stdout, stderr = run(capsys, "verify", *argv, "--samples", "1")
    assert code == 2
    assert stdout == ""
    assert "cap" in stderr


VERIFY_ARGV = ("verify", "--random-graphs", "1", "--samples", "1")
ED_ARGV = ("ed", "--topology", "btree", "--depth", "2", "--method", "closed")
SWEEP_ARGV = ("sweep", "--quantity", "hs2", "--theta-steps", "3", "--out", "x.csv")


# Each argv ends with the flag under test, which names the case.
@pytest.mark.parametrize(
    "argv, message",
    [
        ((*VERIFY_ARGV, "--tol=nan"), "argument --tol: must be a finite number >= 0, got 'nan'"),
        ((*VERIFY_ARGV, "--tol=-1e-10"), "argument --tol: must be a finite number >= 0, got '-1e-10'"),
        ((*VERIFY_ARGV, "--tol=inf"), "argument --tol: must be a finite number >= 0, got 'inf'"),
        ((*VERIFY_ARGV, "--tol=tiny"), "argument --tol: expected a number, got 'tiny'"),
        ((*VERIFY_ARGV, "--edge-prob=7"), "argument --edge-prob: must be in [0, 1], got '7'"),
        ((*VERIFY_ARGV, "--edge-prob=-0.5"), "argument --edge-prob: must be in [0, 1], got '-0.5'"),
        ((*VERIFY_ARGV, "--edge-prob=nan"), "argument --edge-prob: must be in [0, 1], got 'nan'"),
        ((*ED_ARGV, "--theta=inf"), "argument --theta: must be a finite number, got 'inf'"),
        ((*ED_ARGV, "--theta=nan"), "argument --theta: must be a finite number, got 'nan'"),
        ((*ED_ARGV, "--theta=pi"), "argument --theta: expected a number, got 'pi'"),
        ((*ED_ARGV, "--psi=-inf"), "argument --psi: must be a finite number, got '-inf'"),
        ((*ED_ARGV, "--p=nan"), "argument --p: must be in [0, 1], got 'nan'"),
        ((*SWEEP_ARGV, "--theta-max=inf"), "argument --theta-max: must be a finite number, got 'inf'"),
        ((*SWEEP_ARGV, "--theta-min=nan"), "argument --theta-min: must be a finite number, got 'nan'"),
        ((*SWEEP_ARGV, "--p=1.5"), "argument --p: must be in [0, 1], got '1.5'"),
        ((*SWEEP_ARGV, "--p-min=-0.1"), "argument --p-min: must be in [0, 1], got '-0.1'"),
        ((*SWEEP_ARGV, "--p-max=2"), "argument --p-max: must be in [0, 1], got '2'"),
        (("ed", "--graph", "g.json", "--theta=0.3", "--topology=btree"),
         "argument --topology: not allowed with argument --graph"),
        ((*ED_ARGV, "--theta=0.3", "--theta-pi-frac=1/2"),
         "argument --theta-pi-frac: not allowed with argument --theta"),
        ((*ED_ARGV, "--theta-pi-frac=1e400"),
         "argument --theta-pi-frac: expected a finite rational multiple of pi, got '1e400'"),
        (("verify", "--random-graphs=2", "--depth=2", "--topology=btree"),
         "argument --topology: not allowed with argument --random-graphs"),
        (("verify", "--graph", "g.json", "--random-graphs=2"),
         "argument --random-graphs: not allowed with argument --graph"),
        (("verify", "--random-graphs=0"), "argument --random-graphs: must be an integer >= 1, got '0'"),
        ((*VERIFY_ARGV, "--max-vertices=1"), "argument --max-vertices: must be an integer >= 2, got '1'"),
        ((*VERIFY_ARGV, "--samples=0"), "argument --samples: must be an integer >= 1, got '0'"),
        ((*VERIFY_ARGV, "--seed=-1"), "argument --seed: must be an integer >= 0, got '-1'"),
        ((*VERIFY_ARGV, "--max-qubits=0"), "argument --max-qubits: must be an integer >= 1, got '0'"),
        (("ed", "--topology", "btree", "--depth", "2", "--theta", "0.3", "--max-qubits=-5"),
         "argument --max-qubits: must be an integer >= 1, got '-5'"),
        ((*SWEEP_ARGV, "--psi=1"), "unrecognized arguments: --psi=1"),
        ((*SWEEP_ARGV, "--quantity=nope"), "argument --quantity: invalid choice: 'nope'"),
        ((*SWEEP_ARGV, "--theta-steps=1"), "argument --theta-steps: must be an integer >= 2, got '1'"),
        ((*SWEEP_ARGV, "--p-steps=1"), "argument --p-steps: must be an integer >= 2, got '1'"),
        (("ed", "--topology", "ffnn", "--theta", "0.3", "--layer-sizes=3,,4"),
         "argument --layer-sizes: expected comma-separated integers, got '3,,4'"),
        (("verify", "--topology", "bridged", "--cycles=3,x"),
         "argument --cycles: expected comma-separated integers, got '3,x'"),
    ],
    ids=lambda value: value[-1] if isinstance(value, tuple) else None,
)
def test_verify_bad_numeric_flags_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert message in stderr
    assert list(tmp_path.iterdir()) == []


def test_verify_deterministic_output(capsys):
    args = ["verify", "--topology", "bridged", "--cycles", "3,3", "--samples", "3", "--seed", "9"]
    _, out_a, _ = run(capsys, *args)
    _, out_b, _ = run(capsys, *args)
    assert out_a == out_b


# ----------------------------------------------------------------------
# figure data
# ----------------------------------------------------------------------

# sha256 of each CSV written by scripts/make_figure_data.py; the bytes are a
# contract (17-digit values, LF endings), so any change to them must be deliberate.
FIGURE_SHA256 = {
    "fig1_hs2.csv": "8d6bd71e652563ee8f9a4f5bcaea975a5153728c3276e1afa500ced2267c4f82",
    "fig2_entropy.csv": "d26e9c0cbf9470f5fee35ee63f6c2a63e9fc6fc5abd2b62c5763e963cd888469",
    "fig3_yf_N3.csv": "b5093706265944cecd20b3e77c88f7d67883de0529ce06d7cf3351829946627a",
    "fig3_yf_N5.csv": "1587db2581c9a0775bd9ce5d79f8c48e0717163d5dacb3365caffd856479dce7",
    "fig3_yf_N10.csv": "004105fdf94c073ddbaaa79a4bb604fd47815306a4810de82d363f3ea3d86fe3",
    "fig3_yf_limit.csv": "6b4b85612f61210bc827d1bfaa9beb86bdd6fb81a5c41f5be6f58765836612b1",
    "fig5_btree_N2.csv": "044f402d0f86993f680d5cb0c1b5b7468de2793b5d130b883ecad39ea32b3066",
    "fig5_btree_N4.csv": "f0b7ef519d9a3d2136e33523cf0dd6003ffb8dd34719f413963f7a4f0772b584",
    "fig5_btree_limit.csv": "303254a9435c2784b379ee40f856ea88fd456ec6176cf6885b0137e76cb28097",
}


def test_figure_script_runs_from_a_checkout(tmp_path):
    # No installed package and no PYTHONPATH: the script finds its own src.
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_figure_data.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script), "--outdir", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "out").iterdir()
    }
    assert written == FIGURE_SHA256


def test_figure_data_golden_bytes(tmp_path, capsys, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_figure_data.py"
    spec = importlib.util.spec_from_file_location("make_figure_data", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(script), "--outdir", str(tmp_path)])
    assert module.main() == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == FIGURE_SHA256
