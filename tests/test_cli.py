import gc
import io
import json
import os
import sys
import time

import pytest

from conftest import complete, cycle, cycle_with_chord, ladder_positive, stuck_past_the_guard
from ladder import attach_positive
from gorcheck import baseck, construct, indepck
from gorcheck.cli import main
from gorcheck.construct import (
    AttachCycle,
    Seed,
    blow_up,
    cert_from_dict,
    glue,
    replay,
    replay_matches,
)
from gorcheck.errors import InternalContradiction
from gorcheck.graph import Multigraph, format_edge_list, parse_graph

K4 = "a b\na c\na d\nb c\nb d\nc d\n"
C3 = "1 2\n2 3\n3 1\n"
C5_CHORD = "1 2\n2 3\n3 4\n4 5\n5 1\n1 3\n"
DOUBLED_C4 = "0 1 2\n1 2 2\n2 3 2\n0 3 2\n"
G5 = "a b\nb c\nc d\nd a\na x\nx c\n"  # K4-e with edge ac subdivided
DOUBLED_C3 = "1 2 2\n2 3\n3 1\n"  # C3 with one edge doubled
PATH = "1 2\n2 3\n"
SIMPLE_REQUIRED = "base checker requires a simple graph; use the oracle for multigraphs"


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("k4", K4), ("c3", C3), ("c5chord", C5_CHORD),
        ("dc4", DOUBLED_C4), ("g5", G5), ("dbl", DOUBLED_C3), ("path", PATH),
    ]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        out[name] = str(p)
    out["dir"] = tmp_path
    return out


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_base_k4(files, capsys):
    code, out = run(capsys, "check", "base", files["k4"])
    doc = json.loads(out)
    assert code == 0
    assert (doc["status"], doc["delta"]) == ("gorenstein", 2)
    assert doc["schema"] == "gorcheck.verdict/1"


def test_check_indep_doubled_c4(files, capsys):
    code, out = run(capsys, "check", "indep", files["dc4"])
    doc = json.loads(out)
    assert code == 0
    assert (doc["status"], doc["delta"], doc["m"]) == ("gorenstein", 3, 2)


def test_check_base_multigraph_typed_error(files, capsys):
    code, _ = run(capsys, "check", "base", files["dc4"])
    assert code == 4


def test_parse_error_exit(files, capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("oops\n")
    code, _ = run(capsys, "check", "base", str(bad))
    assert code == 1


def test_oracle_c3(files, capsys):
    code, out = run(capsys, "oracle", "base", files["c3"], "--hstar")
    doc = json.loads(out)
    assert code == 0
    assert doc["delta"] == 3 and doc["witness_point"] == [2, 2, 2]
    assert doc["polytope"]["facets"] == 3
    assert doc["hstar"] == {"coefficients": [1], "palindromic": True}


@pytest.mark.parametrize("kind", ["base", "indep"])
def test_oracle_on_a_loop_only_graph(tmp_path, capsys, kind):
    # no edge once the loop goes: the polytope is the point () of R^0
    path = tmp_path / "loop.txt"
    path.write_text("0 0\n")
    code, out = run(capsys, "oracle", kind, str(path), "--hstar")
    doc = json.loads(out)
    assert code == 0 and (doc["status"], doc["delta"]) == ("gorenstein", 1)
    assert doc["witness_point"] == []
    assert doc["polytope"] == {"vertices": 1, "dim": 0, "facets": 1, "lattice_saturated": True}
    assert doc["hstar"] == {"coefficients": [1], "palindromic": True}


def test_oracle_c5_chord_hstar(files, capsys):
    code, out = run(capsys, "oracle", "base", files["c5chord"], "--hstar", "--normality", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "not_gorenstein"
    assert doc["hstar"]["palindromic"] is False
    assert doc["normality"] == "pass"


def test_oracle_hstar_reaches_k5_minus_an_edge(files, capsys):
    # dim 8: the counts stop at the dilate 4, where the full counts up to
    # 8P visit more than 10**7 branch-and-bound nodes
    path = files["dir"] / "k5e.txt"
    path.write_text("".join(f"{a} {b}\n" for a in range(5) for b in range(a + 1, 5) if (a, b) != (3, 4)))
    code, out = run(capsys, "oracle", "base", str(path), "--hstar")
    doc = json.loads(out)
    assert code == 0
    assert (doc["polytope"]["vertices"], doc["polytope"]["dim"]) == (75, 8)
    assert doc["hstar"]["coefficients"] == [1, 66, 768, 2436, 2400, 702, 45]
    assert doc["elapsed_s"] < 3


def test_oracle_hstar_reaches_c9_independence(files, capsys):
    # dim 9: 4P lies in the box [0, 4]^9, whose 2,441,406 prefixes the
    # count walked one by one; merged by their live facet slacks, the count
    # walks 766 nodes
    path = files["dir"] / "c9.txt"
    path.write_text("".join(f"{i} {(i + 1) % 9}\n" for i in range(9)))
    start = time.perf_counter()
    code, out = run(capsys, "oracle", "indep", str(path), "--hstar")
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    assert code == 0
    assert doc["hstar"]["coefficients"] == [1, 501, 14608, 88234, 156190, 88234, 14608, 502, 1]
    assert elapsed < 1


def test_oracle_hstar_reaches_the_doubled_k4(files, capsys):
    # 128 spanning trees, dim 11: walked prefix by prefix, the count of 5P
    # alone visits 8,818,483 nodes, close to the 10**7-node guard; merged by
    # their live facet slacks they are 22,777 states
    path = files["dir"] / "k4x2.txt"
    path.write_text("".join(f"{a} {b} 2\n" for a in range(4) for b in range(a + 1, 4)))
    start = time.perf_counter()
    code, out = run(capsys, "oracle", "base", str(path), "--hstar")
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    assert code == 0 and elapsed < 1
    assert (doc["polytope"]["vertices"], doc["polytope"]["dim"]) == (128, 11)
    assert doc["status"] == "not_gorenstein"
    assert doc["hstar"] == {
        "coefficients": [1, 116, 2410, 14400, 29684, 22032, 5434, 328, 1],
        "palindromic": False,
    }


@pytest.mark.parametrize("kmax", ["1", "0"])
def test_oracle_normality_below_two_is_input_error(files, capsys, monkeypatch, kmax):
    # 0 is a value out of range, not "no probe"; the range is checked before
    # the polytope is built, not by normality_probe after h* is computed
    import gorcheck.oracle as oracle

    def unreachable(*args, **kwargs):
        raise AssertionError("polytope_of ran before --normality was checked")

    monkeypatch.setattr(oracle, "polytope_of", unreachable)
    code = main(["oracle", "base", files["c3"], "--hstar", "--normality", kmax])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "input error: kmax must be >= 2\n"


@pytest.mark.parametrize("length", ["0", "1"])
def test_generate_seed_cycle_below_two_is_input_error(capsys, length):
    # --cycle 0 used to print K2 and exit 0, as if the option were absent
    code = main(["generate", "seed", "--cycle", length])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "input error: cycle seed needs length >= 2\n"


def test_generate_seed_cycle_and_k4_is_input_error(capsys):
    # the pair used to print the cycle and drop --k4
    code = main(["generate", "seed", "--cycle", "3", "--k4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "input error: --cycle and --k4 are mutually exclusive\n"


@pytest.mark.parametrize("argv, message", [
    # each of these used to end in a traceback and exit 1
    (["attach"], "attach takes 1 input graph, got 0"),
    (["subdivide"], "subdivide takes 1 input graph, got 0"),
    (["blowup"], "blowup takes 1 input graph, got 0"),
    (["collide", "k4"], "collide takes 2 input graphs, got 1"),
    # extra inputs used to be dropped without a word
    (["seed", "c3"], "seed takes 0 input graphs, got 1"),
    (["attach", "c3", "c3"], "attach takes 1 input graph, got 2"),
    (["glue"], "glue takes at least 1 input graph, got 0"),
])
def test_generate_checks_its_input_count(files, capsys, argv, message):
    code = main(["generate"] + [files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"input error: generate {message}\n"


@pytest.mark.parametrize("argv, part", [
    (["collide", "k2", "k2"], "collide part 1"),
    (["glue", "k2", "k2", "--delta", "3"], "glue part 1"),
    (["subdivide", "k2", "--delta", "3"], "subdivide part 1"),
])
def test_generate_names_a_k2_part(files, capsys, argv, part):
    # these printed the edge profile's "edge_facet_profile requires at least
    # 2 edges"
    k2 = files["dir"] / "k2.txt"
    k2.write_text("0 1\n")
    code = main(["generate"] + [str(k2) if a == "k2" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"input error: {part} is K2: a construction part needs at least 2 edges\n"


@pytest.mark.parametrize("argv, message", [
    # the part checks run the block checks before decompose, whose replay
    # check would otherwise meet the doubled edge first and exit 5
    (["glue", "dbl", "c3", "--delta", "3"], SIMPLE_REQUIRED),
    (["glue", "c3", "dbl", "--delta", "3"], SIMPLE_REQUIRED),
    (["subdivide", "dbl", "--delta", "3"], SIMPLE_REQUIRED),
    (["glue", "path", "c3", "--delta", "3"], "checker operations require a 2-connected graph"),
    (["subdivide", "path", "--delta", "3"], "checker operations require a 2-connected graph"),
    # K4 has a K4 minor, so it decomposes at no delta above 2
    (["glue", "k4", "k4", "--delta", "3"],
     "glue part 1 does not decompose at delta=3: {'kind': 'no_candidate_delta'}"),
    (["subdivide", "k4", "--delta", "4"],
     "subdivide part 1 does not decompose at delta=4: {'kind': 'no_candidate_delta'}"),
])
def test_generate_checks_each_part_as_a_block(files, capsys, monkeypatch, argv, message):
    def no_passes(G):
        raise AssertionError("_profile_by_passes called")

    monkeypatch.setattr(baseck, "_profile_by_passes", no_passes)
    code = main(["generate"] + [files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("argv, sizes", [
    # two C3 parts, then the verdict on their glue, K4 - e
    (["glue", "c3", "c3", "--delta", "3"], [(3, 3), (3, 3), (4, 5)]),
    # K4 - e, then the verdict on its subdivision
    (["subdivide", "k4e", "--delta", "3"], [(4, 5), (5, 6)]),
])
def test_generate_decomposes_each_part_once(files, capsys, monkeypatch, argv, sizes):
    # the CLI ran part_weights on each part to choose its edge, and glue /
    # subdivide ran it again on the same part
    k4e = files["dir"] / "k4e.txt"
    k4e.write_text("a b\na c\na d\nb c\nb d\n")
    seen = []  # holds every graph, so no two share an id
    real = construct.decompose

    def counting(G, delta):
        seen.append(G)
        return real(G, delta)

    monkeypatch.setattr(construct, "decompose", counting)
    code = main(["generate"] + [str(k4e) if a == "k4e" else files.get(a, a) for a in argv])
    assert (code, capsys.readouterr().err) == (0, "verdict: gorenstein delta=3\n")
    assert [(G.n, G.m) for G in seen] == sizes
    assert len({id(G) for G in seen}) == len(seen)


@pytest.mark.parametrize("argv, what", [
    (["seed", "--cycle", "1000000000"], "cycle seed guarded at 1000000 vertices; asked for"),
    (["blowup", "k2", "--m", "1000000000"], "replay guarded at 1000000 edges; this one has"),
])
def test_generate_refuses_a_graph_over_the_guard(files, capsys, argv, what):
    # refused before any label or edge copy is built, so in well under a second
    k2 = files["dir"] / "k2.txt"
    k2.write_text("0 1\n")
    start = time.perf_counter()
    code = main(["generate"] + [str(k2) if a == "k2" else a for a in argv])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"guard exceeded: {what} 1000000000\n"


def test_sweep_cross_validate_of_indep_equivalence_is_input_error(capsys):
    # the three-way sweep has no oracle side: the flag was ignored and the
    # sweep reported 0 mismatches
    code = main(["sweep", "--max-vertices", "3", "--kind", "indep-equivalence", "--cross-validate"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "input error: --cross-validate does not apply to --kind indep-equivalence\n"


def test_oracle_on_a_long_path(tmp_path, capsys):
    # 1,200 edges: the spanning-forest walk used to nest one generator frame
    # per edge and end in a RecursionError traceback before its first yield
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1200)))
    code, out = run(capsys, "oracle", "base", str(path))
    doc = json.loads(out)
    assert code == 0 and (doc["status"], doc["delta"]) == ("gorenstein", 1)
    assert doc["polytope"]["vertices"] == 1 and doc["witness_point"] == [1] * 1200
    code = main(["oracle", "indep", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "guard exceeded: more than 512 forests\n"


@pytest.mark.parametrize("count", ["1", "0", "-2"])
def test_sweep_max_vertices_below_two_is_input_error(capsys, count):
    # -2 used to sweep no graph and report 0 mismatches with exit 0
    code = main(["sweep", "--max-vertices", count])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "input error: --max-vertices must be >= 2\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_is_input_error(capsys, jobs):
    # 0 used to run serially without a word
    code = main(["sweep", "--max-vertices", "3", "--jobs", jobs])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "input error: --jobs must be >= 1\n"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["check", "base"], "the following arguments are required: file"),
    (["oracle", "independence", "g.txt"], "argument kind: invalid choice: 'independence'"),
    (["sweep", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
])
def test_usage_error_is_input_error(capsys, argv, message):
    # argparse exits 2 on its own, the code of a tripped resource guard
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (4, "")
    assert captured.err.startswith("usage: gorcheck") and message in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: gorcheck check")


def test_oracle_over_the_facet_guard_stops_before_the_lattice(tmp_path, capsys, monkeypatch):
    # K6 has far more than FACET_VERTEX_GUARD forests; the facets could not
    # be computed, so no lattice basis or coordinates are built either
    import gorcheck.oracle as oracle

    calls = []
    monkeypatch.setattr(oracle, "_block_lattice", lambda *args: calls.append(args))
    path = tmp_path / "k6.txt"
    path.write_text(format_edge_list(complete(6)))
    code = main(["oracle", "indep", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"guard exceeded: more than {oracle.FACET_VERTEX_GUARD} forests\n"
    assert calls == []


def test_internal_contradiction_exit5(files, capsys, monkeypatch):
    def contradict(*args, **kwargs):
        raise InternalContradiction("weights disagree")

    monkeypatch.setattr(baseck, "base_verdict", contradict)
    code = main(["check", "base", files["k4"]])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "internal contradiction: weights disagree\n"


def test_certify_replay_mismatch_exit5(files, capsys, monkeypatch):
    # the exact replay check where each certificate is built catches a
    # corrupted node: the root's first label moved to a vertex the block
    # lacks (base: the C3 seed's; indep: the path of C4's attach_cycle).
    # Every peel's certificate goes through construct.post_order.
    real = construct.post_order

    def one_label_wrong(nodes):
        cert = real(nodes)
        root = cert[-1]
        return cert[:-1] + (root._replace(labels=("nowhere", *root.labels[1:])),)

    monkeypatch.setattr(construct, "post_order", one_label_wrong)
    for kind, name in [("base", "c3"), ("indep", "dc4")]:
        code = main(["certify", kind, files[name]])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == "", kind
        assert captured.err.startswith("internal contradiction: certificate"), captured.err
        assert captured.err.count("\n") == 1, captured.err


def _four_pentagons():
    c5 = cycle(5)
    return glue([(c5, 0)] * 4, 5)  # 14 vertices


def _doubled_attach_chain():
    cert, (a, b) = Seed("k2"), (0, 1)
    for x in range(2, 12, 2):  # each 4-cycle attached to the newest edge
        cert = AttachCycle(3, cert, (a, x, x + 1, b))
        a, b = x, x + 1
    return blow_up(replay(cert), 2)  # 12 vertices


@pytest.mark.parametrize(
    "kind, G, delta", [("base", _four_pentagons(), 5), ("indep", _doubled_attach_chain(), 3)]
)
def test_certify_checks_the_vertex_map_beyond_ten_vertices(tmp_path, capsys, kind, G, delta):
    # the exact replay check has no size limit; the certificate names the
    # vertices certify read, the file's string labels, not G's integers
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(G))
    code, out = run(capsys, "certify", kind, str(path))
    doc = json.loads(out)
    assert code == 0 and doc["delta"] == delta and G.n > 10
    (cert,) = doc["certificates"]
    assert (cert["replay_matched"], cert["replay_check"]) == (True, "exact")
    assert replay_matches(cert_from_dict(cert), parse_graph(path.read_text()))[0]


@pytest.mark.parametrize("kind", ["base", "indep"])
def test_check_and_certify_report_the_same_input(files, capsys, kind):
    # a loop and a triangle: certify used to summarize the normalized graph
    looped = files["dir"] / "looped.txt"
    looped.write_text("0 0\n0 1\n1 2\n0 2\n")
    _, checked = run(capsys, "check", kind, str(looped))
    code, certified = run(capsys, "certify", kind, str(looped))
    assert code == 0
    assert json.loads(certified)["input"] == json.loads(checked)["input"]
    assert json.loads(checked)["input"]["loops_removed"] == 1


def test_certify_g5(files, capsys):
    code, out = run(capsys, "certify", "base", files["g5"])
    doc = json.loads(out)
    assert code == 0 and doc["delta"] == 3
    (entry,) = doc["certificates"]
    assert entry["schema"] == "gorcheck.cert/3" and entry["replay_matched"] is True
    root = entry["nodes"][-1]  # post-order: the root comes last
    assert root["op"] == "subdivide" and entry["nodes"][root["child"]]["op"] == "glue"
    # the report entry parses as it stands and replays back to the input graph
    cert = cert_from_dict(entry)
    assert replay_matches(cert, parse_graph(G5))[0]


def test_check_base_over_the_subset_guard_exit2(tmp_path, capsys):
    path = tmp_path / "stuck29.txt"
    path.write_text(format_edge_list(stuck_past_the_guard()))
    code = main(["check", "base", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "guard exceeded: subset enumeration guarded at 24 vertices, graph has 29\n"
    )


def test_a_multiplicity_past_the_edge_guard_exits_2(tmp_path):
    # "1 2 1000000000" asks for 10^9 edges: parse_graph counts them before it
    # lists a pair, so a process limited to 1 GB of address space exits 2
    # with one line where it raised MemoryError, and exited 1, with a traceback
    import resource
    import subprocess

    import gorcheck

    path = tmp_path / "huge.txt"
    path.write_text("1 2 1000000000\n")
    src = os.path.dirname(os.path.dirname(gorcheck.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gorcheck.cli", "check", "base", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9)),
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "guard exceeded: edge list guarded at 1000000 edges; line 1 brings it to 1000000000\n"


def test_check_base_c26(tmp_path, capsys):
    # a positive block over the subset guard decides by decomposition
    path = tmp_path / "c26.txt"
    path.write_text(format_edge_list(cycle(26)))
    code, out = run(capsys, "check", "base", str(path))
    doc = json.loads(out)
    assert code == 0 and (doc["status"], doc["delta"]) == ("gorenstein", 26)


@pytest.mark.parametrize(
    "kind, n",
    [pytest.param(kind, 200, id=str(kind)) for kind in (2, 3, 4, "chain")]
    + [
        pytest.param(kind, n, id=f"{kind}-{n}")
        for kind, n in ((2, 800), (3, 800), ("chain", 801), (2, 3200), (3, 3200), ("chain", 3201))
    ],
)
def test_certify_base_ladder_positives_in_polynomial_time(tmp_path, capsys, kind, n):
    # about 200 vertices, the 201-vertex in-order chain among them: no
    # subset table and one series-parallel reduction per block, which the
    # candidates and the peel share; at delta = 2 no reduction at all, and no
    # low-link pass but the one in blocks(), and a replay that merges the
    # smaller part into the larger, so 3,200 vertices fit in the same second
    G, delta, _ = ladder_positive(kind, n, seed=n)
    path = tmp_path / "ladder.txt"
    path.write_text(format_edge_list(G))
    t0 = time.perf_counter()
    code, out = run(capsys, "certify", "base", str(path))
    assert time.perf_counter() - t0 < 1
    doc = json.loads(out)
    assert code == 0 and (doc["status"], doc["delta"]) == ("gorenstein", delta)
    assert doc["input"]["vertices"] == G.n >= n


def _certify_under_two_hash_seeds(tmp_path, kind):
    """certify on the 40-vertex positive of kind, string labelled, under
    PYTHONHASHSEED 1 and 2: base on the ladder positive of a ladder kind,
    indep on the blown-up attach-cycle tree of "attach<delta>".  Its delta,
    its vertex count and the two outputs, elapsed times zeroed."""
    import re
    import subprocess

    import gorcheck

    if str(kind).startswith("attach"):
        vertices, edges, delta = attach_positive(int(kind[len("attach"):]), 40, seed=40)
        polytope, G = "indep", Multigraph.build(vertices, edges)
    else:
        polytope, (G, delta, _) = "base", ladder_positive(kind, 40, seed=40)
    path = tmp_path / "strings.txt"
    path.write_text("".join(f"v{u} v{v}\n" for _, u, v in G.edges))
    src = os.path.dirname(os.path.dirname(gorcheck.__file__))
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "gorcheck.cli", "certify", polytope, str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', proc.stdout))
    doc = json.loads(outs[0])
    assert (doc["delta"], doc["input"]["vertices"]) == (delta, G.n)
    return outs


def test_certify_base_delta2_does_not_depend_on_hash_order(tmp_path):
    # string labels hash differently in every process unless PYTHONHASHSEED
    # fixes them; the Collide peel's worklist and adjacency keep the input's
    # order, so two hash seeds print the same certificate
    first, second = _certify_under_two_hash_seeds(tmp_path, 2)
    assert first == second


def test_certify_base_delta3_does_not_depend_on_hash_order(tmp_path):
    # so do the Glue/Subdivide peel's: its light pairs are a set, read only
    # by membership, and its runs are sorted by label key
    first, second = _certify_under_two_hash_seeds(tmp_path, 3)
    assert first == second


@pytest.mark.parametrize("kind", ["attach2", "attach3"])
def test_certify_indep_does_not_depend_on_hash_order(tmp_path, kind):
    # and so do the independence peel's, on a tree blown up at delta = 3:
    # blocks, blow-up factors and the peel all keep the input's order
    first, second = _certify_under_two_hash_seeds(tmp_path, kind)
    assert first == second


def test_verdict_digest_runs():
    # tests/digest.py hashes every verdict of a family, both kinds; two
    # runs agree, and the certificates change the digest
    import digest

    graphs = digest.atlas(4)
    assert len(graphs) == 14  # 18 atlas graphs up to 4 vertices, 4 of them edgeless
    plain = digest.digest(graphs)
    assert plain == digest.digest(graphs) != digest.digest(graphs, certs=True)
    base, indep = map(json.loads, digest.record(graphs[0], False).split("\n"))
    assert base == {"kind": "base", "status": "gorenstein", "delta": None, "m": None,
                    "witness": None}
    assert indep == {"kind": "indep", "status": "gorenstein", "delta": 2, "m": 1,
                     "witness": None}


def test_oracle_digest_runs():
    # tests/digest.py --oracle hashes both polytopes of every graph: vertex
    # count, dim, basis, facets and witness, or the facet guard's error
    import digest

    graphs = digest.atlas(4)
    assert digest.digest(graphs, of=digest.oracle_record) == digest.digest(
        graphs, of=digest.oracle_record) != digest.digest(graphs)
    base, indep = map(json.loads, digest.oracle_record(graphs[0]).split("\n"))
    assert base == {"kind": "base", "vertices": 1, "dim": 0, "basis": [],
                    "facets": [[[], 1]], "witness": [1, [1]]}
    assert indep == {"kind": "independence", "vertices": 2, "dim": 1, "basis": [[1]],
                     "facets": [[[-1], 1], [[1], 0]], "witness": [2, [1]]}
    base = json.loads(digest.oracle_record(complete(6)).split("\n")[0])
    assert (base["vertices"], base["dim"], base["error"], base["message"]) == (
        1296, 14, "GuardExceeded", "facet computation guarded at 512 vertices (polytope has 1296)")


def test_stuck_decomposition_of_a_positive_exit5(files, capsys, monkeypatch):
    # K4 satisfies the good-flat equalities, so a stuck Collide peel is not
    # a negative verdict but a contradiction
    def stuck(G):
        raise InternalContradiction("stuck")

    monkeypatch.setattr(construct, "_collide_peel", stuck)
    code = main(["check", "base", files["k4"]])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "internal contradiction: stuck\n"


def test_certify_base_decides_once(files, capsys, monkeypatch):
    # base_verdict decides by decomposition and certify emits its
    # certificates, so the good-flat system runs on no path of a positive
    def spy(*args):
        raise AssertionError("check_spade ran on a positive")

    monkeypatch.setattr(baseck, "check_spade", spy)
    monkeypatch.setattr(construct, "check_spade", spy)
    two_c4s = files["dir"] / "two-c4s.txt"  # two 4-cycles joined by a bridge
    two_c4s.write_text("0 1\n1 2\n2 3\n3 0\n3 4\n4 5\n5 6\n6 7\n7 4\n")
    for path, blocks in [(files["k4"], 1), (files["g5"], 1), (str(two_c4s), 3)]:
        code, out = run(capsys, "certify", "base", path)
        assert code == 0 and len(json.loads(out)["certificates"]) == blocks, path


@pytest.mark.parametrize("argv", [
    ["check", "base", "g5"], ["certify", "base", "g5"], ["check", "indep", "dc4"],
    ["certify", "indep", "dc4"], ["oracle", "base", "g5"], ["oracle", "indep", "g5"],
    ["check", "base", "g5loop"], ["certify", "indep", "dc4loop"], ["oracle", "base", "g5loop"],
])
def test_a_command_runs_one_low_link_pass(files, capsys, monkeypatch, argv):
    # the verdict or the polytope, and then the report header, read the
    # blocks of one loop-free graph, which keeps its one pass; an input
    # with loops keeps its one loop-free graph
    from gorcheck import cli, graph, oracle

    for name, loop in (("g5", "x x\n"), ("dc4", "2 2 3\n")):
        path = files["dir"] / f"{name}loop.txt"
        path.write_text(open(files[name]).read() + loop)
        files[f"{name}loop"] = str(path)

    real, passes = graph.low_link, []

    def counted(G, skip=None):
        if skip is not None or "_low_link" not in G.__dict__:
            passes.append(skip)
        return real(G, skip)

    for module in (graph, oracle, cli):
        monkeypatch.setattr(module, "low_link", counted)
    code, _ = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 0 and passes == [None]


def test_certify_emits_a_deep_certificate(files, capsys, monkeypatch):
    # the flat node list has no depth limit: a verdict holding a 2,000-deep
    # AttachCycle chain is reported whole, and the entry reads back
    cert = Seed("k2")
    for x in range(2, 2002):
        cert = AttachCycle(2, cert, (0, x, 1))
    verdict = indepck.IndepVerdict("gorenstein", 2, 1, (), certificates=(cert,))
    monkeypatch.setattr(indepck, "indep_verdict", lambda G: verdict)
    code, out = run(capsys, "certify", "indep", files["c3"])
    (entry,) = json.loads(out)["certificates"]
    assert code == 0 and len(entry["nodes"]) == 2001
    assert cert_from_dict(entry) == cert


def test_check_indep_long_cycle_exit2(tmp_path, capsys):
    path = tmp_path / "c30chord.txt"
    path.write_text(format_edge_list(cycle_with_chord(30)))
    code = main(["check", "indep", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "guard exceeded: subset enumeration guarded at 24 vertices, graph has 30\n"
    )


@pytest.mark.parametrize("argv, want", [
    (["certify", "base", "c5chord"], 3),
    (["certify", "indep", "dc4"], 0),
    (["generate", "seed", "--cycle", "5"], 0),
])
def test_closed_stdout_is_quiet(files, capsys, monkeypatch, tmp_path, argv, want):
    # `gorcheck ... | head`: the reader is gone, the exit code stays the command's
    sink = os.open(tmp_path / "sink", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return sink

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        code = main([files.get(a, a) for a in argv])
    finally:
        os.close(sink)
    assert code == want
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, want", [
    (["check", "base", "k4"], 0),
    (["check", "base", "bad"], 1),
    (["sweep", "--max-vertices", "8"], 2),
    (["certify", "base", "c5chord"], 3),
    (["check", "base", "dc4"], 4),
    (["check", "base", "c3"], 5),
])
def test_the_command_runs_with_the_gc_paused(files, capsys, monkeypatch, argv, want):
    # main pauses the cyclic GC around the command and turns it back on
    # whatever the command's exit code
    (files["dir"] / "bad.txt").write_text("oops\n")
    files["bad"] = str(files["dir"] / "bad.txt")
    during = []
    real = baseck.base_verdict

    def verdict(G):
        during.append(gc.isenabled())
        if want == 5:
            raise InternalContradiction("weights disagree")
        return real(G)

    monkeypatch.setattr(baseck, "base_verdict", verdict)
    assert gc.isenabled()
    assert main([files.get(a, a) for a in argv]) == want
    capsys.readouterr()
    assert gc.isenabled()
    assert during == ([False] if want in (0, 3, 4, 5) else [])


def test_certify_writes_compact_json(files, capsys):
    # certificates grow with the graph: certify writes them without
    # indentation or spaces; check keeps its indented report
    code, out = run(capsys, "certify", "base", files["k4"])
    assert code == 0 and out.count("\n") == 1 and ", " not in out and ": " not in out
    assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == out
    code, out = run(capsys, "check", "base", files["k4"])
    assert code == 0 and out.startswith('{\n  "schema": ')


def test_certify_negative_exit3(files, capsys):
    code, out = run(capsys, "certify", "base", files["c5chord"])
    doc = json.loads(out)
    assert code == 3
    # labels parsed from files are strings
    assert doc["witness"]["flat"] == ["1", "3", "4", "5"]


def test_certify_indep(files, capsys):
    code, out = run(capsys, "certify", "indep", files["dc4"])
    doc = json.loads(out)
    assert code == 0
    (entry,) = doc["certificates"]
    root = entry["nodes"][-1]
    assert root["op"] == "blow_up" and root["m"] == 2
    assert entry["nodes"][root["child"]]["op"] == "attach_cycle"


def test_generate_glue(files, capsys, tmp_path):
    out_path = tmp_path / "k4e.txt"
    code, _ = run(
        capsys, "generate", "glue", files["c3"], files["c3"],
        "--delta", "3", "-o", str(out_path),
    )
    assert code == 0
    G = parse_graph(out_path.read_text())
    assert (G.n, G.m) == (4, 5)


def test_generate_seed_and_collide(files, capsys, tmp_path):
    c5 = tmp_path / "c5.txt"
    code, out = run(capsys, "generate", "seed", "--cycle", "5", "-o", str(c5))
    assert code == 0 and parse_graph(c5.read_text()).n == 5
    code, out = run(capsys, "generate", "collide", files["k4"], files["k4"])
    G = parse_graph(out)
    assert (G.n, G.m) == (6, 10)


def test_dot_output(files, capsys, tmp_path):
    dot = tmp_path / "k4.dot"
    code, _ = run(capsys, "check", "base", files["k4"], "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph G {") and '"a" -- "b"' in text


@pytest.mark.parametrize("name, exit_code", [("k4", 0), ("c5chord", 3)])
def test_certify_writes_dot(files, capsys, tmp_path, name, exit_code):
    # certify accepted --dot and wrote nothing; a positive colours its weights
    dot = tmp_path / "out.dot"
    code, _ = run(capsys, "certify", "base", files[name], "--dot", str(dot))
    assert code == exit_code
    text = dot.read_text()
    assert text.startswith("graph G {") and ("color=" in text) == (exit_code == 0)


def test_check_many_loops(tmp_path, capsys):
    # normalize was quadratic in the loops and ran twice: 24 s on this input
    path = tmp_path / "loops.txt"
    path.write_text("a a 20000\na b\n")
    t0 = time.perf_counter()
    code, out = run(capsys, "check", "base", str(path))
    assert time.perf_counter() - t0 < 1.0
    doc = json.loads(out)
    assert code == 0 and doc["input"]["loops_removed"] == 20000
    assert (doc["status"], doc["delta"]) == ("gorenstein", None)


def test_sweep_small(files, capsys):
    code, out = run(capsys, "sweep", "--max-vertices", "4", "--kind", "base",
                    "--cross-validate")
    doc = json.loads(out)
    assert code == 0
    assert doc["graphs"] == 5 and doc["mismatches"] == 0
    # census: K2 wildcard, C3@3, C4@4, K4-e@3, K4@2
    assert doc["census_by_delta"] == {"2": 1, "3": 2, "4": 1, "any": 1}


def test_sweep_jobs_deterministic(files, capsys):
    _, out1 = run(capsys, "sweep", "--max-vertices", "4", "--kind", "base")
    _, out2 = run(capsys, "sweep", "--max-vertices", "4", "--kind", "base",
                  "--jobs", "2")
    assert json.loads(out1) == json.loads(out2)


def test_sweep_starts_no_more_workers_than_it_can_use(capsys, monkeypatch):
    # a process pool forks all its workers at the first submit, so --jobs is
    # capped by the graphs to sweep and the CPUs, and one worker is no pool;
    # the fake pool records its size and runs in process
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    argv = ["sweep", "--max-vertices", "4", "--kind", "base"]  # 5 graphs
    _, want = run(capsys, *argv)
    for cpus, jobs, made in [(64, 100000, [5]), (3, 100000, [3]), (1, 8, []), (None, 8, []),
                             (64, 1, [])]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        code, out = run(capsys, *argv, "--jobs", str(jobs))
        assert (code, out, sizes) == (0, want, made), (cpus, jobs)


def test_sweep_guard(files, capsys):
    code, _ = run(capsys, "sweep", "--max-vertices", "7", "--cross-validate")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["check", "indep", "{file}"],
    ["certify", "indep", "{file}"],
    ["generate", "blowup", "{file}", "--m", "2"],
])
def test_loop_only_graph_is_a_point_polytope(tmp_path, capsys, argv):
    # normalize leaves no edge: the independence polytope is a point, which
    # the oracle finds Gorenstein; indep_verdict used to pop an empty set
    path = tmp_path / "loop.txt"
    path.write_text("0 0\n")
    code, out = run(capsys, "oracle", "indep", str(path))
    oracle_status = json.loads(out)["status"]
    assert code == 0 and oracle_status == "gorenstein"
    code = main([str(path) if a == "{file}" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    if argv[0] == "generate":
        assert captured.err == f"verdict: {oracle_status} delta=None\n"
    else:
        doc = json.loads(captured.out)
        assert (doc["status"], doc["delta"]) == (oracle_status, None)


# Print the gorcheck modules (and fractions, dataclasses, inspect, networkx)
# a fresh process has loaded after an import statement, and after
# `gorcheck.cli.main(argv)` when argv is given.
_LOADED = """
import json, sys
exec(sys.argv[1])
code = gorcheck.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] in
                ("gorcheck", "fractions", "dataclasses", "inspect", "networkx"))
sys.stderr.write("\\n" + json.dumps([code, loaded]) + "\\n")
"""


def _loaded_modules(statement, *argv):
    import subprocess

    import gorcheck

    src = os.path.dirname(os.path.dirname(gorcheck.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, statement, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("gorcheck.") for m in loaded}


@pytest.mark.parametrize("argv, absent", [
    (["oracle", "base", "k4"],
     {"baseck", "construct", "flats", "indepck", "smallgraphs", "fractions"}),
    (["check", "base", "k4"], {"oracle", "linalg", "indepck", "smallgraphs", "fractions"}),
    (["certify", "base", "k4"], {"oracle", "linalg", "indepck", "smallgraphs", "fractions"}),
    (["check", "indep", "k4"], {"oracle", "linalg"}),
    (["certify", "indep", "dc4"], {"oracle", "linalg"}),
    (["generate", "seed", "--k4"], {"oracle", "linalg", "smallgraphs"}),
    (["sweep", "--max-vertices", "3"], {"oracle", "linalg", "fractions"}),
])
def test_a_command_imports_only_the_layers_it_runs(files, argv, absent):
    # a cold `gorcheck` process compiles every module it imports; records are
    # NamedTuples, so no command loads dataclasses or the inspect it imports,
    # and sweep reads its graphs from package data, not networkx's atlas
    loaded = _loaded_modules("import gorcheck.cli", *(files.get(a, a) for a in argv))
    assert {"gorcheck", "cli", "errors", "graph"} <= loaded
    assert loaded & (absent | {"dataclasses", "inspect", "networkx"}) == set()


def test_importing_the_cli_loads_only_the_parser_layers():
    # _LOADED also reports dataclasses, inspect and networkx, so they are absent here
    assert _loaded_modules("import gorcheck") == {"gorcheck"}
    assert _loaded_modules("import gorcheck.cli") == {"gorcheck", "cli", "errors", "graph"}


# the names `gorcheck` exported when its __init__ imported every submodule
_PUBLIC = {
    "baseck": "ALL_DELTAS BaseVerdict Witness base_verdict"
              " candidate_deltas check_heart check_spade edge_facet_profile weight_function",
    "construct": "AttachCycle BlowUp Collide Glue Node Seed Subdivide attach_cycle"
                 " blow_up cert_from_json cert_to_json collide decompose_base glue replay"
                 " replay_matches subdivide",
    "errors": "ConstructionError GorcheckError GuardExceeded InternalContradiction"
              " NotTwoConnected ParseError SimpleGraphRequired WeightConflict",
    "flats": "GoodFlat good_flats indecomposable_flats",
    "graph": "Multigraph blocks blow_up_factor format_edge_list is_two_connected normalize"
             " parse_graph",
    "indepck": "IndepVerdict check_chordal_k4free check_club indep_verdict"
               " recognize_cycle_construction",
    "oracle": "Facet GorensteinWitness HStarVector LatticePolytope facets_bruteforce"
              " facets_from_cor33 gorenstein_search hstar lattice_points normality_probe"
              " polytope_of product_polytope",
}


def test_public_names_stay_importable_from_the_package():
    import importlib

    import gorcheck

    names = [(mod, name) for mod, text in _PUBLIC.items() for name in text.split()]
    assert sorted(gorcheck.__all__) == sorted(name for _, name in names)
    for mod, name in names:
        scope = {}
        exec(f"from gorcheck import {name}", scope)
        assert scope[name] is getattr(importlib.import_module(f"gorcheck.{mod}"), name), name
    assert set(gorcheck.__all__) <= set(dir(gorcheck))
    assert gorcheck.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        gorcheck.no_such_name
