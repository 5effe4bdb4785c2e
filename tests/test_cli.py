import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from cayleykit import automorphisms, cli, quasiham
from cayleykit.cli import main
from cayleykit.graphs import SimpleGraph, export_edge_list, path_graph, petersen_graph, cycle_graph


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script, *args):
    """stdout of ``script`` run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestConstruct:
    def test_basic_type(self, capsys, tmp_path):
        out = tmp_path / "b3.gens"
        code, stdout, _ = run_cli(
            ["construct", "--type", "2,2,2", "--n", "22", "--out", str(out)], capsys
        )
        assert code == 0
        assert "size=7" in stdout
        assert out.read_text().splitlines()[0] == "n=22 type=2,2,2"

    def test_single_cycle_type(self, capsys, tmp_path):
        out = tmp_path / "k4.gens"
        code, stdout, _ = run_cli(
            ["construct", "--type", "4", "--n", "10", "--out", str(out)], capsys
        )
        assert code == 0
        assert "size=3" in stdout
        assert out.read_text().count("(") == 3

    def test_parity_error(self, capsys):
        code, _, stderr = run_cli(["construct", "--type", "3", "--n", "10"], capsys)
        assert code == 1
        assert "even" in stderr

    def test_below_threshold_names_the_minimum(self, capsys):
        code, _, stderr = run_cli(["construct", "--type", "4", "--n", "5"], capsys)
        assert code == 1
        assert "7" in stderr

    @pytest.mark.parametrize("text, n, named", [("2,2,2", 21, "(2,2,2) is 22"),
                                                 ("2,3", 15, "(3,2) is 16")])
    def test_multi_part_below_threshold_names_the_minimum(self, capsys, text, n, named):
        code, stdout, stderr = run_cli(["construct", "--type", text, "--n", str(n)], capsys)
        assert (code, stdout) == (1, "")
        assert stderr == f"error: smallest supported degree for type {named}\n"

    def test_threshold_names_the_basic_tree_it_extended(self, capsys, tmp_path):
        # 2k+1 = 15 is not prime: the basic tree lands on 106 points, the
        # general plan (p = 29, m = 2) on 407
        out = tmp_path / "b7.gens"
        code, stdout, _ = run_cli(
            ["construct", "--type", "2,2,2,2,2,2,2", "--n", "106", "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "n=106 type=2,2,2,2,2,2,2"
        assert "threshold report: construction degree 106 (basic tree, K_15);" in stdout
        code, stdout, stderr = run_cli(["construct", "--type", "2,2,2,2,2,2,2", "--n", "105"],
                                       capsys)
        assert (code, stdout) == (1, "")
        assert stderr == "error: smallest supported degree for type (2,2,2,2,2,2,2) is 106\n"

    def test_threshold_line_of_the_general_plan(self, capsys):
        # (2,2,2): the basic tree on K_7 is the plan's p = 7, m = 1 degree
        stdout = run_cli(["construct", "--type", "2,2,2", "--n", "22"], capsys)[1]
        assert stdout.splitlines()[-1] == (
            "threshold report: construction degree 22 (p=7, m=1); worst-case bound 94"
        )

    def test_usage_error(self, capsys):
        assert run_cli(["construct", "--type", "2,2,2"], capsys)[0] == 1

    def test_mixed_type_pipeline(self, capsys, tmp_path):
        out = tmp_path / "mixed.gens"
        code, stdout, _ = run_cli(
            ["construct", "--type", "3,4", "--n", "31", "--out", str(out)], capsys
        )
        assert code == 0
        assert "size=6" in stdout
        assert "construction degree 26 (p=5, m=1)" in stdout
        code, stdout, _ = run_cli(["verify", str(out)], capsys)
        assert code == 0
        assert "generates=symmetric" in stdout
        assert "semi_connected=yes" in stdout


class TestVerify:
    def test_happy_path(self, capsys, tmp_path):
        gens = tmp_path / "set.gens"
        run_cli(["construct", "--type", "2,2,2", "--n", "22", "--out", str(gens)], capsys)
        code, stdout, _ = run_cli(["verify", str(gens), "--balance"], capsys)
        assert code == 0
        assert "generates=symmetric" in stdout
        assert "order=1124000727777607680000" in stdout
        assert "split=yes" in stdout
        assert "balanced=yes" in stdout

    def test_out_of_memory_is_an_error_line(self, capsys, tmp_path, monkeypatch):
        gens = tmp_path / "set.gens"
        run_cli(["construct", "--type", "2,2,2", "--n", "22", "--out", str(gens)], capsys)

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "build_chain", exhausted)
        code, stdout, stderr = run_cli(["verify", str(gens)], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr == "error: out of memory in verify\n"

    def test_a_failure_prints_no_report_line(self, capsys, tmp_path):
        gens = tmp_path / "one.gens"
        gens.write_text("n=1 type=2\n")
        code, stdout, stderr = run_cli(["verify", str(gens)], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr == "error: n must be >= 2\n"

    def test_empty_set_has_order_one(self, capsys, tmp_path):
        gens = tmp_path / "empty.gens"
        gens.write_text("n=3 type=2\n")
        code, stdout, _ = run_cli(["verify", str(gens)], capsys)
        assert code == 0
        assert "order=1" in stdout

    def test_mixed_type_file_fails_verification(self, capsys, tmp_path):
        gens = tmp_path / "broken.gens"
        gens.write_text("n=4 type=2\n(1 2)\n(1 2 3)\n")
        code, _, stderr = run_cli(["verify", str(gens)], capsys)
        assert code == 2
        assert "cycle type" in stderr

    def test_verify_builds_one_chain(self, capsys, tmp_path, monkeypatch):
        from cayleykit import cli, groups

        degrees = []
        real = groups.build_chain

        def counting(gens, n):
            degrees.append(n)
            return real(gens, n)

        monkeypatch.setattr(cli, "build_chain", counting)
        monkeypatch.setattr(groups, "build_chain", counting)
        gens = tmp_path / "set.gens"
        run_cli(["construct", "--type", "4", "--n", "22", "--out", str(gens)], capsys)
        code, stdout, _ = run_cli(["verify", str(gens)], capsys)
        assert code == 0 and "generates=symmetric" in stdout
        assert degrees == [22]

    @pytest.mark.parametrize("ctype, n", [
        pytest.param("2,2,2,2,2", 56, id="2,2,2,2,2@56"),
        pytest.param("2,2,2", 120, id="2,2,2@120"),
        pytest.param("2", 200, id="2@200"),
    ])
    def test_order_is_n_factorial_at_scale(self, ctype, n, capsys, tmp_path):
        gens = tmp_path / "set.gens"
        code, _, _ = run_cli(
            ["construct", "--type", ctype, "--n", str(n), "--out", str(gens)], capsys
        )
        assert code == 0
        code, stdout, _ = run_cli(["verify", str(gens)], capsys)
        assert code == 0
        assert f"order={math.factorial(n)}\n" in stdout
        assert "generates=symmetric\n" in stdout

    def test_balance_past_32_cycles(self, capsys, tmp_path):
        gens = tmp_path / "b3_40.gens"
        run_cli(["construct", "--type", "2,2,2", "--n", "40", "--out", str(gens)], capsys)
        assert sum(text.count("(") for text in gens.read_text().splitlines()[1:]) == 39
        code, stdout, _ = run_cli(["verify", str(gens), "--balance"], capsys)
        assert code == 0
        assert "balanced=yes\nbalance_class_sizes=2,2,2\n" in stdout

    def test_balance_budget_exceeded_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        from cayleykit import gensets

        gens = tmp_path / "b3.gens"
        run_cli(["construct", "--type", "2,2,2", "--n", "22", "--out", str(gens)], capsys)
        monkeypatch.setattr(gensets, "_BALANCE_NODE_BUDGET", 1)
        code, _, stderr = run_cli(["verify", str(gens), "--balance"], capsys)
        assert code == 1
        assert stderr.startswith("error: ") and "balance search exceeded 1 nodes" in stderr
        assert "Traceback" not in stderr

    def test_missing_file(self, capsys):
        assert run_cli(["verify", "/nonexistent/x.gens"], capsys)[0] == 1


class TestGraphCommands:
    def test_cayley_export_and_spectrum(self, capsys, tmp_path):
        gens = tmp_path / "path.gens"
        gens.write_text("n=4 type=2\n(1 2)\n(2 3)\n(3 4)\n")
        graph_file = tmp_path / "g.el"
        code, stdout, _ = run_cli(
            ["cayley", "--set", str(gens), "--out", str(graph_file)], capsys
        )
        assert code == 0 and "vertices=24" in stdout
        code, stdout, _ = run_cli(
            ["spectrum", "--graph", str(graph_file), "--kind", "adjacency", "--top", "2"],
            capsys,
        )
        assert code == 0
        assert "# seed=0" in stdout
        assert "adjacency,1,3" in stdout

    def test_dot_export(self, capsys, tmp_path):
        gens = tmp_path / "tiny.gens"
        gens.write_text("n=2 type=2\n(1 2)\n")
        out = tmp_path / "g.dot"
        code, _, _ = run_cli(
            ["cayley", "--set", str(gens), "--format", "dot", "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_text().startswith("graph G {")

    def test_aut_identity_report(self, capsys, tmp_path):
        gens = tmp_path / "path5.gens"
        gens.write_text("n=5 type=2\n(1 2)\n(2 3)\n(3 4)\n(4 5)\n")
        code, stdout, _ = run_cli(["aut", "--set", str(gens)], capsys)
        assert code == 0
        assert "graph_aut_order=240" in stdout
        assert "identity_holds=yes" in stdout

    def test_aut_identity_report_on_the_s6_path(self, capsys, tmp_path):
        gens = tmp_path / "path6.gens"
        gens.write_text("n=6 type=2\n" + "".join(f"({i} {i + 1})\n" for i in range(1, 6)))
        code, stdout, _ = run_cli(["aut", "--set", str(gens)], capsys)
        assert code == 0
        assert stdout.endswith("caveat=outer automorphisms of S_6 not searched\n")
        code, stdout, _ = run_cli(["aut", "--set", str(gens), "--format", "csv"], capsys)
        assert code == 0
        assert stdout.splitlines()[1] == "6,5,1,1440,2,720,1,2,1"

    def test_aut_report_of_a_set_of_two_cycle_products(self, capsys, tmp_path):
        gens = tmp_path / "mixed5.gens"
        gens.write_text("n=5 type=2,3\n(1 2)(3 4 5)\n(1 3)(2 4 5)\n")
        code, stdout, _ = run_cli(["aut", "--set", str(gens)], capsys)
        assert code == 0
        lines = stdout.splitlines()
        assert "normal=no" in lines
        assert "normal_note=elements are not single cycles" in lines
        assert "graph_aut_order=480" in lines
        assert "aut_snt_order=4" in lines
        assert "cyc_aut_order=n/a" in lines

    def test_mixed_five_point_set_by_brute_force(self):
        # S_5 has only inner automorphisms: Aut(S_5, T) is the set of
        # conjugations by elements of S_5 that map S = T u T^-1 onto itself
        from itertools import permutations

        def compose(a, b):  # apply a, then b
            return tuple(b[a[x]] for x in range(5))

        def inverse(a):
            out = [0] * 5
            for x, y in enumerate(a):
                out[y] = x
            return tuple(out)

        T = {(1, 0, 3, 4, 2), (2, 3, 0, 4, 1)}  # (1 2)(3 4 5), (1 3)(2 4 5), 0-based
        S = T | {inverse(t) for t in T}
        assert sum(
            {compose(compose(inverse(s), t), s) for t in S} == S for s in permutations(range(5))
        ) == 4
        # a Cayley graph is vertex-transitive: |Aut| = 120 * |stabilizer of e|
        nx = pytest.importorskip("networkx")
        graph = nx.Graph()
        for g in permutations(range(5)):
            for t in T:
                graph.add_edge(g, compose(t, g))
        identity = tuple(range(5))
        nx.set_node_attributes(graph, {g: g == identity for g in graph}, "root")
        stabilizer = sum(1 for _ in nx.vf2pp_all_isomorphisms(graph, graph, node_label="root"))
        assert 120 * stabilizer == 480

    def test_aut_on_plain_graph(self, capsys, tmp_path):
        graph_file = tmp_path / "c6.el"
        graph_file.write_text(export_edge_list(cycle_graph(6)))
        code, stdout, _ = run_cli(["aut", "--graph", str(graph_file)], capsys)
        assert code == 0
        assert "aut_order=12" in stdout
        assert "elapsed" not in stdout

    def test_aut_timing_is_opt_in(self, capsys, tmp_path):
        graph_file = tmp_path / "c6.el"
        graph_file.write_text(export_edge_list(cycle_graph(6)))
        code, stdout, _ = run_cli(["aut", "--graph", str(graph_file), "--timing"], capsys)
        assert code == 0
        assert "elapsed_seconds=" in stdout

    def test_aut_budget_exceeded_is_a_usage_error(self, capsys, tmp_path):
        graph_file = tmp_path / "c6.el"
        graph_file.write_text(export_edge_list(cycle_graph(6)))
        code, _, stderr = run_cli(
            ["aut", "--graph", str(graph_file), "--budget", "2"], capsys
        )
        assert code == 1
        assert "budget" in stderr

    def test_aut_search_node_budget_is_an_error_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(automorphisms, "_SEARCH_NODE_BUDGET", 3)
        graph_file = tmp_path / "pet.el"
        graph_file.write_text(export_edge_list(petersen_graph()))
        code, stdout, stderr = run_cli(["aut", "--graph", str(graph_file)], capsys)
        assert (code, stdout) == (1, "")
        assert stderr == "error: automorphism search exceeded 3 nodes\n"

    def test_aut_graph_out_file(self, capsys, tmp_path):
        graph_file = tmp_path / "c6.el"
        graph_file.write_text(export_edge_list(cycle_graph(6)))
        out = tmp_path / "c6.aut"
        code, stdout, _ = run_cli(["aut", "--graph", str(graph_file), "--out", str(out)], capsys)
        assert (code, stdout) == (0, "")
        assert out.read_text() == run_cli(["aut", "--graph", str(graph_file)], capsys)[1]
        assert out.read_text().startswith("vertices=6\naut_order=12\n")

    def test_cayley_cap_exceeded(self, capsys, tmp_path):
        gens = tmp_path / "path.gens"
        gens.write_text("n=4 type=2\n(1 2)\n(2 3)\n(3 4)\n")
        code, _, stderr = run_cli(
            ["cayley", "--set", str(gens), "--cap", "5"], capsys
        )
        assert code == 1
        assert "cap" in stderr

    def test_spectrum_missing_graph_file(self, capsys):
        code, _, stderr = run_cli(["spectrum", "--graph", "/no/such.el"], capsys)
        assert code == 1

    def test_spectrum_star_with_an_isolated_last_vertex(self, capsys, tmp_path):
        # vertex 1001 has no neighbors, so no neighbor sum may start there
        graph_file = tmp_path / "star.el"
        graph_file.write_text("vertices=1002\n" + "".join(f"0 {i}\n" for i in range(1, 1001)))
        code, stdout, _ = run_cli(
            ["spectrum", "--graph", str(graph_file), "--kind", "laplacian"], capsys
        )
        assert code == 0
        assert "\nlaplacian,1,1001,1," in stdout
        assert "\nlaplacian,2,1,1," in stdout

    def test_spectrum_rejects_a_bad_tolerance_before_solving(self, capsys, tmp_path, monkeypatch):
        # S_4 and S_7 path Cayley graphs; the solver is patched to raise, so
        # exit 1 shows the tolerance was refused before any iteration
        from cayleykit import spectral

        graphs = []
        for n in (4, 7):
            gens = tmp_path / f"path{n}.gens"
            gens.write_text(f"n={n} type=2\n" + "".join(f"({i} {i + 1})\n" for i in range(1, n)))
            graphs.append(tmp_path / f"path{n}.el")
            assert run_cli(["cayley", "--set", str(gens), "--out", str(graphs[-1])], capsys)[0] == 0

        def no_solver(*args):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(spectral, "_SparseOperator", no_solver)
        for graph_file in graphs:
            for tol in ("0", "-1e-8", "nan", "inf"):
                code, stdout, stderr = run_cli(
                    ["spectrum", "--graph", str(graph_file), f"--tol={tol}"], capsys
                )
                assert code == 1
                assert "tol must be positive and finite" in stderr

    def test_spectrum_failure_prints_no_header(self, capsys, tmp_path, monkeypatch):
        from cayleykit import spectral

        graph_file = tmp_path / "p200.el"
        graph_file.write_text(export_edge_list(path_graph(200)))
        monkeypatch.setattr(spectral, "_MAX_ITERATIONS", 1)
        code, stdout, stderr = run_cli(["spectrum", "--graph", str(graph_file)], capsys)
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: block iteration stalled at residual")

    def test_spectrum_out_file_keeps_the_seed_header(self, capsys, tmp_path):
        graph_file = tmp_path / "pet.el"
        graph_file.write_text(export_edge_list(petersen_graph()))
        out = tmp_path / "pet.csv"
        argv = ["spectrum", "--graph", str(graph_file)]
        code, stdout, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert (code, stdout) == (0, "")
        assert out.read_text().startswith("# seed=0\nkind,rank,")
        assert out.read_text() == run_cli(argv, capsys)[1]

    def test_qh_hamiltonian_check(self, capsys, tmp_path):
        graph_file = tmp_path / "pet.el"
        graph_file.write_text(export_edge_list(petersen_graph()))
        code, stdout, _ = run_cli(
            ["qh", "--graph", str(graph_file), "--check-hamiltonian"], capsys
        )
        assert code == 0
        assert "non-hamiltonian (matches oracle)" in stdout

    def test_qh_hamiltonian_check_out_file(self, capsys, tmp_path):
        graph_file = tmp_path / "c5.el"
        graph_file.write_text(export_edge_list(cycle_graph(5)))
        out = tmp_path / "c5.qh"
        argv = ["qh", "--graph", str(graph_file), "--check-hamiltonian"]
        code, stdout, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert (code, stdout) == (0, "")
        assert out.read_text() == "hamiltonian (matches oracle)\n" == run_cli(argv, capsys)[1]

    def test_qh_report_csv(self, capsys, tmp_path):
        graph_file = tmp_path / "c5.el"
        graph_file.write_text(export_edge_list(cycle_graph(5)))
        code, stdout, _ = run_cli(["qh", "--graph", str(graph_file), "--k", "2"], capsys)
        assert code == 0
        assert stdout.splitlines()[0] == "k,edges,connected"
        assert "1,5,yes" in stdout

    def test_qh_check_past_the_oracle_guard(self, capsys, tmp_path, monkeypatch):
        def oracle(graph):
            raise AssertionError("the brute oracle ran past its guard")

        monkeypatch.setattr(quasiham, "brute_hamiltonian", oracle)
        c13 = tmp_path / "c13.el"
        c13.write_text(export_edge_list(cycle_graph(13)))
        star = tmp_path / "s4star.gens"
        star.write_text("n=4 type=2\n(1 2)\n(1 3)\n(1 4)\n")
        s4star = tmp_path / "s4star.el"
        code, stdout, _ = run_cli(["cayley", "--set", str(star), "--out", str(s4star)], capsys)
        assert code == 0 and stdout == "vertices=24 edges=36\n"
        for graph_file in (c13, s4star):
            code, stdout, stderr = run_cli(
                ["qh", "--graph", str(graph_file), "--check-hamiltonian"], capsys
            )
            assert code == 0
            assert stdout == "hamiltonian (oracle skipped above 12 vertices)\n"
            assert stderr == ""

    def test_qh_check_past_the_guard_reports_non_hamiltonian(self, capsys, tmp_path,
                                                             monkeypatch):
        # Petersen with one edge subdivided by three new vertices: 13 vertices,
        # Hamiltonian only if Petersen had a Hamiltonian cycle through that edge.
        (a, b), *rest = petersen_graph().edges
        path = [a, 10, 11, 12, b]
        graph_file = tmp_path / "petersen13.el"
        graph_file.write_text(export_edge_list(SimpleGraph(13, rest + list(zip(path, path[1:])))))
        argv = ["qh", "--graph", str(graph_file), "--check-hamiltonian"]
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0
        assert stdout == "non-hamiltonian (oracle skipped above 12 vertices)\n"
        monkeypatch.setattr(quasiham, "_QH_FORCING_BUDGET", 1)
        code, stdout, stderr = run_cli(argv, capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and "hierarchy exceeded 1 forcings" in stderr
        assert "Traceback" not in stderr

    def test_qh_negative_level_is_a_usage_error(self, capsys, tmp_path):
        graph_file = tmp_path / "c5.el"
        graph_file.write_text(export_edge_list(cycle_graph(5)))
        code, stdout, stderr = run_cli(["qh", "--graph", str(graph_file), "--k", "-2"], capsys)
        assert code == 1
        assert stdout == ""
        assert "--k" in stderr
        code, stdout, _ = run_cli(["qh", "--graph", str(graph_file), "--k", "0"], capsys)
        assert code == 0
        assert stdout == "k,edges,connected\n1,5,yes\n2,5,yes\n3,5,yes\n"

    def test_qh_budget_exceeded_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        graph_file = tmp_path / "pet.el"
        graph_file.write_text(export_edge_list(petersen_graph()))
        monkeypatch.setattr(quasiham, "_QH_FORCING_BUDGET", 1)
        code, stdout, stderr = run_cli(["qh", "--graph", str(graph_file), "--k", "4"], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and "hierarchy exceeded 1 forcings" in stderr
        assert "Traceback" not in stderr


class TestPrime:
    def test_known_value(self, capsys):
        code, stdout, _ = run_cli(["prime", "--m", "4"], capsys)
        assert code == 0
        assert stdout.strip() == "p=17 Phi=17"

    def test_composite_cyclotomic_value(self, capsys):
        # Phi_11(11) = 28531167061 = 15797 * 1806113, both = 1 (mod 11)
        code, stdout, _ = run_cli(["prime", "--m", "11"], capsys)
        assert code == 0
        assert stdout.strip() == "p=15797 Phi=28531167061"


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        script = (
            "import sys; from cayleykit.cli import main; "
            "sys.exit(main(sys.argv[1:]))"
        )
        for args in (
            ["construct", "--type", "2,2,2", "--n", "24"],
            ["prime", "--m", "6"],
        ):
            runs = [
                subprocess.run(
                    [sys.executable, "-c", script, *args],
                    capture_output=True,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout

    def test_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "cayleykit", "--help"], capture_output=True
        )
        assert result.returncode == 0

    def test_every_subcommand_has_help(self):
        for command in ("construct", "verify", "cayley", "aut", "qh", "spectrum", "prime"):
            result = subprocess.run(
                [sys.executable, "-m", "cayleykit", command, "--help"],
                capture_output=True,
            )
            assert result.returncode == 0, command
            assert result.stdout


class TestParserReuse:
    """``main`` builds its parser once per process; each call still behaves
    as a call through a freshly built parser."""

    def test_reused_parser_answers_as_a_fresh_one(self, capsys, tmp_path):
        graph_file = tmp_path / "c5.el"
        graph_file.write_text(export_edge_list(cycle_graph(5)))
        runs = [
            ["qh", "--graph", str(graph_file), "--check-hamiltonian"],
            ["qh"],
            ["construct", "--help"],
            ["no-such-command"],
            ["qh", "--graph", str(graph_file), "--check-hamiltonian"],
        ]
        fresh = []
        for argv in runs:
            cli.make_parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        cli.make_parser.cache_clear()
        reused = [run_cli(argv, capsys) for argv in runs]
        assert cli.make_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 0, 1, 0]
        assert reused[0][1] == "hamiltonian (matches oracle)\n"
        assert reused[1][1] == "" and reused[1][2].startswith("usage: cayleykit qh")
        assert reused[2][1].startswith("usage: cayleykit construct")
        assert reused[3][2].startswith("usage: cayleykit")

    def test_import_builds_no_parser(self):
        script = "import cayleykit.cli as cli; print(cli.make_parser.cache_info().currsize)"
        assert run_fresh(script) == "0\n"


class TestColdStart:
    """numpy loads only for the subcommands that use it; each check starts a
    fresh interpreter, as a CLI run does."""

    def test_numpy_loads_only_for_spectrum(self, tmp_path):
        gens = tmp_path / "b3.gens"
        path4 = tmp_path / "path4.gens"
        path4.write_text("n=4 type=2\n(1 2)\n(2 3)\n(3 4)\n")
        ring = tmp_path / "c6.txt"
        ring.write_text(export_edge_list(cycle_graph(6)))
        runs = [
            ["construct", "--type", "2,2,2", "--n", "22", "--out", str(gens)],
            ["verify", str(gens)],
            ["prime", "--m", "6"],
            ["cayley", "--set", str(path4), "--out", str(tmp_path / "path4.txt")],
            ["qh", "--graph", str(ring)],
            ["spectrum", "--graph", str(ring)],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from cayleykit.cli import main\n"
            "loaded = [[None, 'numpy' in sys.modules]]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    loaded.append([code, 'numpy' in sys.modules])\n"
            "print(json.dumps(loaded))\n"
        )
        loaded = json.loads(run_fresh(script, json.dumps(runs)))
        assert loaded == [[None, False]] + [[0, False]] * 5 + [[0, True]]

    def test_cli_import_loads_every_module_the_tracer_patches(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        tracing = importlib.import_module("tracing")
        patched = {f"cayleykit.{entry[0]}" for entry in tracing.SPANS + tracing.COUNTED}
        script = "import json, sys, cayleykit.cli; print(json.dumps(sorted(sys.modules)))"
        assert patched <= set(json.loads(run_fresh(script)))

    def test_numpy_users_import_from_the_package(self):
        script = (
            "import sys\n"
            "from cayleykit import cycle_graph, graph_aut_order, spectrum_topk, verify_order_identity\n"
            "assert 'numpy' not in sys.modules\n"
            "ring = cycle_graph(5)\n"
            "print(graph_aut_order(ring)[0], round(spectrum_topk(ring).eigenvalues[0], 9))\n"
        )
        assert run_fresh(script) == "10 2.0\n"
