import math
import subprocess
import sys

import pytest

from cayleykit import quasiham
from cayleykit.cli import main
from cayleykit.graphs import export_edge_list, petersen_graph, cycle_graph


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_basic_tree_k5_on_56_points(self, capsys, tmp_path):
        gens = tmp_path / "basic5.gens"
        code, _, _ = run_cli(
            ["construct", "--type", "2,2,2,2,2", "--n", "56", "--out", str(gens)], capsys
        )
        assert code == 0
        code, stdout, _ = run_cli(["verify", str(gens)], capsys)
        assert code == 0
        assert f"order={math.factorial(56)}\n" in stdout
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

    def test_qh_hamiltonian_check(self, capsys, tmp_path):
        graph_file = tmp_path / "pet.el"
        graph_file.write_text(export_edge_list(petersen_graph()))
        code, stdout, _ = run_cli(
            ["qh", "--graph", str(graph_file), "--check-hamiltonian"], capsys
        )
        assert code == 0
        assert "non-hamiltonian (matches oracle)" in stdout

    def test_qh_report_csv(self, capsys, tmp_path):
        graph_file = tmp_path / "c5.el"
        graph_file.write_text(export_edge_list(cycle_graph(5)))
        code, stdout, _ = run_cli(["qh", "--graph", str(graph_file), "--k", "2"], capsys)
        assert code == 0
        assert stdout.splitlines()[0] == "k,edges,connected"
        assert "1,5,yes" in stdout

    def test_qh_oracle_guard_fails_before_the_hierarchy(self, capsys, tmp_path, monkeypatch):
        def hierarchy(graph):
            raise AssertionError("the hierarchy ran before the oracle guard")

        monkeypatch.setattr(quasiham, "hamiltonian_via_qh", hierarchy)
        graph_file = tmp_path / "c13.el"
        graph_file.write_text(export_edge_list(cycle_graph(13)))
        code, stdout, stderr = run_cli(
            ["qh", "--graph", str(graph_file), "--check-hamiltonian"], capsys
        )
        assert code == 1
        assert stdout == ""
        assert "oracle guarded to 12 vertices" in stderr

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
