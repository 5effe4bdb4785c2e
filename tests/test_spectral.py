import math
import random

import numpy as np
import pytest

from cayleykit.errors import ConvergenceError
from cayleykit.gensets import GeneratorSet
from cayleykit.graphs import SimpleGraph, complete_graph, cycle_graph, petersen_graph
from cayleykit.perms import CycleType, Permutation
from cayleykit.cayley import build_cayley
from cayleykit.spectral import (
    check_regular_spectrum,
    jacobi_eigensystem,
    second_eigenvalue_comparison,
    spectrum_topk,
)

from samplers import random_connected_graph


def adjacency_matrix(graph):
    """The dense adjacency matrix (oracle input for numpy.linalg)."""
    n = graph.vertex_count
    M = np.zeros((n, n))
    for u, v in graph.edges:
        M[u, v] = M[v, u] = 1.0
    return M


def laplacian_matrix(graph):
    A = adjacency_matrix(graph)
    return np.diag(A.sum(axis=1)) - A


def closed_form_c6():
    return sorted((2 * math.cos(2 * math.pi * j / 6) for j in range(6)), reverse=True)


def transposition_cayley(n, pairs):
    texts = [f"({a} {b})" for a, b in pairs]
    T = GeneratorSet(n, [Permutation.from_text(t, n) for t in texts], CycleType([2]))
    return build_cayley(T, cap=6000)


def path_cayley(n):
    return transposition_cayley(n, [(i, i + 1) for i in range(1, n)])


def star_cayley(n):
    return transposition_cayley(n, [(1, i) for i in range(2, n + 1)])


def eigvalsh_top(g, kind, k):
    matrix = adjacency_matrix(g) if kind == "adjacency" else laplacian_matrix(g)
    return np.sort(np.linalg.eigvalsh(matrix))[::-1][:k]


def assert_matches_eigvalsh(g, kind, k, tol=1e-8):
    report = spectrum_topk(g, kind, k=k, tol=tol)
    expected = eigvalsh_top(g, kind, k)
    assert len(report.eigenvalues) == len(expected)
    assert np.abs(np.array(report.eigenvalues) - expected).max() < 1e-8
    assert all(residual <= tol for _, _, residual in report.entries)
    return report


class TestDenseSolver:
    """Small graphs, where the block spans the whole space, and the small
    symmetric solve that does the block's Rayleigh-Ritz step."""

    def test_c6_adjacency_full_spectrum(self):
        report = spectrum_topk(cycle_graph(6), "adjacency", k=6)
        expected = closed_form_c6()
        assert report.eigenvalues == pytest.approx(expected, abs=1e-8)
        assert [m for _, m, _ in report.entries] == [1, 2, 2, 1]

    def test_c6_laplacian_top(self):
        report = spectrum_topk(cycle_graph(6), "laplacian", k=1)
        assert report.entries[0][0] == pytest.approx(4.0, abs=1e-8)

    def test_against_library_oracle_on_random_graphs(self):
        rng = random.Random(33)
        for _ in range(25):
            g = random_connected_graph(rng, 3, 9)
            for kind, matrix in (
                ("adjacency", adjacency_matrix(g)),
                ("laplacian", laplacian_matrix(g)),
            ):
                mine, vectors = jacobi_eigensystem(matrix)
                oracle = np.sort(np.linalg.eigvalsh(matrix))[::-1]
                assert np.abs(mine - oracle).max() < 1e-9
                # residual certificates
                for idx in range(len(mine)):
                    v = vectors[:, idx]
                    assert np.linalg.norm(matrix @ v - mine[idx] * v) < 1e-8

    def test_laplacian_positive_semidefinite(self):
        rng = random.Random(34)
        for _ in range(20):
            g = random_connected_graph(rng, 3, 8)
            report = spectrum_topk(g, "laplacian", k=g.vertex_count)
            assert all(value >= -1e-8 for value in report.eigenvalues)
            max_degree = max(len(nbrs) for nbrs in g.adjacency)
            assert report.eigenvalues[0] <= 2 * max_degree + 1e-8


class TestIterativeSolver:
    def big_graph(self):
        texts = ["(1 2 3 4)", "(4 5 6 7)"]
        T = GeneratorSet(7, [Permutation.from_text(t, 7) for t in texts], CycleType([4]))
        return build_cayley(T, cap=6000).to_simple_graph()

    def test_regular_adjacency_top_is_the_degree(self):
        g = self.big_graph()
        report = spectrum_topk(g, "adjacency", k=2, tol=1e-8)
        assert report.method == "iterative"
        assert report.entries[0][0] == pytest.approx(4.0, abs=1e-8)

    def test_second_eigenvalue_certified(self):
        # the k=4 cycle pair: lambda_2 = 1 + sqrt(7), and 5 + sqrt(7) for
        # the Laplacian of this bipartite 4-regular graph
        g = self.big_graph()
        report = spectrum_topk(g, "adjacency", k=2, tol=1e-8)
        assert report.eigenvalues[1] == pytest.approx(1 + math.sqrt(7), abs=1e-8)
        assert report.entries[-1][2] <= 1e-8  # residual certificate
        laplacian = spectrum_topk(g, "laplacian", k=2, tol=1e-8)
        assert laplacian.eigenvalues == pytest.approx([8.0, 5 + math.sqrt(7)], abs=1e-8)

    def test_matches_eigvalsh_on_path_cayley_graphs(self):
        # 120 and 720 vertices; lambda_2 has multiplicity n - 1
        for n in (5, 6):
            g = path_cayley(n)
            for kind in ("adjacency", "laplacian"):
                for k in (2, 8):
                    assert_matches_eigvalsh(g, kind, k)

    def test_irregular_graph_matches_eigvalsh(self):
        # a 1001-vertex path with a chord: irregular, and its eigenvalues
        # below the top lie about 3e-5 apart, so k = 3 also checks that
        # close distinct eigenvalues are not grouped into one entry
        g = SimpleGraph(1001, [(i, i + 1) for i in range(1000)] + [(0, 2)])
        for kind in ("adjacency", "laplacian"):
            for k in (2, 3):
                assert_matches_eigvalsh(g, kind, k)

    def test_k_above_n_returns_every_eigenvalue(self):
        for g in (petersen_graph(), cycle_graph(13)):
            for kind in ("adjacency", "laplacian"):
                report = assert_matches_eigvalsh(g, kind, g.vertex_count + 5)
                assert len(report.eigenvalues) == g.vertex_count

    def test_iterative_laplacian_on_big_star(self):
        g = SimpleGraph(1001, [(0, i) for i in range(1, 1001)])
        report = spectrum_topk(g, "laplacian", k=1, tol=1e-8)
        assert report.method == "iterative"
        assert report.entries[0][0] == pytest.approx(1001.0, abs=1e-6)

    def test_star_with_an_isolated_last_vertex(self):
        g = SimpleGraph(1002, [(0, i) for i in range(1, 1001)])
        for kind in ("adjacency", "laplacian"):
            assert_matches_eigvalsh(g, kind, 3)

    def test_rejects_a_tolerance_that_is_not_positive_and_finite(self):
        for tol in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError):
                spectrum_topk(cycle_graph(6), "adjacency", k=2, tol=tol)


class TestClosedForms:
    """Caputo, Liggett and Richthammer (JAMS 2010): the Laplacian gap of
    Cay(S_n, T) for a transposition tree T is the algebraic connectivity
    of T.  These graphs are bipartite and (n-1)-regular, so the Laplacian
    top is 2(n-1) and the adjacency spectrum is symmetric."""

    def test_s7_path_laplacian_gap(self):
        report = spectrum_topk(path_cayley(7), "laplacian", k=2)
        expected = [12.0, 12.0 - (2 - 2 * math.cos(math.pi / 7))]
        assert report.eigenvalues == pytest.approx(expected, abs=1e-8)

    def test_s7_star_cluster_wider_than_the_block(self, monkeypatch):
        # lambda_2 = 5 has multiplicity 30, more than either block holds; a
        # filter cut at the last Ritz value, inside the cluster, needs
        # hundreds of iterations here instead of a handful
        from cayleykit import spectral

        monkeypatch.setattr(spectral, "_MAX_ITERATIONS", 30)
        g = star_cayley(7)
        for k in (2, 8):
            report = spectrum_topk(g, "adjacency", k=k)
            assert [(round(v, 8), m) for v, m, _ in report.entries] == [(6.0, 1), (5.0, k - 1)]
            assert all(residual <= 1e-8 for _, _, residual in report.entries)
            # the 12-digit column prints the Rayleigh quotients exactly
            rows = report.to_csv().splitlines()[1:]
            assert [row.split(",")[2] for row in rows] == ["6", "5"]


def pair7_cayley():
    texts = ["(1 2 3 4)", "(4 5 6 7)"]
    T = GeneratorSet(7, [Permutation.from_text(t, 7) for t in texts], CycleType([4]))
    return build_cayley(T, cap=6000)


BENCHMARK_GRAPHS = {
    "path4": lambda: path_cayley(4),
    "star4": lambda: star_cayley(4),
    "path7": lambda: path_cayley(7),
    "star7": lambda: star_cayley(7),
    "pair7": pair7_cayley,
}


class TestBenchmarkGraphs:
    """The unrelabelled graphs of the benchmark's spectrum jobs at the CLI's
    k = 2: the eigenvalue and multiplicity columns as printed."""

    @pytest.mark.parametrize("name, kind, printed", [
        ("path4", "adjacency", ["3", "2.41421356237"]),
        ("path4", "laplacian", ["6", "5.41421356237"]),
        ("star4", "adjacency", ["3", "2"]),
        ("star4", "laplacian", ["6", "5"]),
        ("path7", "adjacency", ["6", "5.8019377358"]),
        ("star7", "laplacian", ["12", "11"]),
        ("pair7", "adjacency", ["4", "3.64575131106"]),
        ("pair7", "laplacian", ["8", "7.64575131106"]),
    ])
    def test_printed_columns(self, name, kind, printed):
        tol = 1e-8
        report = spectrum_topk(BENCHMARK_GRAPHS[name](), kind, k=2, tol=tol)
        rows = [row.split(",") for row in report.to_csv().splitlines()[1:]]
        assert [row[2:4] for row in rows] == [[value, "1"] for value in printed]
        assert all(residual <= tol for _, _, residual in report.entries)

    def test_every_rayleigh_ritz_step_solves_through_the_module_name(self, monkeypatch):
        # perfbench/tracing.py times the Ritz step by wrapping this attribute
        from cayleykit import spectral

        calls, ritz_steps = [], []
        solve, ritz = spectral.jacobi_eigensystem, spectral._rayleigh_ritz

        def spy_solve(M):
            calls.append(M.shape)
            return solve(M)

        def spy_ritz(op, X):
            ritz_steps.append(X.shape[1])
            return ritz(op, X)

        monkeypatch.setattr(spectral, "jacobi_eigensystem", spy_solve)
        monkeypatch.setattr(spectral, "_rayleigh_ritz", spy_ritz)
        spectrum_topk(path_cayley(4), "adjacency", k=2)
        assert ritz_steps and calls == [(b, b) for b in ritz_steps]


class TestRegularHarness:
    def test_known_regular_graphs(self):
        assert check_regular_spectrum(cycle_graph(6))["lambda1"] == pytest.approx(2.0)
        assert check_regular_spectrum(complete_graph(4))["lambda1"] == pytest.approx(3.0)
        assert check_regular_spectrum(petersen_graph())["lambda1"] == pytest.approx(3.0)

    def test_irregular_rejected(self):
        with pytest.raises(ValueError):
            check_regular_spectrum(SimpleGraph(3, [(0, 1)]))

    def test_comparison_report_for_the_pair_graph(self):
        texts = ["(1 2 3 4)", "(4 5 6 7)"]
        T = GeneratorSet(7, [Permutation.from_text(t, 7) for t in texts], CycleType([4]))
        g = build_cayley(T, cap=6000).to_simple_graph()
        comparison = second_eigenvalue_comparison(g, 4)
        # reproduction target, reported not asserted; on this graph the
        # computed value does land on 1 + sqrt(7)
        assert comparison["candidate"] == pytest.approx(1 + math.sqrt(7))
        assert comparison["gap"] < 1e-6

    def test_comparison_report_for_the_transposition_pair(self):
        texts = ["(1 2)", "(2 3)"]
        T = GeneratorSet(3, [Permutation.from_text(t, 3) for t in texts], CycleType([2]))
        g = build_cayley(T).to_simple_graph()
        comparison = second_eigenvalue_comparison(g, 2)
        # the claimed closed form exceeds the top eigenvalue here, so the
        # gap is archived as data
        assert comparison["lambda2"] == pytest.approx(1.0, abs=1e-8)
        assert comparison["gap"] == pytest.approx(math.sqrt(3), abs=1e-6)


def test_csv_report_shape():
    report = spectrum_topk(cycle_graph(6), "adjacency", k=6)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "kind,rank,eigenvalue,multiplicity,residual"
    assert len(lines) == 1 + len(report.entries)
