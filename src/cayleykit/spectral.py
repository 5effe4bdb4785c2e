"""Adjacency and Laplacian spectra of desk-scale graphs.

Two in-repo solvers: a cyclic Jacobi rotation method for dense symmetric
matrices (graphs up to 1000 vertices) and power iteration with deflation for
larger adjacency/Laplacian matrices.  Iteration order is fixed and start
vectors come from a seeded generator, so results are reproducible; every
reported eigenvalue carries a residual certificate ||Mv - lambda v|| <=
tol * ||v||.  numpy supplies array storage and arithmetic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError

_DENSE_LIMIT = 1000
_MAX_ITERATIONS = 100_000


def adjacency_matrix(graph) -> np.ndarray:
    n = graph.vertex_count
    M = np.zeros((n, n))
    for u, v in graph.edges:
        M[u, v] = M[v, u] = 1.0
    return M


def laplacian_matrix(graph) -> np.ndarray:
    A = adjacency_matrix(graph)
    return np.diag(A.sum(axis=1)) - A


@dataclass(frozen=True)
class SpectrumReport:
    """Top eigenvalues with multiplicities and residual certificates."""

    kind: str                 # "adjacency" | "laplacian"
    method: str               # "dense" | "iterative"
    tolerance: float
    entries: tuple            # (eigenvalue, multiplicity, max residual) descending

    @property
    def eigenvalues(self) -> list:
        out = []
        for value, mult, _ in self.entries:
            out.extend([value] * mult)
        return out

    def to_csv(self) -> str:
        lines = ["kind,rank,eigenvalue,multiplicity,residual"]
        for rank, (value, mult, residual) in enumerate(self.entries, start=1):
            lines.append(
                f"{self.kind},{rank},{value:.12g},{mult},{residual:.3g}"
            )
        return "\n".join(lines) + "\n"


def jacobi_eigensystem(M: np.ndarray, tol: float = 1e-10) -> tuple:
    """All eigenvalues and vectors of a symmetric matrix by cyclic Jacobi.

    Sweeps rotate away off-diagonal entries in fixed row order until the
    off-diagonal norm drops below tol times the matrix norm.
    """
    A = np.array(M, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    scale = max(float(np.sqrt((A * A).sum())), 1.0)

    def _off_norm() -> float:
        # sum the off-diagonal entries directly; subtracting the diagonal
        # from the full norm cancels catastrophically near convergence
        B = A.copy()
        np.fill_diagonal(B, 0.0)
        return float(np.sqrt((B * B).sum()))

    for _ in range(60):
        off = _off_norm()
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol * scale / max(n, 1) / 10:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                vp = c * V[:, p] - s * V[:, q]
                vq = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = vp, vq
    else:
        off = _off_norm()
        raise ConvergenceError(f"Jacobi sweeps did not converge (off = {off:.3g})", off)
    values = np.diag(A).copy()
    order = np.argsort(-values, kind="stable")
    return values[order], V[:, order]


class _SparseOperator:
    """Deterministic matvec over neighbor arrays."""

    def __init__(self, graph, kind: str):
        n = graph.vertex_count
        adj = graph.adjacency
        self.n = n
        self.kind = kind
        self.degrees = np.array([len(adj[v]) for v in range(n)], dtype=float)
        flat = []
        offsets = [0]
        for v in range(n):
            flat.extend(adj[v])
            offsets.append(len(flat))
        self.flat = np.array(flat, dtype=np.intp)
        self.starts = np.array(offsets[:-1], dtype=np.intp)
        self.empty = np.array([len(adj[v]) == 0 for v in range(n)])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if len(self.flat) == 0:
            gathered = np.zeros(self.n)
        else:
            sums = np.add.reduceat(v[self.flat], self.starts)
            gathered = np.where(self.empty, 0.0, sums)
        if self.kind == "laplacian":
            return self.degrees * v - gathered
        return gathered


def _power_iterate(op: _SparseOperator, shift: float, deflate: list,
                   tol: float, rng: np.random.Generator) -> tuple:
    """Dominant eigenpair of (M + shift I) restricted to the complement of
    the deflated eigenpairs; returns (eigenvalue of M, vector, residual)."""
    n = op.n
    v = rng.standard_normal(n)
    for value, vector in deflate:
        v -= (vector @ v) * vector
    norm = float(np.sqrt(v @ v))
    if norm == 0.0:
        raise ConvergenceError("start vector vanished under deflation", math.inf)
    v /= norm
    lam = 0.0
    residual = math.inf
    for _ in range(_MAX_ITERATIONS):
        w = op.matvec(v) + shift * v
        for value, vector in deflate:
            w -= (value + shift) * (vector @ v) * vector
        # keep the iterate exactly inside the complement subspace
        for _, vector in deflate:
            w -= (vector @ w) * vector
        norm = float(np.sqrt(w @ w))
        if norm == 0.0:
            raise ConvergenceError("iterate collapsed into the deflated space", math.inf)
        w /= norm
        mv = op.matvec(w)
        lam = float(w @ mv)
        r = mv - lam * w
        for _, vector in deflate:
            r -= (vector @ r) * vector
        residual = float(np.sqrt(r @ r))
        v = w
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"power iteration stalled at residual {residual:.3g}", residual
        )
    return lam, v, residual


def _group_entries(values, residuals, tol: float) -> tuple:
    entries = []
    group_tol = max(math.sqrt(tol), 1e-9)
    for value, residual in zip(values, residuals):
        if entries and abs(entries[-1][0] - value) <= group_tol * max(1.0, abs(value)):
            prev_value, mult, prev_res = entries[-1]
            entries[-1] = (prev_value, mult + 1, max(prev_res, residual))
        else:
            entries.append((value, 1, residual))
    return tuple(entries)


def spectrum_topk(graph, kind: str = "adjacency", k: int = 1,
                  tol: float = 1e-8, seed: int = 0) -> SpectrumReport:
    """Top-k eigenvalues, dense below 1000 vertices and iterative above.

    The iterative path handles the Laplacian of any graph and the adjacency
    of connected regular graphs (where the all-ones vector is the known top
    eigenvector to deflate); eigenvalues come with residual certificates and
    a ConvergenceError is raised when the iteration budget runs out.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind not in ("adjacency", "laplacian"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    n = graph.vertex_count
    if n <= _DENSE_LIMIT:
        M = adjacency_matrix(graph) if kind == "adjacency" else laplacian_matrix(graph)
        values, vectors = jacobi_eigensystem(M, tol=min(tol, 1e-10))
        residuals = []
        for idx in range(min(k, n)):
            v = vectors[:, idx]
            r = M @ v - values[idx] * v
            residuals.append(float(np.sqrt(r @ r)))
        entries = _group_entries(values[: min(k, n)], residuals, tol)
        return SpectrumReport(kind, "dense", tol, entries)

    op = _SparseOperator(graph, kind)
    rng = np.random.default_rng(seed)
    degrees = op.degrees
    deflate: list = []
    values = []
    residuals = []
    if kind == "adjacency":
        if degrees.min() != degrees.max():
            raise ValueError("iterative adjacency spectra need a regular graph")
        if not graph.is_connected():
            raise ValueError("iterative adjacency spectra need a connected graph")
        d = float(degrees[0])
        ones = np.ones(n) / math.sqrt(n)
        r = op.matvec(ones) - d * ones
        values.append(d)
        residuals.append(float(np.sqrt(r @ r)))
        deflate.append((d, ones))
        shift = d
    else:
        shift = 0.0
    while len(values) < k:
        lam, vec, residual = _power_iterate(op, shift, deflate, tol, rng)
        values.append(lam)
        residuals.append(residual)
        deflate.append((lam, vec))
    entries = _group_entries(values[:k], residuals, tol)
    return SpectrumReport(kind, "iterative", tol, entries)


def check_regular_spectrum(graph, tol: float = 1e-8, seed: int = 0) -> dict:
    """Sanity harness for connected regular graphs.

    Asserts the top adjacency eigenvalue equals the degree within tol and
    that the spectral gap is strictly positive; returns the details.
    """
    degrees = {len(nbrs) for nbrs in graph.adjacency}
    if len(degrees) != 1:
        raise ValueError("graph is not regular")
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    degree = degrees.pop()
    report = spectrum_topk(graph, "adjacency", k=2, tol=tol, seed=seed)
    eigenvalues = report.eigenvalues
    lambda1 = eigenvalues[0]
    lambda2 = eigenvalues[1] if len(eigenvalues) > 1 else None
    if abs(lambda1 - degree) > tol * max(1.0, degree):
        raise AssertionError(
            f"top adjacency eigenvalue {lambda1} differs from degree {degree}"
        )
    if lambda2 is not None and not lambda2 < lambda1 - tol:
        raise AssertionError(f"no spectral gap: {lambda1} vs {lambda2}")
    return {
        "degree": degree,
        "lambda1": lambda1,
        "lambda2": lambda2,
        "method": report.method,
        "report": report,
    }


def second_eigenvalue_comparison(graph, cycle_length: int, tol: float = 1e-8,
                                 seed: int = 0) -> dict:
    """Report lambda_2 of the adjacency next to 1 + sqrt(2k - 1).

    The claimed closed forms are reproduction targets only: the report
    archives the computed value, the candidate, and their gap, and asserts
    nothing about the match.
    """
    report = spectrum_topk(graph, "adjacency", k=2, tol=tol, seed=seed)
    eigenvalues = report.eigenvalues
    lambda2 = eigenvalues[1]
    candidate = 1.0 + math.sqrt(2 * cycle_length - 1)
    return {
        "cycle_length": cycle_length,
        "lambda2": lambda2,
        "candidate": candidate,
        "gap": abs(lambda2 - candidate),
        "method": report.method,
    }
