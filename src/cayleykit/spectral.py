"""Adjacency and Laplacian spectra of desk-scale graphs.

One solver serves every graph and size: Chebyshev-filtered block subspace
iteration (Zhou and Saad, J. Comput. Phys. 2007) over neighbor arrays, with
Rayleigh-Ritz on the small block matrix.  The block holds k columns plus a
fixed guard, so a repeated eigenvalue costs no extra passes.  Iteration
order is fixed and the start block comes from a seeded generator, so
results are reproducible; every reported eigenvalue is the Rayleigh
quotient of a unit vector v and carries the residual certificate
||Mv - lambda v|| <= tol.  numpy supplies the arrays, the block's QR and
the small symmetric eigensolve (LAPACK); it is imported inside the
functions that use it, so ``import cayleykit`` stays numpy-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError

_BLOCK_GUARD = 4         # block columns beyond k
_FILTER_DEGREE = 24      # Chebyshev degree per iteration, before the gain cap
_MAX_GAIN = 1e8          # largest filter gain of the top over the k-th Ritz value
_CUT_GAP = 0.02          # share of the way to lo that the cut drops below a cluster
_MAX_ITERATIONS = 500


@dataclass(frozen=True)
class SpectrumReport:
    """Top eigenvalues with multiplicities and residual certificates."""

    # the one solver, a class constant rather than a field: perfbench/tracing.py
    # reads it to name the spectrum_topk span
    method = "iterative"
    kind: str                 # "adjacency" | "laplacian"
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
            # A value within its residual of 0 is printed as 0 (never -0),
            # not as rounding noise that moves with the BLAS build.
            if abs(value) <= residual:
                value = 0.0
            lines.append(
                f"{self.kind},{rank},{value:.12g},{mult},{residual:.3g}"
            )
        return "\n".join(lines) + "\n"


def jacobi_eigensystem(M: np.ndarray) -> tuple:
    """All eigenvalues of a symmetric matrix, descending, and their vectors in
    the same column order, by LAPACK's symmetric solver (``eigh`` returns
    them ascending).  The name is kept because perfbench/tracing.py times
    the Rayleigh-Ritz step under it."""
    import numpy as np

    values, vectors = np.linalg.eigh(M)
    return values[::-1], vectors[:, ::-1]


class _SparseOperator:
    """The adjacency or Laplacian matrix times an n x b block, over neighbor
    arrays: one gather per neighbor slot that every vertex fills, then one
    segmented sum over the remaining neighbors of higher-degree vertices."""

    def __init__(self, graph, kind: str):
        import numpy as np

        adj = graph.adjacency
        self.n = graph.vertex_count
        self.kind = kind
        self.degrees = np.array([len(nbrs) for nbrs in adj], dtype=float)
        shared = min((len(nbrs) for nbrs in adj), default=0)
        self.slots = np.array([nbrs[:shared] for nbrs in adj], dtype=np.intp).T
        # reduceat sums from each start to the next, so only the vertices
        # with neighbors left over get a start; every start indexes rest
        self.rows = np.flatnonzero(self.degrees > shared)
        self.rest = np.array([w for v in self.rows for w in adj[v][shared:]], dtype=np.intp)
        counts = self.degrees[self.rows].astype(np.intp) - shared
        self.starts = np.cumsum(counts) - counts

    def apply(self, X: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """(M - shift I) X."""
        import numpy as np

        out = np.zeros_like(X)
        for slot in self.slots:
            out += np.take(X, slot, axis=0)
        if len(self.rows):
            out[self.rows] += np.add.reduceat(np.take(X, self.rest, axis=0), self.starts, axis=0)
        if self.kind == "laplacian":
            out *= -1.0
            out += (self.degrees - shift)[:, None] * X
        elif shift:
            out -= shift * X
        return out


def _rayleigh_ritz(op: _SparseOperator, X: np.ndarray) -> tuple:
    """Ritz pairs of the orthonormal block X, descending: (values, vectors,
    residual norms).  Each value is the Rayleigh quotient of its normalized
    vector, not the small matrix's eigenvalue, so it carries the vector's
    accuracy."""
    import numpy as np

    MX = op.apply(X)
    _, S = jacobi_eigensystem(X.T @ MX)
    X, MX = X @ S, MX @ S
    norms = np.sqrt((X * X).sum(axis=0))
    X, MX = X / norms, MX / norms
    values = (X * MX).sum(axis=0)
    R = MX - X * values
    return values, X, np.sqrt((R * R).sum(axis=0))


def _chebyshev_filter(op: _SparseOperator, X: np.ndarray, values, residuals,
                      k: int, lo: float, hi: float) -> np.ndarray:
    """p(M) X for a Chebyshev polynomial p bounded by 1 on [lo, cut] and
    scaled so that p(hi) = 1 (Zhou and Saad 2007, wanted end on the right).

    The cut is the last Ritz value unless the k-th and last Ritz values agree
    within their residuals: the block then sits inside a cluster, and the cut
    drops a share _CUT_GAP of the way to lo so that the cluster rises over
    the eigenvalues just below it.  The degree is capped so that the top
    gains at most _MAX_GAIN over the k-th Ritz value and cannot drown the
    other columns.
    """
    wanted, last = values[k - 1], values[-1]
    inside_cluster = wanted - last <= residuals[k - 1] + residuals[-1]
    cut = wanted - _CUT_GAP * (wanted - lo) if inside_cluster else last
    cut = max(cut, lo + 1e-12 * (hi - lo))  # keeps [lo, cut] non-empty
    half, centre = (cut - lo) / 2.0, (cut + lo) / 2.0
    t_top = (hi - centre) / half
    spread = math.acosh(t_top) - math.acosh(max((wanted - centre) / half, 1.0))
    degree = max(1, min(_FILTER_DEGREE, int(math.log(_MAX_GAIN) / max(spread, 1e-9))))
    sigma = 1.0 / t_top
    prev, Y = X, op.apply(X, centre)
    Y *= sigma / half
    for _ in range(1, degree):
        s = 1.0 / (2.0 * t_top - sigma)
        W = op.apply(Y, centre)
        W *= 2.0 * s / half
        W -= (sigma * s) * prev
        prev, Y, sigma = Y, W, s
    return Y


def _group_entries(values, residuals) -> tuple:
    """(value, multiplicity, max residual) per eigenvalue, descending.

    Each value lies within its residual of an eigenvalue (Bauer-Fike), so a
    value joins the current entry only when it lies within that entry's
    residual plus its own; values farther apart are distinct eigenvalues.
    """
    entries = []
    for value, residual in zip(values, residuals):
        if entries and abs(entries[-1][0] - value) <= entries[-1][2] + residual:
            prev_value, mult, prev_res = entries[-1]
            entries[-1] = (prev_value, mult + 1, max(prev_res, residual))
        else:
            entries.append((value, 1, residual))
    return tuple(entries)


def spectrum_topk(graph, kind: str = "adjacency", k: int = 1,
                  tol: float = 1e-8, seed: int = 0) -> SpectrumReport:
    """Top-k eigenvalues (all n when k > n) by Chebyshev-filtered block
    subspace iteration from a seeded start.

    Each iteration does Rayleigh-Ritz on the block, keeps the leading Ritz
    vectors whose residual is within tol, and filters the rest, damping the
    spectrum from the Gershgorin lower bound up to a cut below the k-th Ritz
    value.  A ConvergenceError is raised when the iteration budget runs out.
    """
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    if kind not in ("adjacency", "laplacian"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    op = _SparseOperator(graph, kind)
    k = min(k, op.n)
    top = float(op.degrees.max(initial=0.0))
    lo, hi = (0.0, 2.0 * top) if kind == "laplacian" else (-top, top)  # Gershgorin
    rng = np.random.default_rng(seed)
    X = np.linalg.qr(rng.standard_normal((op.n, min(op.n, k + _BLOCK_GUARD))))[0]
    for _ in range(_MAX_ITERATIONS):
        values, X, residuals = _rayleigh_ritz(op, X)
        done = 0
        while done < k and residuals[done] <= tol:
            done += 1
        if done == k:
            return SpectrumReport(kind, tol, _group_entries(values[:k], residuals[:k]))
        filtered = _chebyshev_filter(op, X[:, done:], values, residuals, k, lo, hi)
        X = np.linalg.qr(np.hstack([X[:, :done], filtered]))[0]
    worst = float(max(residuals[:k]))
    raise ConvergenceError(f"block iteration stalled at residual {worst:.3g}", worst)


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
    }
