"""Undirected graphs with optional edge labels, deterministic serialization,
and small factories.

Vertices are 0-based integers.  A graph is its sorted edge tuple, the
neighbor lists built from it in edge order (which leaves them sorted), and an
``edge_labels`` dict (empty when the graph is unlabeled); Cayley graphs are
the labeled subclass.  The edge-list format is::

    vertices=<count>
    u v [label1[,label2...]]

with one line per undirected edge, sorted, so exports are byte-stable.  The
DOT export colors edges by their first label's generator index.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class SimpleGraph:
    """Undirected graph without loops or parallel edges.

    ``edge_labels`` maps an edge (u, v) with u < v to a tuple of label
    strings; graphs without labels store {}.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple],
                 edge_labels: Optional[dict] = None):
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        self.vertex_count = vertex_count
        seen = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add((min(u, v), max(u, v)))
        self.edges = tuple(sorted(seen))
        self.edge_labels = edge_labels or {}
        self._adj: Optional[list] = None

    @property
    def adjacency(self) -> list:
        """Sorted neighbor lists, built lazily: ``edges`` is sorted, so vertex w
        gets its smaller neighbours u from edges (u, w) first, in ascending
        order, then its larger ones v from edges (w, v)."""
        if self._adj is None:
            self._adj = [[] for _ in range(self.vertex_count)]
            for u, v in self.edges:
                self._adj[u].append(v)
                self._adj[v].append(u)
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        return len(connected_components(self.vertex_count, self.edges)) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
            and self.edge_labels == other.edge_labels
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.vertex_count} vertices, {len(self.edges)} edges)"


# -- named graphs used throughout the test corpus ---------------------------


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> SimpleGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


# -- serialization -----------------------------------------------------------


def export_edge_list(graph: SimpleGraph) -> str:
    """Lossless, deterministic edge list; includes labels when present."""
    labels = graph.edge_labels
    lines = [f"vertices={graph.vertex_count}"]
    for u, v in graph.edges:
        tag = labels.get((u, v))
        if tag:
            lines.append(f"{u} {v} {','.join(tag)}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def import_edge_list(text: str) -> SimpleGraph:
    """Parse the edge-list format; errors carry 1-based line numbers.

    Label columns become the graph's ``edge_labels``.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip().startswith("vertices="):
        raise ValueError("line 1: expected 'vertices=<count>' header")
    try:
        count = int(lines[0].strip().split("=", 1)[1])
    except ValueError:
        raise ValueError(f"line 1: malformed vertex count in {lines[0]!r}") from None
    edges = []
    labels = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [labels]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed vertex ids in {raw!r}") from None
        edges.append((u, v))
        if len(parts) == 3:
            labels[(min(u, v), max(u, v))] = tuple(parts[2].split(","))
    try:
        return SimpleGraph(count, edges, labels)
    except ValueError as exc:
        raise ValueError(f"edge list invalid: {exc}") from None


_DOT_PALETTE = (
    "black", "red", "blue", "forestgreen", "darkorange",
    "purple", "saddlebrown", "deeppink", "teal", "gray40",
)


def export_dot(graph: SimpleGraph) -> str:
    """Graphviz DOT text with one color class per generator index."""
    labels = graph.edge_labels
    lines = ["graph G {"]
    for v in range(graph.vertex_count):
        lines.append(f"  {v};")
    for u, v in graph.edges:
        tag = labels.get((u, v))
        if tag:
            idx = int("".join(ch for ch in tag[0] if ch.isdigit()) or 0)
            color = _DOT_PALETTE[idx % len(_DOT_PALETTE)]
            lines.append(f'  {u} -- {v} [color={color}, label="{",".join(tag)}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def connected_components(vertex_count: int, edges: Sequence[tuple]) -> list:
    parent = list(range(vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    comps: dict = {}
    for v in range(vertex_count):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values())
