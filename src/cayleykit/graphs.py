"""Undirected graphs with optional edge labels, deterministic serialization,
and small factories.

Vertices are 0-based integers.  A graph is its sorted edge tuple, the
neighbor lists built from it in edge order (which leaves them sorted), and an
``edge_labels`` dict (empty when the graph is unlabeled); Cayley graphs are
the labeled subclass.  Every constructor input takes one normalization
path: each pair is ordered, the list is sorted once (linear on input that
is already sorted, such as an exported file) and repeats are dropped; the
edges are checked one by one only when something is wrong, to name the
first bad edge in input order.  The edge-list format is::

    vertices=<count>
    u v [label1[,label2...]]

with one line per undirected edge, sorted, so exports are byte-stable.  An
export is one formatted list joined once; an import splits each line once.
The DOT export colors edges by their first label's generator index.
"""

from __future__ import annotations

from itertools import starmap
from operator import itemgetter, lt
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
        edges = list(edges)
        pairs = [(u, v) if u < v else (v, u) for u, v in edges]
        pairs.sort()
        # the ordered pairs are valid iff the least u is >= 0, every u < v
        # and the largest v is in range; if not, the input is scanned in
        # its own order to name the first bad edge
        if pairs and not (pairs[0][0] >= 0 and all(starmap(lt, pairs))
                          and max(map(itemgetter(1), pairs)) < vertex_count):
            for u, v in edges:
                if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                    raise ValueError(f"edge ({u},{v}) out of range")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
        self.edges = tuple(dict.fromkeys(pairs))  # drops repeats, keeps the order
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
    get = graph.edge_labels.get
    lines = [f"vertices={graph.vertex_count}"]
    lines += [
        f"{e[0]} {e[1]} {','.join(tag)}" if (tag := get(e)) else f"{e[0]} {e[1]}"
        for e in graph.edges
    ]
    return "\n".join(lines) + "\n"


def import_edge_list(text: str) -> SimpleGraph:
    """Parse the edge-list format; errors carry 1-based line numbers.

    Each line is split once.  Label columns become the graph's
    ``edge_labels``, keyed by the ordered edge; a repeated edge keeps its
    last label, and lines with equal label text share one tuple.
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
    tags: dict = {}  # label text -> its tuple
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [labels]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed vertex ids in {raw!r}") from None
        edge = (u, v)
        edges.append(edge)
        if len(parts) == 3:
            tag = parts[2]
            key = edge if u < v else (v, u)
            labels[key] = tags.get(tag) or tags.setdefault(tag, tuple(tag.split(",")))
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
