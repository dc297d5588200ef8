"""Immutable simple undirected graphs with bitset adjacency.

Vertex ids are small non-negative integers.  A fresh graph uses dense ids
0..n-1; split-decomposition primes keep the original ids and add marker
vertices, so ids need not be contiguous.
Vertex sets are plain python ints used as bitsets (bit i = vertex i).
"""

from __future__ import annotations

from itertools import combinations


def bits(mask: int):
    """Iterate set bit positions of a mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("vertices", "vmask", "edges", "adj", "incident",
                 "edge_vertices", "_connected")

    def __init__(self, vertices, edges):
        vs = sorted(set(vertices))
        vmask = mask_of(vs)
        es = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (vmask >> u) & 1 or not (vmask >> v) & 1:
                raise ValueError(f"edge ({u},{v}) has endpoint outside vertex set")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                continue
            seen.add(e)
            es.append(e)
        es.sort()
        self._fill(vs, vmask, es)

    def _fill(self, vs: list[int], vmask: int, es: list[tuple[int, int]]) -> Graph:
        """Set every slot from the sorted vertex list, its mask and the
        sorted list of distinct edges (u, v), u < v, among them, with no
        check; return the graph.  A caller whose parts already have that
        form (`splitdec.split_decompose`'s primes) builds through it alone."""
        self.vertices = tuple(vs)
        self.vmask = vmask
        self.edges = tuple(es)
        adj = {v: 0 for v in vs}
        incident = {v: 0 for v in vs}
        edge_vertices = []  # vertex mask {u, v} of each edge
        for i, (u, v) in enumerate(es):
            bu, bv, bi = 1 << u, 1 << v, 1 << i
            adj[u] |= bv
            adj[v] |= bu
            incident[u] |= bi
            incident[v] |= bi
            edge_vertices.append(bu | bv)
        self.adj = adj
        self.incident = incident
        self.edge_vertices = tuple(edge_vertices)
        self._connected = None
        return self

    # -- basics ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj.get(u, 0) >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def check_subset(self, a: int) -> None:
        if a & ~self.vmask:
            bad = sorted(bits(a & ~self.vmask))
            raise ValueError(f"unknown vertex ids {bad}")

    # -- operations --------------------------------------------------------

    def neighborhood(self, s: int) -> int:
        """N(s): vertices outside s adjacent to s, as a bitmask."""
        self.check_subset(s)
        nb = 0
        for v in bits(s):
            nb |= self.adj[v]
        return nb & ~s

    def is_connected(self) -> bool:
        if self._connected is None:
            reached = frontier = self.vmask & -self.vmask  # lowest vertex
            while frontier:
                nxt = 0
                for v in bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~reached
                reached |= frontier
            self._connected = reached == self.vmask
        return self._connected

    def is_biconnected(self) -> bool:
        """Whether the graph is connected, has two vertices or more and no
        cut vertex (so K2 is, as in networkx).  Every Hamiltonian graph is.

        One depth-first search from the lowest vertex with Hopcroft-Tarjan
        low points (CACM 1973), iterative and O(n + m).  Every edge joins an
        ancestor and a descendant in the search tree, so the low point of v,
        the least depth its subtree has an edge to (its parent's included),
        is the least of the depths v's edges reach and its children's low
        points.  A vertex u other than the root is a cut vertex when a
        child's low point is not above u, and the root when its first
        child's subtree does not reach every vertex (a second child, or a
        second component)."""
        vs = self.vertices
        if len(vs) < 2:
            return False
        adj = self.adj
        depth = [0] * (vs[-1] + 1)  # 0: not reached; the root has depth 1
        low = [0] * len(depth)
        rest = [0] * len(depth)  # neighbours of a vertex on the path not yet read
        root = vs[0]
        depth[root] = low[root] = 1
        rest[root] = adj[root]
        path, reached = [root], 1
        while True:
            v = path[-1]
            r = rest[v]
            if r:
                b = r & -r
                rest[v] = r ^ b
                w = b.bit_length() - 1
                if depth[w]:
                    if depth[w] < low[v]:
                        low[v] = depth[w]
                else:
                    reached += 1
                    path.append(w)
                    depth[w] = low[w] = len(path)
                    rest[w] = adj[w]
                continue
            path.pop()
            if len(path) < 2:  # v is the root's first child, or the root
                return reached == len(vs)
            u = path[-1]
            if low[v] >= depth[u]:
                return False
            if low[v] < low[u]:
                low[u] = low[v]

    # -- edge-set helpers (edge bitmasks over self.edges) ------------------

    def edge_mask(self, edges) -> int:
        """Edge bitmask of the given (u, v) pairs: each edge's bit is the
        one its ends' incidence masks share."""
        m = 0
        for u, v in edges:
            if not self.has_edge(u, v):
                raise ValueError(f"({u},{v}) is no edge")
            m |= self.incident[u] & self.incident[v]
        return m

    def edge_set(self, emask: int):
        return [self.edges[i] for i in bits(emask)]

    def edges_at(self, vs: int) -> int:
        """Edge bitmask of the edges with an end in vs."""
        m = 0
        for v in bits(vs):
            m |= self.incident[v]
        return m

    def edges_within(self, a: int) -> int:
        """Edge bitmask of E(G[a])."""
        return self.edges_at(a) & ~self.edges_at(self.vmask & ~a)

    def edges_between(self, a: int, b: int) -> int:
        """Edge bitmask of E(G[a, b]) for disjoint a, b."""
        return self.edges_at(a) & self.edges_at(b)


# -- constructors ----------------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(range(n), combinations(range(n), 2))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(range(10), outer + spokes + inner)


# -- edge-list text format -------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the `n m` header plus `u v` lines; `#` comments and blanks ok.

    Each edge line is checked once, in order: two fields, both integers in
    0..n-1.  A self-loop raises only once every line has passed, as
    `Graph` raises it, so a range error on any line comes first.  The
    distinct edges, as (u, v) with u < v and sorted, fill the graph through
    `Graph._fill` with no second check."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if n < 0:
        raise ValueError(f"vertex count {n} is negative")
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(rows) - 1}")
    edges = set()
    loop = None  # the first self-loop, raised once every line is in range
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {row!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u < v:
            edges.add((u, v))
        elif v < u:
            edges.add((v, u))
        elif loop is None:
            loop = u
    if loop is not None:
        raise ValueError(f"self-loop at vertex {loop}")
    return Graph.__new__(Graph)._fill(list(range(n)), (1 << n) - 1, sorted(edges))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for (u, v) in g.edges]
    return "\n".join(lines) + "\n"
