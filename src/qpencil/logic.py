"""Context hypergraphs, two-valued states, and noncolorability sweeps.

Vertices are canonical rays and edges are contexts (orthonormal bases). A
two-valued state assigns {0,1} to vertices with exactly one 1 per edge;
their complete absence on a configuration is a Kochen-Specker proof. The
subset sweep walks every nonempty edge sub-collection looking for the ones
that admit no state at all, and for the minimal ("critical") such
collections.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exact import Ray, inner_product, is_product_state

SUBSET_SWEEP_EDGE_CAP = 30  # a lattice table of 2^30 bytes
SUBSET_SWEEP_VERTEX_CAP = 40  # two half tables of 2^ceil(|V|/2) vertex sets, unpruned: 2^20
# _LOW[i]: the bits of a packed sweep-table word whose edge mask lacks edge i
_LOW = [sum(1 << p for p in range(64) if not (p >> i) & 1) for i in range(6)]


def _bits(mask: int) -> Iterator[int]:
    """The indices of a bitmask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ContextHypergraph:
    """Deduplicated canonical rays (vertices) plus contexts (edges).

    Every vertex lies on an edge; each edge is ``dim`` pairwise-orthogonal
    vertices, an orthonormal basis; ``edges=None`` takes every such set.
    """

    vertices: tuple[Ray, ...]
    edges: tuple[tuple[int, ...], ...]
    dim: int

    def __post_init__(self):
        if type(self.dim) is not int:  # not isinstance, which lets JSON's true pass
            raise ValueError(f"dimension {self.dim!r} is not an integer")
        adjacency = orthogonality_graph(self.vertices)  # raises unless one dimension
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("a ray is listed twice among the vertices")
        if self.vertices and self.vertices[0].dim != self.dim:
            raise ValueError(f"the vertices have dimension {self.vertices[0].dim}, not {self.dim}")
        if self.edges is None:
            object.__setattr__(self, "edges", enumerate_contexts(adjacency, self.dim))
        seen, covered = set(), 0
        for e in self.edges:
            if any(type(i) is not int for i in e):
                raise ValueError(f"edge {e} has an index that is not an integer")
            if len(set(e)) != self.dim:
                raise ValueError(f"edge {e} does not have {self.dim} distinct vertices")
            if list(e) != sorted(e):
                raise ValueError(f"edge {e} is not in ascending order")
            if not all(0 <= i < len(self.vertices) for i in e):
                raise ValueError(f"edge {e} has an index outside the vertex list")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            mask = sum(1 << i for i in e)
            for i in e:  # the first pair (i, j > i) of e that is not orthogonal
                for j in _bits(mask & ~adjacency[i] & -(2 << i)):
                    raise ValueError(f"edge {e}: vertices {i} and {j} are not orthogonal")
            covered |= mask
        for v in _bits((1 << len(self.vertices)) - 1 & ~covered):  # the lowest is named
            raise ValueError(f"every vertex must belong to at least one edge; vertex {v} is not")

    @staticmethod
    def from_ray_groups(groups: Sequence[Sequence[Ray]]) -> "ContextHypergraph":
        """Build from explicit contexts; rays deduplicate by canonical form."""
        # by dense components, each ray's parts built once
        vertices = sorted({r for g in groups for r in g}, key=lambda r: r.parts)
        if not vertices:
            raise ValueError("cannot build a hypergraph from no rays")
        index = {r: i for i, r in enumerate(vertices)}
        edges = sorted(set(tuple(sorted(index[r] for r in g)) for g in groups))
        return ContextHypergraph(tuple(vertices), tuple(edges), vertices[0].dim)

    @staticmethod
    def completion_of(rays: Iterable[Ray]) -> "ContextHypergraph":
        """All contexts hiding in a ray set: its bases, the cliques of size dim."""
        vertices = sorted(set(rays), key=lambda r: r.parts)  # as in from_ray_groups
        if not vertices:
            raise ValueError("cannot complete an empty ray set")
        return ContextHypergraph(tuple(vertices), None, vertices[0].dim)

    def sub_hypergraph(self, edge_indices: Sequence[int]) -> "ContextHypergraph":
        """Induced sub-collection; vertices outside the chosen edges are dropped."""
        return ContextHypergraph.from_ray_groups(
            [[self.vertices[v] for v in self.edges[i]] for i in edge_indices]
        )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [v.to_json() for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }


def orthogonality_graph(rays: Sequence[Ray]) -> list[int]:
    """Adjacency bitmasks: bit j of entry i is set iff j != i and rays i and j have
    exact inner product zero. Rays whose supports share no index are orthogonal
    with no arithmetic, so only pairs that share one are tested, each once."""
    adjacency = [(1 << len(rays)) - 1 ^ 1 << i for i in range(len(rays))]
    holders: dict[int, int] = {}  # support index -> the earlier rays nonzero there
    for i, r in enumerate(rays):
        if r.dim != rays[0].dim:
            raise ValueError("all rays must share one dimension")
        shared = 0
        for j, _ in r.support:
            shared |= holders.get(j, 0)
            holders[j] = holders.get(j, 0) | 1 << i
        for k in _bits(shared):
            if inner_product(rays[k], r) != (0, 0):
                adjacency[i] ^= 1 << k
                adjacency[k] ^= 1 << i
    return adjacency


def enumerate_contexts(adjacency: Sequence[int], d: int) -> tuple[tuple[int, ...], ...]:
    """Every set of d pairwise-adjacent vertices (a d-clique), in ascending order.

    d pairwise-orthogonal rays span C^d, so no other ray is orthogonal to all
    of them: each such clique is a basis and maximal. The search runs depth
    first on an explicit stack, so a clique of any size fits. A node is a
    clique with its later common neighbours; it is extended by each candidate
    v, ascending, until v and the candidates after it are too few to reach d.
    """
    cliques: list[tuple[int, ...]] = []
    stack = [((), (1 << len(adjacency)) - 1)]  # (clique, candidates after its last vertex)
    while stack:
        r, p = stack.pop()
        if len(r) == d:
            cliques.append(r)
            continue
        children = []
        for v in _bits(p):
            later = p & -(2 << v)
            if len(r) + 1 + later.bit_count() < d:
                break
            children.append((r + (v,), later & adjacency[v]))
        stack.extend(reversed(children))  # popped ascending: lexicographic order
    return tuple(cliques)


# ---------------------------------------------------------------------------
# Two-valued states. The solver works on vertex bitmasks: assigning 1 to a
# vertex forces 0 on every other vertex of every edge containing it.


def two_valued_states(h: ContextHypergraph) -> list[int]:
    """Every two-valued state as an int bitmask (bit v is vertex v's value),
    ascending: complete, deterministic enumeration by backtracking over edges.

    Picks the first edge with no 1 yet, tries each still-available vertex
    (lowest index first) as its designated 1, and propagates 0 to its co-edge
    vertices, all others on its edges, whose mask is computed once per vertex.
    """
    edge_masks = [sum(1 << v for v in e) for e in h.edges]
    co_edge = [0] * len(h.vertices)
    for e, mask in zip(h.edges, edge_masks):
        for v in e:
            co_edge[v] |= mask & ~(1 << v)
    found: list[int] = []

    def rec(ones: int, zeros: int) -> None:
        for e in edge_masks:
            if e & ones:
                continue
            for v in _bits(e & ~zeros):
                rec(ones | 1 << v, zeros | co_edge[v])
            return
        found.append(ones)

    rec(0, 0)
    return sorted(found)


# ---------------------------------------------------------------------------
# Subset sweep.


@dataclass(frozen=True)
class SubsetSweepResult:
    """Outcome of sweeping every nonempty edge sub-collection.

    ``total`` counts sub-collections (of the induced-vertex convention:
    vertices outside the chosen edges are dropped) admitting no two-valued
    state. ``critical`` lists the minimal ones: removing any single edge
    re-admits a state. Edge indices refer to the parent hypergraph.
    """

    total: int
    critical: tuple[tuple[int, ...], ...]

    def critical_shapes(self, h: ContextHypergraph) -> dict[tuple[int, int], int]:
        """{(edge count, induced vertex count): critical collections of that shape}, ascending."""
        shapes = [(len(s), len({v for i in s for v in h.edges[i]})) for s in self.critical]
        return {shape: shapes.count(shape) for shape in sorted(set(shapes))}


def _half_tables(
    edges: Sequence[Sequence[int]], vertices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """For every undominated subset T of ``vertices`` (bit k of the index
    stands for ``vertices[k]``): the m-bit masks of the edges T misses and of
    the edges T meets once. T is dominated if some v in T has no private edge
    (one T meets only at v); then E_U is in E_{U - v} for every U containing T."""
    subsets = np.arange(1 << len(vertices), dtype=np.uint32)
    zero = np.zeros_like(subsets)
    lone = np.zeros_like(subsets)  # the edges T meets at most once
    private = np.zeros_like(subsets)  # the vertices of T with a private edge
    for j, e in enumerate(edges):
        hit = subsets & sum(1 << k for k, v in enumerate(vertices) if v in e)
        single = hit & (hit - 1) == 0
        zero |= np.left_shift(hit == 0, j, dtype=np.uint32)
        lone |= np.left_shift(single, j, dtype=np.uint32)
        private |= hit * single  # hit if T meets e once
    return zero[private == subsets], (lone ^ zero)[private == subsets]  # once: lone, not missed


def noncolorable_subsets(
    h: ContextHypergraph, *, jobs: int = 1
) -> SubsetSweepResult:
    """Sweep all nonempty edge sub-collections for no-state configurations.

    A sub-collection S admits a state iff S is contained in E_T for some vertex set
    T, where E_T is the set of edges T meets exactly once. E_T of every undominated
    T is marked in a bit table over the 2^m edge bitmasks (bit p of uint64 word w is
    mask 64w + p) by pairing tables over the two halves of the vertices in order of
    first appearance in the edges (any split is exact; on pm-square this one keeps
    fewer T). The pairing costs the product of the pruned table sizes, so its time
    depends on how much pruning leaves, as the state search's does:
    1,408 x 1,255 = 1.8e6 pairs on 20 of pm-square's contexts (2^24 = 1.7e7),
    1,839 x 1,624 = 3.0e6 on all 24, 49,259 x 20,515 = 1.0e9 on the 40-ray GHZ-Mermin
    star (2^40 = 1.1e12). m passes close the table downward (a subset-lattice zeta
    transform), and m more keep the no-state S whose every S - {i} is colorable: the
    critical ones. ``jobs`` is accepted for compatibility and has no effect.
    """
    m, n = len(h.edges), len(h.vertices)
    caps = {"edges": (m, SUBSET_SWEEP_EDGE_CAP), "vertices": (n, SUBSET_SWEEP_VERTEX_CAP)}
    for what, (count, cap) in caps.items():
        if count > cap:
            raise ValueError(f"{count} {what} exceeds the sweep cap of {cap}")
    order = list(dict.fromkeys(v for e in h.edges for v in e))  # every vertex is on an edge
    zero1, once1 = _half_tables(h.edges, order[: n // 2])
    zero2, once2 = _half_tables(h.edges, order[n // 2 :])
    marked = np.zeros(max(1 << m, 64), dtype=bool)
    marked[1 << m :] = True  # pad to one word; padding is never no-state
    rows = max(1, (1 << 16) // len(zero2))  # about 2^16 vertex sets per block
    index = np.empty((rows, len(zero2)), dtype=np.intp)  # reused: no per-block cast to intp
    for lo in range(0, len(zero1), rows):
        z, o = zero1[lo : lo + rows, None], once1[lo : lo + rows, None]
        np.bitwise_or(o & zero2, z & once2, out=index[: len(z)])
        marked[index[: len(z)]] = True
    colorable = np.packbits(marked, bitorder="little").view("<u8")
    del marked  # the packed words are all that the passes below read
    for i in range(m):  # close downward: subsets of colorable sets are colorable
        if i < 6:
            colorable |= (colorable >> (1 << i)) & _LOW[i]
        else:
            pairs = colorable.reshape(-1, 2, 1 << (i - 6))
            pairs[:, 0] |= pairs[:, 1]
    critical = ~colorable
    total = int(np.bitwise_count(critical).sum())
    for i in range(m):  # keep S only if S - {i} is colorable
        if i < 6:
            critical &= (colorable << (1 << i)) | _LOW[i]
        else:
            half = colorable.reshape(-1, 2, 1 << (i - 6))[:, 0]
            critical.reshape(-1, 2, 1 << (i - 6))[:, 1] &= half
    words = np.flatnonzero(critical).tolist()  # unpack only words that hold an S
    masks = [64 * w + p for w, c in zip(words, critical[words].tolist()) for p in _bits(c)]
    return SubsetSweepResult(total, tuple(sorted(tuple(_bits(mask)) for mask in masks)))


# ---------------------------------------------------------------------------
# Separability classification.


@dataclass(frozen=True)
class ContextClassification:
    """Vertex and edge partition by exact separability."""

    separable_vertices: tuple[int, ...]
    entangled_vertices: tuple[int, ...]
    separable_edges: tuple[int, ...]
    entangled_edges: tuple[int, ...]
    mixed_edges: tuple[int, ...]

    def counts(self) -> dict[str, int]:
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}


def classify_contexts(
    h: ContextHypergraph, site_dims: Sequence[int]
) -> ContextClassification:
    """Partition vertices and edges by separability across the given sites."""
    separable = [is_product_state(v, site_dims) for v in h.vertices]
    counts = [sum(separable[i] for i in e) for e in h.edges]  # separable rays per edge
    return ContextClassification(
        tuple(i for i, s in enumerate(separable) if s),
        tuple(i for i, s in enumerate(separable) if not s),
        tuple(k for k, c in enumerate(counts) if c == h.dim),
        tuple(k for k, c in enumerate(counts) if c == 0),
        tuple(k for k, c in enumerate(counts) if 0 < c < h.dim),
    )


# ---------------------------------------------------------------------------
# Graphviz export.

_DOT_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
    "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff", "#9a6324",
    "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1", "#000075",
    "#808080", "#ffe119", "#a9a9a9", "#000000", "#2f4f4f", "#8b4513",
)


def to_dot(h: ContextHypergraph) -> str:
    """Render contexts as colored vertex chains, one color per context."""
    lines = ['graph "contexts" {', "  node [shape=circle fontsize=10];"]
    for i, v in enumerate(h.vertices):
        label = ",".join(str(c) for c in v.to_json())
        lines.append(f'  v{i} [label="({label})"];')
    for k, e in enumerate(h.edges):
        color = _DOT_PALETTE[k % len(_DOT_PALETTE)]
        for a, b in zip(e, e[1:]):
            lines.append(f'  v{a} -- v{b} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
