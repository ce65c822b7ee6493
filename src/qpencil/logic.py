"""Context hypergraphs, two-valued states, and noncolorability sweeps.

Vertices are canonical rays and edges are contexts (orthonormal bases). A
two-valued state assigns {0,1} to vertices with exactly one 1 per edge;
their complete absence on a configuration is a Kochen-Specker proof. The
subset sweep walks every nonempty edge sub-collection looking for the ones
that admit no state at all, and for the minimal ("critical") such
collections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exact import Ray, is_orthogonal, is_product_state

SUBSET_SWEEP_EDGE_CAP = 30
SUBSET_SWEEP_VERTEX_CAP = 32  # vertex masks are uint32; time grows as 2^|V|
# _LOW[i]: the bits of a packed sweep-table word whose edge mask lacks edge i
_LOW = [sum(1 << p for p in range(64) if not (p >> i) & 1) for i in range(6)]


@dataclass(frozen=True)
class TwoValuedState:
    """A {0,1} per-vertex assignment with exactly one 1 on every edge."""

    values: tuple[int, ...]

    def ones(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v)


@dataclass(frozen=True)
class ContextHypergraph:
    """Deduplicated canonical rays (vertices) plus contexts (edges).

    Every vertex belongs to at least one edge; every edge is a set of
    ``dim`` pairwise-orthogonal vertices, hence an orthonormal basis.
    """

    vertices: tuple[Ray, ...]
    edges: tuple[tuple[int, ...], ...]
    dim: int

    def __post_init__(self):
        if type(self.dim) is not int:  # not isinstance, which lets JSON's true pass
            raise ValueError(f"dimension {self.dim!r} is not an integer")
        for i, v in enumerate(self.vertices):
            if v.dim != self.dim:
                raise ValueError(f"vertex {i} has dimension {v.dim}, not {self.dim}")
        seen = set()
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
            for i, j in itertools.combinations(e, 2):
                if not is_orthogonal(self.vertices[i], self.vertices[j]):
                    raise ValueError(
                        f"edge {e}: vertices {i} and {j} are not orthogonal"
                    )
        covered = set(itertools.chain.from_iterable(self.edges))
        if covered != set(range(len(self.vertices))):
            raise ValueError("every vertex must belong to at least one edge")

    @staticmethod
    def from_ray_groups(groups: Sequence[Sequence[Ray]]) -> "ContextHypergraph":
        """Build from explicit contexts; rays deduplicate by canonical form."""
        dims = {r.dim for g in groups for r in g}
        if len(dims) != 1:
            raise ValueError("all rays must share one dimension")
        dim = dims.pop()
        # by dense components, each ray's parts built once
        vertices = sorted(set(itertools.chain.from_iterable(groups)), key=lambda r: r.parts)
        index = {r: i for i, r in enumerate(vertices)}
        edges = sorted(set(tuple(sorted(index[r] for r in g)) for g in groups))
        return ContextHypergraph(tuple(vertices), tuple(edges), dim)

    @staticmethod
    def completion_of(rays: Iterable[Ray]) -> "ContextHypergraph":
        """All contexts hiding in a ray set: maximal cliques of orthogonality."""
        vertices = sorted(set(rays), key=lambda r: r.parts)  # as in from_ray_groups
        if not vertices:
            raise ValueError("cannot complete an empty ray set")
        dim = vertices[0].dim
        adjacency = orthogonality_graph(vertices)
        edges = enumerate_contexts(adjacency, dim)
        return ContextHypergraph(tuple(vertices), tuple(edges), dim)

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

    @staticmethod
    def from_json(data: dict) -> "ContextHypergraph":
        return ContextHypergraph(
            tuple(Ray(v) for v in data["vertices"]),
            tuple(tuple(e) for e in data["edges"]),
            data["dim"],
        )


def orthogonality_graph(rays: Sequence[Ray]) -> list[set[int]]:
    """Adjacency sets over vertex indices; edge iff exact inner product is zero."""
    adjacency: list[set[int]] = [set() for _ in rays]
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            if is_orthogonal(rays[i], rays[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return adjacency


def enumerate_contexts(
    adjacency: Sequence[set[int]], d: int
) -> tuple[tuple[int, ...], ...]:
    """All maximal cliques (pivoting Bron-Kerbosch), asserted to have size d.

    A maximal clique smaller than d means some ray set cannot be completed
    to an orthonormal basis, so the hypergraph would be ill-formed.
    """
    cliques: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(p & adjacency[u]))
        for v in sorted(p - adjacency[pivot]):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(len(adjacency))), set())
    for c in cliques:
        if len(c) != d:
            raise ValueError(
                f"maximal clique {c} has size {len(c)}, expected {d}: "
                "the ray set is not completable to full contexts"
            )
    return tuple(sorted(cliques))


# ---------------------------------------------------------------------------
# Two-valued states. The solver works on vertex bitmasks: assigning 1 to a
# vertex forces 0 on every other vertex of every edge containing it.


def _edge_bitmasks(edges: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(sum(1 << v for v in e) for e in edges)


def two_valued_states(h: ContextHypergraph) -> list[TwoValuedState]:
    """Complete, deterministic enumeration by backtracking over edges.

    Picks the first edge with no 1 yet, tries each still-available vertex
    (lowest index first) as its designated 1, and propagates 0 to its co-edge
    vertices, all others on its edges, whose mask is computed once per vertex.
    """
    edge_masks = _edge_bitmasks(h.edges)
    n = len(h.vertices)
    co_edge = [0] * n
    for e, mask in zip(h.edges, edge_masks):
        for v in e:
            co_edge[v] |= mask & ~(1 << v)
    found: list[int] = []

    def rec(ones: int, zeros: int) -> None:
        for e in edge_masks:
            if e & ones:
                continue
            cand = e & ~zeros
            while cand:
                v = cand & -cand
                cand ^= v
                rec(ones | v, zeros | co_edge[v.bit_length() - 1])
            return
        found.append(ones)

    rec(0, 0)
    states = [TwoValuedState(tuple((ones >> i) & 1 for i in range(n))) for ones in found]
    states.sort(key=lambda s: s.values)
    return states


def is_separating(states: Sequence[TwoValuedState], h: ContextHypergraph) -> bool:
    """True iff every vertex pair is told apart by some state, that is iff the
    vertices' value columns across the states are pairwise distinct."""
    n = len(h.vertices)
    columns = {tuple(s.values[v] for s in states) for v in range(n)}
    return len(columns) == n


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

    def critical_shapes(self, h: ContextHypergraph) -> list[tuple[int, int]]:
        """(edge count, induced vertex count) per critical collection."""
        shapes = []
        for edges in self.critical:
            covered = set(itertools.chain.from_iterable(h.edges[i] for i in edges))
            shapes.append((len(edges), len(covered)))
        return shapes


def _half_tables(
    edges: Sequence[Sequence[int]], vertices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """For every undominated subset T of ``vertices`` (bit k of the index
    stands for ``vertices[k]``): the m-bit masks of the edges T misses and of
    the edges T meets once. T is dominated if some v in T has no private edge
    (one T meets only at v); then E_U is in E_{U - v} for every U containing T."""
    subsets = np.arange(1 << len(vertices), dtype=np.uint32)
    zero = np.zeros_like(subsets)
    once = np.zeros_like(subsets)
    private = np.zeros_like(subsets)  # the vertices of T with a private edge
    for j, e in enumerate(edges):
        hit = subsets & sum(1 << k for k, v in enumerate(vertices) if v in e)
        zero |= (hit == 0).astype(np.uint32) << j
        once |= ((hit != 0) & (hit & (hit - 1) == 0)).astype(np.uint32) << j
        private |= hit * (hit & (hit - 1) == 0)  # hit if T meets e once
    return zero[private == subsets], once[private == subsets]


def noncolorable_subsets(
    h: ContextHypergraph, *, jobs: int = 1
) -> SubsetSweepResult:
    """Sweep all nonempty edge sub-collections for no-state configurations.

    A sub-collection S admits a state iff S is contained in E_T for some
    vertex set T, where E_T is the set of edges T meets exactly once. E_T of
    every undominated T is marked in a bit table over the 2^m edge bitmasks
    (bit p of uint64 word w is mask 64w + p), built from tables over the two
    halves of the vertices in order of first appearance in the edges (any
    split is exact; on pm-square this one keeps fewer T); m passes close the
    table downward (a subset-lattice zeta transform), and m more keep the
    no-state S whose every S - {i} is colorable: the critical ones. ``jobs``
    is accepted for compatibility and has no effect.
    """
    m, n = len(h.edges), len(h.vertices)
    caps = {"edges": (m, SUBSET_SWEEP_EDGE_CAP), "vertices": (n, SUBSET_SWEEP_VERTEX_CAP)}
    for what, (count, cap) in caps.items():
        if count > cap:
            raise ValueError(f"{count} {what} exceeds the sweep cap of {cap}")
    order = list(dict.fromkeys([v for e in h.edges for v in e] + list(range(n))))
    zero1, once1 = _half_tables(h.edges, order[: n // 2])
    zero2, once2 = _half_tables(h.edges, order[n // 2 :])
    marked = np.zeros(max(1 << m, 64), dtype=bool)
    marked[1 << m :] = True  # pad to one word; padding is never no-state
    rows = max(1, (1 << 16) // len(zero2))  # about 2^16 vertex sets per block
    for lo in range(0, len(zero1), rows):
        z, o = zero1[lo : lo + rows, None], once1[lo : lo + rows, None]
        marked[(o & zero2) | (z & once2)] = True
    colorable = np.packbits(marked, bitorder="little").view("<u8")
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
    masks = [64 * w + p for w in words for p in range(64) if int(critical[w]) >> p & 1]
    sets = sorted(tuple(i for i in range(m) if (mask >> i) & 1) for mask in masks)
    return SubsetSweepResult(total, tuple(sets))


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
        return {
            "separable_vertices": len(self.separable_vertices),
            "entangled_vertices": len(self.entangled_vertices),
            "separable_edges": len(self.separable_edges),
            "entangled_edges": len(self.entangled_edges),
            "mixed_edges": len(self.mixed_edges),
        }


def classify_contexts(
    h: ContextHypergraph, site_dims: Sequence[int]
) -> ContextClassification:
    """Partition vertices and edges by separability across the given sites."""
    separable = [is_product_state(v, site_dims) for v in h.vertices]
    sep_v = tuple(i for i, s in enumerate(separable) if s)
    ent_v = tuple(i for i, s in enumerate(separable) if not s)
    sep_e, ent_e, mix_e = [], [], []
    for k, e in enumerate(h.edges):
        flags = [separable[i] for i in e]
        if all(flags):
            sep_e.append(k)
        elif not any(flags):
            ent_e.append(k)
        else:
            mix_e.append(k)
    return ContextClassification(sep_v, ent_v, tuple(sep_e), tuple(ent_e), tuple(mix_e))


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
        chain = list(e)
        for a, b in zip(chain, chain[1:]):
            lines.append(f'  v{a} -- v{b} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
