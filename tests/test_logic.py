import itertools
import json
import random
from types import SimpleNamespace

import pytest

from qpencil import logic as logic_module
from qpencil.exact import Ray, inner_product
from qpencil.logic import (
    ContextHypergraph,
    TwoValuedState,
    classify_contexts,
    enumerate_contexts,
    is_separating,
    noncolorable_subsets,
    orthogonality_graph,
    to_dot,
    two_valued_states,
    _edge_bitmasks,
)

from _fixtures import ALL_24_RAY_LITERALS, EXPECTED_BASES
from _oracles import brute_state_count


@pytest.fixture(scope="module")
def pm_hypergraph():
    rays = [Ray(v) for v in ALL_24_RAY_LITERALS]
    return ContextHypergraph.completion_of(rays)


@pytest.fixture(scope="module")
def ghzm_hypergraph():
    basis = [
        (1, 0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0, -1),
        (0, 1, 0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, -1, 0),
        (0, 0, 1, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, -1, 0, 0),
        (0, 0, 0, 1, 1, 0, 0, 0), (0, 0, 0, 1, -1, 0, 0, 0),
    ]
    return ContextHypergraph.from_ray_groups([[Ray(v) for v in basis]])


class TestOrthogonalityGraph:
    def test_24_rays_are_9_regular(self):
        rays = [Ray(v) for v in ALL_24_RAY_LITERALS]
        adj = orthogonality_graph(rays)
        assert len(adj) == 24
        assert all(len(neighbors) == 9 for neighbors in adj)

    def test_context_is_complete_graph(self):
        rays = [Ray(v) for v in EXPECTED_BASES["row1"]]
        adj = orthogonality_graph(rays)
        assert all(len(a) == 3 for a in adj)

    def test_nonorthogonal_pair_has_no_edge(self):
        adj = orthogonality_graph([Ray([1, 1, 1, 1]), Ray([-1, -1, -1, 1])])
        assert adj == [set(), set()]

    def test_irreflexive_and_symmetric(self):
        rays = [Ray(v) for v in ALL_24_RAY_LITERALS[:10]]
        adj = orthogonality_graph(rays)
        for i, neighbors in enumerate(adj):
            assert i not in neighbors
            for j in neighbors:
                assert i in adj[j]

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            orthogonality_graph([Ray([1, 0]), Ray([1, 0, 0])])


class TestEnumerateContexts:
    def test_pm_has_24_cliques(self):
        rays = [Ray(v) for v in ALL_24_RAY_LITERALS]
        edges = enumerate_contexts(orthogonality_graph(rays), 4)
        assert len(edges) == 24
        assert all(len(e) == 4 for e in edges)

    def test_ghzm_basis_single_clique(self, ghzm_hypergraph):
        adj = orthogonality_graph(list(ghzm_hypergraph.vertices))
        edges = enumerate_contexts(adj, 8)
        assert len(edges) == 1

    def test_one_basis_one_clique(self):
        rays = [Ray(v) for v in EXPECTED_BASES["row3"]]
        edges = enumerate_contexts(orthogonality_graph(rays), 4)
        assert edges == (tuple(range(4)),)

    def test_non_completable_set_rejected(self):
        rays = [Ray([1, 0, 0, 0]), Ray([0, 1, 0, 0]), Ray([1, 1, 1, 1])]
        with pytest.raises(ValueError, match="not completable"):
            enumerate_contexts(orthogonality_graph(rays), 4)

    def test_empty_ray_set_rejected(self):
        with pytest.raises(ValueError, match="cannot complete an empty ray set"):
            ContextHypergraph.completion_of([])

    def test_edges_exactly_orthogonal(self, pm_hypergraph):
        for e in pm_hypergraph.edges:
            for i, j in itertools.combinations(e, 2):
                assert inner_product(
                    pm_hypergraph.vertices[i], pm_hypergraph.vertices[j]
                ) == (0, 0)


class TestHypergraphConstruction:
    def test_pm_counts(self, pm_hypergraph):
        assert len(pm_hypergraph.vertices) == 24
        assert len(pm_hypergraph.edges) == 24
        assert pm_hypergraph.dim == 4

    def test_primary_contexts_disjoint_and_present(self, pm_hypergraph):
        index = {r: i for i, r in enumerate(pm_hypergraph.vertices)}
        primary = [
            tuple(sorted(index[Ray(v)] for v in basis))
            for basis in EXPECTED_BASES.values()
        ]
        seen = set()
        for edge in primary:
            assert edge in pm_hypergraph.edges
            assert not (set(edge) & seen)
            seen.update(edge)

    def test_duplicate_rays_merge(self):
        groups = [
            [Ray(v) for v in EXPECTED_BASES["row1"]],
            [Ray([-v0, -v1, -v2, -v3]) for v0, v1, v2, v3 in EXPECTED_BASES["row1"]],
        ]
        h = ContextHypergraph.from_ray_groups(groups)
        assert len(h.vertices) == 4
        assert len(h.edges) == 1

    def test_nonorthogonal_edge_rejected(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            ContextHypergraph.from_ray_groups(
                [[Ray([1, 0, 0, 0]), Ray([1, 1, 0, 0]), Ray([0, 0, 1, 0]), Ray([0, 0, 0, 1])]]
            )

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="all rays must share one dimension"):
            ContextHypergraph.from_ray_groups([[Ray([1, 0]), Ray([0, 1])], [Ray([1, 0, 0])]])

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"dim": 2, "vertices": [[1, 0], [0, 1]], "edges": [[0, 5]]}, "outside"),
            (
                {"dim": 2, "vertices": [[1, 0, 0, 0], [0, 1, 0, 0]], "edges": [[0, 1]]},
                "dimension",
            ),
            ({"dim": 2, "vertices": [[1, 0], [0, 1]], "edges": [[0, 1], [1, 0]]}, "ascending"),
            ({"dim": 2.0, "vertices": [[1, 0], [0, 1]], "edges": [[0, 1]]}, "2.0 is not an integer"),
            ({"dim": 2, "vertices": [[1, 0], [0, 1]], "edges": [[0, True]]}, "not an integer"),
            ({"dim": 2, "vertices": [[1, 0], [0, 1]], "edges": [[0.0, 1.0]]}, "not an integer"),
            ({"dim": 2, "vertices": [[1, 0], [0, 1]], "edges": [[0, 0]]},
             r"edge \(0, 0\) does not have 2 distinct vertices"),
            ({"dim": 2, "vertices": [[1, 0], [0, 1]], "edges": [[0, 1], [0, 1]]},
             r"duplicate edge \(0, 1\)"),
            ({"dim": 2, "vertices": [[1, 0], [0, 1], [1, 1]], "edges": [[0, 1]]},
             "every vertex must belong to at least one edge"),
        ],
        ids=[
            "index-out-of-range", "vertex-dimension", "unsorted-edge",
            "float-dimension", "bool-index", "float-index",
            "repeated-vertex", "duplicate-edge", "uncovered-vertex",
        ],
    )
    def test_malformed_json_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            ContextHypergraph.from_json(data)

    def test_json_roundtrip(self, pm_hypergraph):
        data = json.loads(json.dumps(pm_hypergraph.to_json()))
        again = ContextHypergraph.from_json(data)
        assert again == pm_hypergraph


class TestTwoValuedStates:
    def test_pm_admits_none(self, pm_hypergraph):
        assert two_valued_states(pm_hypergraph) == []

    def test_ghzm_admits_eight(self, ghzm_hypergraph):
        states = two_valued_states(ghzm_hypergraph)
        assert len(states) == 8
        for s in states:
            assert sum(s.values) == 1

    def test_single_context_four_states(self):
        h = ContextHypergraph.from_ray_groups([[Ray(v) for v in EXPECTED_BASES["row1"]]])
        states = two_valued_states(h)
        assert len(states) == 4
        assert sorted(s.ones()[0] for s in states) == [0, 1, 2, 3]

    def test_every_state_satisfies_every_edge(self, pm_hypergraph):
        sub = pm_hypergraph.sub_hypergraph([0, 5, 9, 13])
        for s in two_valued_states(sub):
            for e in sub.edges:
                assert sum(s.values[i] for i in e) == 1

    def test_deterministic_order(self, ghzm_hypergraph):
        a = two_valued_states(ghzm_hypergraph)
        b = two_valued_states(ghzm_hypergraph)
        assert a == b

    def test_matches_bruteforce_oracle_on_drawn_subcollections(self, pm_hypergraph):
        rng = random.Random(2024)
        checked = 0
        for _ in range(60):
            k = rng.randint(1, 6)
            picks = rng.sample(range(24), k)
            covered = set(
                itertools.chain.from_iterable(pm_hypergraph.edges[i] for i in picks)
            )
            if len(covered) > 16:
                continue
            sub = pm_hypergraph.sub_hypergraph(picks)
            expected = brute_state_count(list(sub.edges), len(sub.vertices))
            assert len(two_valued_states(sub)) == expected
            checked += 1
        assert checked >= 20

    def test_matches_bruteforce_exhaustively_on_pairs(self, pm_hypergraph):
        for i, j in itertools.combinations(range(0, 24, 3), 2):
            sub = pm_hypergraph.sub_hypergraph([i, j])
            expected = brute_state_count(list(sub.edges), len(sub.vertices))
            assert len(two_valued_states(sub)) == expected


class TestMonotonicityAndClosure:
    def test_vertex_preserving_edge_addition_never_adds_states(self, pm_hypergraph):
        # guaranteed form: the added context draws only on already-covered rays
        rng = random.Random(7)
        masks = _edge_bitmasks(pm_hypergraph.edges)
        checked = 0
        for _ in range(400):
            k = rng.randint(2, 12)
            picks = rng.sample(range(24), k)
            covered = 0
            for i in picks:
                covered |= masks[i]
            extras = [
                e for e in range(24)
                if e not in picks and masks[e] & ~covered == 0
            ]
            if not extras:
                continue
            extra = rng.choice(extras)
            before = two_valued_states(pm_hypergraph.sub_hypergraph(picks))
            after = two_valued_states(
                pm_hypergraph.sub_hypergraph(picks + [extra])
            )
            assert len(after) <= len(before)
            checked += 1
        assert checked >= 30

    def test_no_state_is_upward_closed(self, pm_hypergraph):
        # supersets of a no-state collection admit no state either
        def has_state(keep):
            return bool(two_valued_states(pm_hypergraph.sub_hypergraph(keep)))

        assert not has_state(range(24))
        rng = random.Random(5)
        for _ in range(40):
            keep = rng.sample(range(24), rng.randint(18, 23))
            if not has_state(keep):
                for extra in range(24):
                    if extra not in keep:
                        assert not has_state(keep + [extra])
                break


class TestIsSeparating:
    def test_ghzm_states_separate(self, ghzm_hypergraph):
        states = two_valued_states(ghzm_hypergraph)
        assert is_separating(states, ghzm_hypergraph)

    def test_empty_state_list_on_two_vertices(self, ghzm_hypergraph):
        assert not is_separating([], ghzm_hypergraph)

    def test_single_context_indicator_states_separate(self):
        h = ContextHypergraph.from_ray_groups([[Ray(v) for v in EXPECTED_BASES["row2"]]])
        assert is_separating(two_valued_states(h), h)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_pair_loop_on_random_hypergraphs(self, seed):
        # abstract hypergraphs on 1..7 vertices, passed as the two fields the
        # state search reads, with their own states, random state lists and none
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(40):
            n = rng.randint(1, 7)
            h = SimpleNamespace(edges=_random_edges(rng, n, rng.randint(1, 4)), vertices=range(n))
            random_states = [
                TwoValuedState(tuple(rng.randint(0, 1) for _ in range(n)))
                for _ in range(rng.randint(1, 4))
            ]
            for states in (two_valued_states(h), random_states, []):
                expected = _separating_by_pairs(states, h)
                assert is_separating(states, h) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("states", [[], [TwoValuedState((1,))]], ids=["none", "one"])
    def test_one_vertex_is_separated(self, states):
        h = SimpleNamespace(edges=((0,),), vertices=range(1))
        assert is_separating(states, h) == _separating_by_pairs(states, h) is True


def _separating_by_pairs(states, h) -> bool:
    """Reference: the pair loop, some state telling each vertex pair apart."""
    n = len(h.vertices)
    for u in range(n):
        for v in range(u + 1, n):
            if not any(s.values[u] != s.values[v] for s in states):
                return False
    return True


def _brute_sweep(edges) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The sweep's answer by brute force: every sub-collection is solved on its
    own; the critical ones are the no-state sets with no no-state S - {i}."""
    m = len(edges)
    no_state = set()
    for mask in range(1, 1 << m):
        chosen = [edges[i] for i in range(m) if (mask >> i) & 1]
        induced = sorted(set(itertools.chain.from_iterable(chosen)))
        relabel = {v: i for i, v in enumerate(induced)}
        relabeled = [tuple(relabel[v] for v in e) for e in chosen]
        if brute_state_count(relabeled, len(induced)) == 0:
            no_state.add(mask)
    critical = sorted(
        tuple(i for i in range(m) if (mask >> i) & 1)
        for mask in no_state
        if not any((mask >> i) & 1 and mask ^ (1 << i) in no_state for i in range(m))
    )
    return len(no_state), tuple(critical)


def _random_edges(rng: random.Random, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    sizes = rng.choices((2, 3, 4), weights=(3, 3, 1), k=m)  # mostly 2 and 3
    return tuple(tuple(sorted(rng.sample(range(n), min(k, n)))) for k in sizes)


def _seeded_picks(seed: int) -> list[int]:
    rng = random.Random(seed)
    return sorted(rng.sample(range(24), rng.randint(6, 12)))


# the first 6 pm-square contexts, seeded random picks (7/16, 7/19, 9/21 and
# 10/21 contexts/rays; an odd ray count splits the vertices into halves of
# different sizes), and 11 contexts on 20 rays that hold one critical set
ORACLE_PICKS = [
    [0, 1, 2, 3, 4, 5],
    *(_seeded_picks(seed) for seed in (1, 3, 9, 17)),
    [0, 1, 2, 5, 6, 7, 8, 13, 17, 19, 20],
]
ORACLE_PICK_IDS = ["first6", "seed1", "seed3", "seed9", "seed17", "critical11"]


class TestNoncolorableSubsets:
    def test_single_edge_hypergraph_total_zero(self):
        h = ContextHypergraph.from_ray_groups([[Ray(v) for v in EXPECTED_BASES["row1"]]])
        result = noncolorable_subsets(h)
        assert result.total == 0
        assert result.critical == ()

    @pytest.mark.parametrize("picks", ORACLE_PICKS, ids=ORACLE_PICK_IDS)
    def test_matches_oracle_on_small_subhypergraph(self, pm_hypergraph, picks):
        sub = pm_hypergraph.sub_hypergraph(picks)
        result = noncolorable_subsets(sub)
        assert (result.total, result.critical) == _brute_sweep(sub.edges)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_oracle_on_random_hypergraphs(self, m):
        # abstract hypergraphs on 2..12 vertices, passed as the two fields the
        # sweep reads; m < 6 edges fit in one padded word of the bit table,
        # m >= 6 reach the passes across words
        rng = random.Random(m)
        for _ in range(30):
            n = rng.randint(2, 12)
            h = SimpleNamespace(edges=_random_edges(rng, n, m), vertices=range(n))
            result = noncolorable_subsets(h)
            assert (result.total, result.critical) == _brute_sweep(h.edges), h

    def test_criticality_postcondition(self, pm_hypergraph):
        # on a mid-size sub-hypergraph: critical sets have no state, and
        # dropping any single context re-admits one
        sub = pm_hypergraph.sub_hypergraph(list(range(12)))
        result = noncolorable_subsets(sub)
        for critical in result.critical[:10]:
            chosen = list(critical)
            assert not two_valued_states(sub.sub_hypergraph(chosen))
            for drop in range(len(chosen)):
                assert two_valued_states(
                    sub.sub_hypergraph(chosen[:drop] + chosen[drop + 1 :])
                )

    def test_jobs_parallel_matches_serial(self, pm_hypergraph):
        sub = pm_hypergraph.sub_hypergraph(list(range(10)))
        serial = noncolorable_subsets(sub, jobs=1)
        parallel = noncolorable_subsets(sub, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize(
        "cap, limit",
        [("SUBSET_SWEEP_EDGE_CAP", 10), ("SUBSET_SWEEP_VERTEX_CAP", 20)],
        ids=["edge", "vertex"],
    )
    def test_edge_cap(self, pm_hypergraph, monkeypatch, cap, limit):
        import qpencil.logic as logic_mod

        monkeypatch.setattr(logic_mod, cap, limit)
        with pytest.raises(ValueError, match="exceeds the sweep cap"):
            noncolorable_subsets(pm_hypergraph)


def _sweep_with_split(monkeypatch, h, halves=None):
    """The sweep, with the halves' vertex lists and table lengths recorded; with
    ``halves`` given, the tables are built on those halves instead of the
    sweep's own (the range split ``range(n // 2)``, ``range(n // 2, n)``
    is the reference)."""
    real = logic_module._half_tables
    seen, forced = [], iter(halves or ())

    def recording(edges, vertices):
        vertices = list(next(forced, vertices))
        zero, once = real(edges, vertices)
        seen.append((vertices, len(zero)))
        return zero, once

    with monkeypatch.context() as patch:
        patch.setattr(logic_module, "_half_tables", recording)
        return noncolorable_subsets(h), seen


def _range_halves(n):
    return [range(n // 2), range(n // 2, n)]


class TestSweepSplit:
    """Any split of the vertices gives the same sweep; the vertices halved in
    order of first appearance in the edges keep fewer undominated sets."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_random_hypergraphs_match_the_range_split(self, monkeypatch, m):
        rng = random.Random(100 + m)
        for _ in range(20):
            n = rng.randint(2, 12)
            h = SimpleNamespace(edges=_random_edges(rng, n, m), vertices=range(n))
            result, seen = _sweep_with_split(monkeypatch, h)
            reference, _ = _sweep_with_split(monkeypatch, h, _range_halves(n))
            assert result == reference, h
            order = list(dict.fromkeys([v for e in h.edges for v in e] + list(range(n))))
            assert [v for v, _ in seen] == [order[: n // 2], order[n // 2 :]]

    @pytest.mark.parametrize("picks", [range(8), range(4, 14), range(0, 24, 2), range(20)])
    def test_pm_square_sub_collections_match_the_range_split(
        self, monkeypatch, pm_hypergraph, picks
    ):
        h = pm_hypergraph.sub_hypergraph(list(picks))
        n = len(h.vertices)
        result, seen = _sweep_with_split(monkeypatch, h)
        reference, range_seen = _sweep_with_split(monkeypatch, h, _range_halves(n))
        assert result == reference
        if len(picks) == 20:  # the benchmark's sweep: 1,408 x 1,255 pairs, not 1,967 x 1,670
            assert [size for _, size in seen] == [1408, 1255]
            assert [size for _, size in range_seen] == [1967, 1670]


class TestClassification:
    def test_pm_partition(self, pm_hypergraph):
        cls = classify_contexts(pm_hypergraph, (2, 2))
        counts = cls.counts()
        assert counts["separable_vertices"] == 16
        assert counts["entangled_vertices"] == 8
        assert counts["separable_edges"] == 12
        assert counts["entangled_edges"] == 4
        assert counts["mixed_edges"] == 8

    def test_entangled_part_contains_primary_entangled_contexts(self, pm_hypergraph):
        cls = classify_contexts(pm_hypergraph, (2, 2))
        index = {r: i for i, r in enumerate(pm_hypergraph.vertices)}
        row3 = tuple(sorted(index[Ray(v)] for v in EXPECTED_BASES["row3"]))
        col3 = tuple(sorted(index[Ray(v)] for v in EXPECTED_BASES["col3"]))
        assert row3 in {pm_hypergraph.edges[k] for k in cls.entangled_edges}
        assert col3 in {pm_hypergraph.edges[k] for k in cls.entangled_edges}

    def test_sub_hypergraph_sizes(self, pm_hypergraph):
        cls = classify_contexts(pm_hypergraph, (2, 2))
        separable = pm_hypergraph.sub_hypergraph(cls.separable_edges)
        entangled = pm_hypergraph.sub_hypergraph(cls.entangled_edges)
        assert len(separable.vertices) == 16
        assert len(separable.edges) == 12
        assert len(entangled.vertices) == 8
        assert len(entangled.edges) == 4

    def test_ghzm_all_entangled(self, ghzm_hypergraph):
        cls = classify_contexts(ghzm_hypergraph, (2, 2, 2))
        assert cls.counts()["entangled_vertices"] == 8
        assert cls.counts()["entangled_edges"] == 1

    def test_dimension_mismatch(self, pm_hypergraph):
        with pytest.raises(ValueError):
            classify_contexts(pm_hypergraph, (2, 3))


class TestDotExport:
    def test_deterministic_and_wellformed(self, pm_hypergraph):
        dot = to_dot(pm_hypergraph)
        assert dot == to_dot(pm_hypergraph)
        assert dot.startswith('graph "contexts" {')
        assert dot.rstrip().endswith("}")
        assert dot.count("v0 ") >= 1
        # one chain of 3 segments per 4-vertex context
        assert dot.count(" -- ") == 3 * len(pm_hypergraph.edges)
