"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Everything numeric is checked exactly; the only tolerances are the
stated runtime budgets. Criterion 8 sweeps all 16,777,215 context
sub-collections in well under a second; the rest complete in seconds.
"""

import itertools
import json
import time
from collections import Counter
from pathlib import Path

import pytest

from qpencil.cli import main

from qpencil.exact import (
    ExactMatrix,
    Ray,
    commutator_is_zero,
    is_product_state,
    nullspace,
)
from qpencil.logic import (
    ContextHypergraph,
    classify_contexts,
    enumerate_contexts,
    noncolorable_subsets,
    orthogonality_graph,
    two_valued_states,
)
from qpencil.parity import ParityScenario, analyze, eigenstate_table
from qpencil.pauli import PauliString, multiply, parse_pauli, realization
from qpencil.pencil import DegeneratePencilError, build, evaluate, joint_context

from _fixtures import (
    ALL_24_RAY_LITERALS,
    EXPECTED_BASES,
    GHZ_PLUS,
    GHZM_WORDS,
    HEADERS_ENTANGLED,
    HEADERS_PLAIN,
    SQUARE_TRIPLES,
)
from _oracles import (
    admits_state,
    apply_dense,
    brute_state_count,
    classical_bruteforce,
    conjugate_transpose,
    dense_rows,
    is_separating,
    naive_matmul,
    parity_proofs,
    signed_components,
)


def mats(*words):
    return [realization(parse_pauli(t)) for t in words]


def obs(*texts, sites):
    return ParityScenario(
        tuple(tuple(parse_pauli(f) for f in t.split("*")) for t in texts), sites
    )


@pytest.fixture(scope="module")
def pm_contexts():
    return {
        name: joint_context(mats(*triple), (1, 2, 4))
        for name, triple in SQUARE_TRIPLES.items()
    }


@pytest.fixture(scope="module")
def pm_hypergraph(pm_contexts):
    rays = [r for ctx in pm_contexts.values() for r in ctx.rays]
    return ContextHypergraph.completion_of(rays)


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    for name, triple in SQUARE_TRIPLES.items():
        ctx = joint_context(mats(*triple), (1, 2, 4))
        expected_rays = {Ray(v) for v in EXPECTED_BASES[name]}
        assert set(ctx.rays) == expected_rays, name
        headers = HEADERS_ENTANGLED if name == "col3" else HEADERS_PLAIN
        assert list(ctx.eigentable) == headers, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nCRITERION 1 PASS: six pencils reproduce their printed eigenbases "
        f"and sign headers exactly ({elapsed:.3f}s)"
    )


def test_criterion_2_24_24_completion(pm_contexts):
    start = time.perf_counter()
    rays = [r for ctx in pm_contexts.values() for r in ctx.rays]
    h = ContextHypergraph.completion_of(rays)
    assert len(h.vertices) == 24
    assert len(h.edges) == 24
    assert all(len(e) == 4 for e in h.edges)
    index = {r: i for i, r in enumerate(h.vertices)}
    for ctx in pm_contexts.values():
        edge = tuple(sorted(index[r] for r in ctx.rays))
        assert edge in h.edges
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"CRITERION 2 PASS: 24 rays complete to exactly 24 four-element "
        f"contexts containing all six primaries ({elapsed:.3f}s)"
    )


def test_criterion_3_no_two_valued_states(pm_hypergraph):
    start = time.perf_counter()
    states = two_valued_states(pm_hypergraph)
    elapsed = time.perf_counter() - start
    assert states == []
    assert elapsed < 5.0
    print(
        f"CRITERION 3 PASS: the 24-24 configuration admits zero two-valued "
        f"states ({elapsed:.3f}s)"
    )


def test_criterion_4_separability_partition(pm_contexts, pm_hypergraph):
    start = time.perf_counter()
    cls = classify_contexts(pm_hypergraph, (2, 2))
    counts = cls.counts()
    assert counts["separable_vertices"] == 16
    assert counts["entangled_vertices"] == 8
    assert counts["separable_edges"] == 12
    assert counts["entangled_edges"] == 4
    index = {r: i for i, r in enumerate(pm_hypergraph.vertices)}
    entangled_edge_set = {pm_hypergraph.edges[k] for k in cls.entangled_edges}
    for name in ("row3", "col3"):
        edge = tuple(sorted(index[r] for r in pm_contexts[name].rays))
        assert edge in entangled_edge_set
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"CRITERION 4 PASS: 16 separable rays in 12 contexts, 8 entangled "
        f"rays in 4 contexts incl. both entangled primaries ({elapsed:.3f}s)"
    )


def test_criterion_5_ghzm():
    start = time.perf_counter()
    terms = mats(*GHZM_WORDS)
    ctx = joint_context(terms, (1, 2, 4, 8))
    assert len(set(ctx.pencil_eigenvalues)) == 8  # nondegenerate
    assert all(not is_product_state(r, (2, 2, 2)) for r in ctx.rays)
    edges = enumerate_contexts(orthogonality_graph(list(ctx.rays)), 8)
    assert len(edges) == 1  # a single maximal clique

    h = ContextHypergraph.from_ray_groups([ctx.rays])
    states = two_valued_states(h)
    assert len(states) == 8
    assert is_separating(states, h)

    scenario = obs(*GHZM_WORDS, sites=3)
    report = analyze(scenario)
    assert report.quantum_value == -1
    assert report.classical_value == 1
    assert report.contradiction

    rows = eigenstate_table(ctx, scenario)
    by_ray = dict(zip(ctx.rays, rows))
    assert by_ray[Ray(GHZ_PLUS)] == (1, -1, -1, -1)
    for row in rows:
        product = 1
        for v in row:
            product *= v
        assert product == -1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"CRITERION 5 PASS: GHZM pencil nondegenerate, isolated entangled "
        f"context, 8 separating states, quantum -1 vs classical +1 "
        f"({elapsed:.3f}s)"
    )


def test_criterion_6_bipartite():
    start = time.perf_counter()
    table_scenario = obs("ZX*XZ", "XX", "ZZ", "XX*ZZ", sites=2)
    zx_xz, xx, zz, xx_zz = (realization(w) for w in table_scenario.composed())
    with pytest.raises(DegeneratePencilError) as err:
        joint_context([zx_xz, xx_zz], (1, 2))
    assert err.value.multiplicities == {-1: 2, 1: 2}

    ctx = joint_context([zx_xz, xx, zz], (1, 2, 4))
    bell = {Ray(v) for v in EXPECTED_BASES["col3"]}
    assert set(ctx.rays) == bell

    rows = dict(zip(ctx.rays, eigenstate_table(ctx, table_scenario)))
    assert rows[Ray([0, 1, 1, 0])] == (1, 1, -1, -1)
    assert rows[Ray([1, 0, 0, -1])] == (1, -1, 1, -1)
    assert rows[Ray([0, 1, -1, 0])] == (-1, -1, -1, 1)
    assert rows[Ray([1, 0, 0, 1])] == (-1, 1, 1, 1)

    base = analyze(obs("ZX*XZ", "XX*ZZ", sites=2))
    assert base.quantum_value == -1
    assert base.classical_value == 1
    assert base.contradiction
    extended = analyze(obs("ZX*XZ", "XX*ZZ", "YY*YY", sites=2))
    assert extended.quantum_value == base.quantum_value
    assert extended.classical_value == base.classical_value
    assert extended.contradiction == base.contradiction
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"CRITERION 6 PASS: two-term pencil degenerate, three-term variant "
        f"gives the Bell basis, all 16 co-measured signs match, appending "
        f"(YY)(YY) changes nothing ({elapsed:.3f}s)"
    )


def test_criterion_7_intro_fixture():
    start = time.perf_counter()
    first = ExactMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
    )
    second_literal = ExactMatrix.from_rows(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    )
    second = conjugate_transpose(second_literal)  # displayed transposed; symmetric
    assert second == second_literal
    assert commutator_is_zero(first, second)

    ctx = joint_context([first, second], (1, 2))
    for ray, signs in zip(ctx.rays, ctx.eigentable):
        for matrix, s in zip((first, second), signs):
            assert apply_dense(matrix, ray.parts) == signed_components(ray, s)

    def own_eigenbasis(matrix):
        basis = []
        for lam in (1, -1):
            basis.extend(nullspace(matrix, lam))
        return basis

    def is_eigenvector(matrix, ray):
        # both matrices square to the identity, so any eigenvalue is +1 or -1
        image = apply_dense(matrix, ray.parts)
        return any(image == signed_components(ray, s) for s in (1, -1))

    basis_first = own_eigenbasis(first)
    basis_second = own_eigenbasis(second)
    assert len(basis_first) == len(basis_second) == 4
    assert all(is_eigenvector(first, r) for r in basis_first)
    assert all(is_eigenvector(second, r) for r in basis_second)
    assert all(not is_eigenvector(second, r) for r in basis_first)
    assert all(not is_eigenvector(first, r) for r in basis_second)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"CRITERION 7 PASS: the pair is co-diagonalized only by its pencil; "
        f"neither matrix's own eigenbasis diagonalizes the other "
        f"({elapsed:.3f}s)"
    )


@pytest.fixture(scope="module")
def pm_sweep(pm_hypergraph):
    start = time.perf_counter()
    result = noncolorable_subsets(pm_hypergraph, jobs=2)
    return result, time.perf_counter() - start


def check_critical_sets_are_parity_proofs(h, critical):
    """The sweep's critical sets are exactly the odd elements of the GF(2)
    cycle space of h's incidence matrix, each a no-state set whose every
    S - {i} admits a state: both found by oracles sharing no code with it."""
    assert list(critical) == parity_proofs(h.edges)
    for s in critical:
        assert not admits_state([h.edges[j] for j in s])
        for i in s:
            assert admits_state([h.edges[j] for j in s if j != i]), (s, i)


def test_criterion_8_subset_sweep(pm_hypergraph, pm_sweep):
    # Convention: every labeled sub-collection of the 24 contexts is counted
    # separately (ascending bitmasks; vertices outside the chosen contexts
    # dropped). Class-level tallies quoted in the literature (1,233 no-state
    # sets with 6 critical ones) merge isomorphic copies, so the labeled
    # totals here are larger; the 18-ray/9-context critical configuration
    # must exist either way. See README "Counting conventions".
    result, elapsed = pm_sweep
    assert result.total == 739824
    assert len(result.critical) == 512
    tally = result.critical_shapes(pm_hypergraph)
    assert list(tally.items()) == [((9, 18), 16), ((11, 20), 240), ((13, 22), 240),
                                   ((15, 24), 16)]  # ascending by shape
    assert tally[(9, 18)] >= 1  # the 18-9 configuration exists
    assert elapsed < 60.0
    check_critical_sets_are_parity_proofs(pm_hypergraph, result.critical)
    print(
        f"CRITERION 8 PASS: sweep found 739824 labeled no-state "
        f"sub-collections, 512 critical incl. 16 of shape 18-9, each a "
        f"parity proof with a state on every S - {{i}} "
        f"(documented labeled-sub-collection convention; {elapsed:.1f}s)"
    )


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_criterion_8_parity_check_rejects_a_changed_critical_list(
    pm_hypergraph, pm_sweep, change
):
    critical = list(pm_sweep[0].critical)
    if change == "extra":  # a no-state superset of a critical set
        first = critical[0]
        extra = min(set(range(24)) - set(first))
        critical = sorted(critical + [tuple(sorted(first + (extra,)))])
    else:
        del critical[100]
    with pytest.raises(AssertionError):
        check_critical_sets_are_parity_proofs(pm_hypergraph, critical)


def test_criterion_9_property_suites(pm_contexts):
    start = time.perf_counter()

    # pencil/term exact commutation on every scenario pencil
    pencils = [
        (mats(*triple), (1, 2, 4)) for triple in SQUARE_TRIPLES.values()
    ] + [
        (mats(*GHZM_WORDS), (1, 2, 4, 8)),
        (mats("ZX", "YY"), (1, 2)),
    ]
    for terms, coeffs in pencils:
        p = evaluate(build(terms, coeffs))
        for t in terms:
            assert commutator_is_zero(p, t)

    # snapped rays re-verified as exact +/-1 eigenvectors of every term
    for name, ctx in pm_contexts.items():
        terms = mats(*SQUARE_TRIPLES[name])
        for ray, signs in zip(ctx.rays, ctx.eigentable):
            for term, s in zip(terms, signs):
                assert apply_dense(term, ray.parts) == signed_components(ray, s)

    # solver vs 2^|V| brute force on sub-hypergraphs drawn from the 24-24 set
    rays = [Ray(v) for v in ALL_24_RAY_LITERALS]
    h = ContextHypergraph.completion_of(rays)
    import random

    rng = random.Random(99)
    drawn = 0
    for _ in range(120):
        picks = rng.sample(range(24), rng.randint(1, 7))
        covered = set(itertools.chain.from_iterable(h.edges[i] for i in picks))
        if len(covered) > 16:
            continue
        sub = h.sub_hypergraph(picks)
        assert len(two_valued_states(sub)) == brute_state_count(
            list(sub.edges), len(sub.vertices)
        )
        drawn += 1
    assert drawn >= 40

    # Pauli homomorphism over all two-site word pairs
    all_words = [PauliString((a, b)) for a in "IXYZ" for b in "IXYZ"]
    for a, b in itertools.product(all_words, repeat=2):
        assert dense_rows(realization(multiply(a, b))) == naive_matmul(
            dense_rows(realization(a)), dense_rows(realization(b)))

    # the classical side is forced to +1 in both parity scenarios
    assert classical_bruteforce(obs(*GHZM_WORDS, sites=3)) == {1}
    assert classical_bruteforce(obs("ZX*XZ", "XX*ZZ", sites=2)) == {1}

    elapsed = time.perf_counter() - start
    print(
        f"CRITERION 9 PASS: commutation, exact eigenvector, solver-vs-oracle, "
        f"homomorphism and forced-classical properties all hold ({elapsed:.1f}s)"
    )


SCENARIOS = Path(__file__).resolve().parent / "scenarios"


def analyze_file(capsys, name):
    """``qpencil analyze --file`` on a scenario under tests/scenarios, as JSON,
    with the hypergraph its report describes."""
    assert main(["analyze", "--file", str(SCENARIOS / name), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    data = report["hypergraph"]
    h = ContextHypergraph(tuple(Ray(v) for v in data["vertices"]),
                          tuple(map(tuple, data["edges"])), data["dim"])
    return report, h


def sweep_error(capsys, name):
    code = main(["subsets", "--file", str(SCENARIOS / name)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    return captured.err


def test_mermin_star_completes_to_the_kernaghan_peres_set(capsys):
    # The paper's second configuration: the five lines of the GHZ-Mermin star.
    # Every one of its 40 rays lies in some basis, and its 25 bases are the
    # Kernaghan-Peres set (Phys. Lett. A 198, 1, 1995).
    start = time.perf_counter()
    report, h = analyze_file(capsys, "mermin_star.scn")
    assert (len(h.vertices), len(h.edges), h.dim) == (40, 25, 8)
    assert Counter(v for e in h.edges for v in e) == {v: 5 for v in range(40)}
    assert report["primary_edges"] == [0, 9, 15, 21, 24]
    assert report["two_valued_states"] == 0
    assert report["classification"] == {
        "separable_vertices": 32, "entangled_vertices": 8,
        "separable_edges": 16, "entangled_edges": 1, "mixed_edges": 8,
    }
    # independent witnesses for the 0: parity proofs, and a search for one state
    proofs = parity_proofs(h.edges)
    shapes = Counter((len(p), len({v for j in p for v in h.edges[j]})) for p in proofs)
    assert shapes == {(11, 36): 320, (13, 38): 640, (15, 40): 64}
    assert not admits_state(h.edges)
    assert not admits_state([h.edges[j] for j in min(proofs, key=len)])
    # the sweep of all 2^25 - 1 sub-collections (cf. B. Waegell & P. K. Aravind,
    # J. Phys. A 45, 405301, 2012)
    sweep_start = time.perf_counter()
    argv = ["subsets", "--file", str(SCENARIOS / "mermin_star.scn"), "--format", "json",
            "--critical"]
    assert main(argv) == 0
    sweep_elapsed = time.perf_counter() - sweep_start
    sweep = json.loads(capsys.readouterr().out)
    assert (sweep["swept"], sweep["total_no_state"], sweep["critical_count"]) == (
        2**25 - 1, 1415904, 5504)
    assert sweep["critical_shapes"] == [
        {"contexts": 11, "rays": 36, "count": 320}, {"contexts": 13, "rays": 38, "count": 960},
        {"contexts": 13, "rays": 39, "count": 3840}, {"contexts": 15, "rays": 40, "count": 384},
    ]
    critical = [tuple(s) for s in sweep["critical"]]
    assert set(proofs) <= set(critical)  # 1,024 of the 5,504 have a parity proof
    for s in critical[::16]:  # the oracle's search: no state on S, one on each S - {i}
        assert not admits_state([h.edges[j] for j in s])
        for i in s:
            assert admits_state([h.edges[j] for j in s if j != i]), (s, i)
    assert sweep_elapsed < 60.0
    elapsed = time.perf_counter() - start
    print(
        f"\nMERMIN STAR PASS: 40 rays complete to 25 contexts, 5 per ray, with "
        f"no two-valued state and 1,024 parity proofs; the sweep finds 1,415,904 "
        f"no-state and 5,504 critical sub-collections, every parity proof among "
        f"them ({sweep_elapsed:.1f}s sweep, {elapsed:.2f}s)"
    )


def test_two_qubit_pauli_configuration(capsys, pm_hypergraph):
    # The 15 maximal commuting sets of two-qubit Pauli words: the closure of
    # the PM square in the paper's four-dimensional system (cf. Waegell &
    # Aravind, J. Phys. A 44, 505303, 2011).
    start = time.perf_counter()
    report, h = analyze_file(capsys, "two_qubit_paulis.scn")
    assert (len(h.vertices), len(h.edges), h.dim) == (60, 105, 4)
    assert Counter(v for e in h.edges for v in e) == {v: 7 for v in range(60)}
    assert report["primary_edges"] == [0, 8, 16, 33, 40, 45, 52, 73, 77, 82, 86, 97,
                                       99, 102, 104]
    assert report["two_valued_states"] == 0
    assert not admits_state(h.edges)
    assert report["classification"] == {
        "separable_vertices": 36, "entangled_vertices": 24,
        "separable_edges": 45, "entangled_edges": 24, "mixed_edges": 36,
    }
    index = {r: i for i, r in enumerate(h.vertices)}
    for e in pm_hypergraph.edges:
        assert tuple(sorted(index[pm_hypergraph.vertices[v]] for v in e)) in h.edges
    assert "105 edges exceeds the sweep cap of 30" in sweep_error(capsys, "two_qubit_paulis.scn")
    elapsed = time.perf_counter() - start
    print(
        f"\nTWO-QUBIT PASS: 60 rays complete to 105 contexts, 7 per ray, with "
        f"no two-valued state; the PM square's 24 contexts are among them "
        f"({elapsed:.2f}s)"
    )
