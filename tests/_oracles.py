"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's own solver paths: state counting
enumerates all 2^|V| assignments, joint eigenbases come from the trace
and columns of each sign pattern's projector product instead of the
numerical pencil pipeline or the library's elimination, a
Pauli word acts on a sparse vector letter by letter, without its matrix,
the classical parity value comes from every +/-1 assignment, orthogonality
from every pair's dense inner product, separability from a Bareiss
elimination of each reshape, and a matrix's image, products, rank and kernel
from its dense rows, in Fraction-pair arithmetic and textbook elimination.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from qpencil.exact import ExactMatrix, Ray, _echelon, _sparse

# Complex numbers as (re, im) Fraction pairs, with arithmetic of their own.


def pair(z) -> tuple[Fraction, Fraction]:
    """An int or Fraction, or an (re, im) tuple of them, as an (re, im) Fraction pair."""
    if isinstance(z, tuple):
        return Fraction(z[0]), Fraction(z[1])
    return Fraction(z), Fraction(0)


def padd(a, b):
    return a[0] + b[0], a[1] + b[1]


def psub(a, b):
    return a[0] - b[0], a[1] - b[1]


def pmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def pdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def dense_rows(m: ExactMatrix) -> list[list[tuple[int, int]]]:
    """M's rows written out, zeros included, as (re, im) int pairs."""
    out = [[(0, 0)] * m.cols for _ in range(m.rows)]
    for i, row in enumerate(m.nonzeros):
        for j, re, im in row:
            out[i][j] = (re, im)
    return out


def identity(n: int) -> ExactMatrix:
    """The n x n identity, from its dense rows."""
    return ExactMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def pair_rows(m: ExactMatrix) -> list[list[tuple[Fraction, Fraction]]]:
    """M's dense rows as Fraction pairs."""
    return [[pair(z) for z in row] for row in dense_rows(m)]


def shifted_rows(m: ExactMatrix, shift=0) -> list[list[tuple[Fraction, Fraction]]]:
    """The dense rows of M - shift*I, I's ones on the main diagonal, as Fraction pairs."""
    rows = pair_rows(m)
    for i in range(min(m.rows, m.cols)):
        rows[i][i] = psub(rows[i][i], pair(shift))
    return rows


def apply_dense(m: ExactMatrix, vec, shift=0) -> tuple[tuple[Fraction, Fraction], ...]:
    """(M - shift*I) v, summed over every entry, zeros included, in Fraction pairs."""
    image = []
    for row in shifted_rows(m, shift):
        acc = pair(0)
        for a, x in zip(row, vec, strict=True):
            acc = padd(acc, pmul(a, pair(x)))
        image.append(acc)
    return tuple(image)


def naive_matmul(a, b):
    """The product of dense rows of (re, im) pairs, of ints or Fractions: a triple
    loop over every (i, j, k), zeros included."""
    out = [[(0, 0)] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                out[i][j] = padd(out[i][j], pmul(a[i][k], b[k][j]))
    return out


def product(*factors: ExactMatrix) -> ExactMatrix:
    """The left-to-right product of exact matrices, by naive_matmul on their dense rows."""
    rows = dense_rows(factors[0])
    for f in factors[1:]:
        rows = naive_matmul(rows, dense_rows(f))
    return ExactMatrix.from_rows(rows)


def naive_rank(a) -> int:
    """The rank of dense Fraction-pair rows, by forward elimination over every
    entry below each pivot."""
    work = [list(row) for row in a]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = pdiv(work[i][col], work[r][col])
            for j in range(len(work[0])):
                work[i][j] = psub(work[i][j], pmul(f, work[r][j]))
        r += 1
    return r


def reference_kernel(rows) -> list[list[tuple[Fraction, Fraction]]]:
    """A right-kernel basis of dense rows: Gauss-Jordan to reduced row echelon
    form over every entry in Fraction pairs, then per free column f the solution
    with x_f = 1 and every other free entry 0."""
    work = [[pair(z) for z in row] for row in rows]
    cols = len(work[0]) if work else 0
    pivots = []
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][col]
        work[r] = [pdiv(x, lead) for x in work[r]]
        for i in range(len(work)):
            if i != r:
                f = work[i][col]
                work[i] = [psub(x, pmul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [pair(0)] * cols
        vec[free] = pair(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = psub(pair(0), work[prow][free])
        basis.append(vec)
    return basis


def ray_of(vec) -> Ray:
    """The ray through a nonzero vector of Fraction pairs, its denominators cleared."""
    vec = [pair(z) for z in vec]
    den = math.lcm(*(x.denominator for z in vec for x in z))
    return Ray([(int(re * den), int(im * den)) for re, im in vec])


def raw_inner(u, v) -> tuple[Fraction, Fraction]:
    """Inner product of plain component lists (no canonicalization), as a pair."""
    acc = pair(0)
    for a, b in zip(u, v):
        re, im = pair(a)
        acc = padd(acc, pmul((re, -im), pair(b)))
    return acc


def orthogonal_neighbors(rays) -> list[set[int]]:
    """The orthogonality graph as neighbor sets, by every pair's inner product
    over all dense components, shared support or not."""
    neighbors: list[set[int]] = [set() for _ in rays]
    for i, j in itertools.combinations(range(len(rays)), 2):
        if raw_inner(rays[i].parts, rays[j].parts) == (0, 0):
            neighbors[i].add(j)
            neighbors[j].add(i)
    return neighbors


def is_product_state_by_elimination(r: Ray, site_dims) -> bool:
    """True iff the ray factorizes as a tensor product of one vector per site.

    Checked exactly: every successive left/right reshape must have rank one,
    by a Bareiss elimination of the reshape's dense rows.
    """
    total = math.prod(site_dims)
    if total != r.dim:
        raise ValueError(
            f"site dimensions {tuple(site_dims)} do not multiply to {r.dim}"
        )
    for split in range(1, len(site_dims)):
        cols = total // math.prod(site_dims[:split])
        rows = _sparse(r.parts[i : i + cols] for i in range(0, total, cols))
        if len(_echelon(ExactMatrix(total // cols, cols, rows))[1]) > 1:
            return False
    return True


def signed_components(ray: Ray, s: int) -> tuple[tuple[int, int], ...]:
    """The components of s * v for the ray's integer vector v, written out."""
    return tuple((s * re, s * im) for re, im in ray.parts)


def conjugate_transpose(m: ExactMatrix) -> ExactMatrix:
    """M^H, built entry by entry: entry (i, j) of M lands conjugated at (j, i)."""
    cols: list[list[tuple[int, int, int]]] = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.nonzeros):
        for j, re, im in row:
            cols[j].append((i, re, -im))
    return ExactMatrix(m.cols, m.rows, tuple(map(tuple, cols)))


def brute_state_count(edges: list[tuple[int, ...]], n_vertices: int) -> int:
    """Count {0,1} assignments with exactly one 1 per edge, over all 2^n."""
    if n_vertices > 22:
        raise ValueError("brute force capped at 22 vertices")
    assignments = np.arange(1 << n_vertices, dtype=np.uint32)
    ok = np.ones(len(assignments), dtype=bool)
    for e in edges:
        ok &= np.bitwise_count(assignments & sum(1 << v for v in e)) == 1
    return int(ok.sum())


def brute_maximal_cliques(adjacency) -> list[tuple[int, ...]]:
    """Every maximal clique, found by checking all 2^n vertex subsets."""
    n = len(adjacency)
    if n > 12:
        raise ValueError("brute force capped at 12 vertices")
    cliques = []
    for members in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    ):
        is_clique = all(b in adjacency[a] for a, b in itertools.combinations(members, 2))
        extendable = any(
            all(u in adjacency[v] for v in members) for u in range(n) if u not in members
        )
        if is_clique and not extendable:
            cliques.append(members)
    return sorted(cliques)


def brute_cliques(adjacency, d: int) -> list[tuple[int, ...]]:
    """Every d-clique, found by checking all d-subsets of the vertices."""
    return [
        members for members in itertools.combinations(range(len(adjacency)), d)
        if all(b in adjacency[a] for a, b in itertools.combinations(members, 2))
    ]


def parity_proofs(edges) -> list[tuple[int, ...]]:
    """Every odd-size set S of edges in which each vertex lies in an even
    number of edges. No state exists on S: its values summed over S are |S|
    counted edge by edge, but even counted vertex by vertex.

    Such sets are the odd elements of the GF(2) kernel of the vertex-by-edge
    incidence matrix. Elimination of the edges' incidence bitmasks tracks
    which edges each row combines; the rows that reduce to zero span the
    kernel, and all 2^(its dimension) elements are checked for odd size."""
    pivots: dict[int, tuple[int, int]] = {}  # lowest vertex bit -> (row, edges)
    kernel = []
    for j, e in enumerate(edges):
        row, combo = sum(1 << v for v in e), 1 << j
        while row and row & -row in pivots:
            pivot_row, pivot_combo = pivots[row & -row]
            row, combo = row ^ pivot_row, combo ^ pivot_combo
        if row:
            pivots[row & -row] = (row, combo)
        else:
            kernel.append(combo)
    if len(kernel) > 20:
        raise ValueError("enumeration capped at a kernel of dimension 20")
    proofs = []
    for picks in range(1 << len(kernel)):
        combo = 0
        for k, element in enumerate(kernel):
            if picks >> k & 1:
                combo ^= element
        if combo.bit_count() % 2:
            proofs.append(tuple(j for j in range(len(edges)) if combo >> j & 1))
    return sorted(proofs)


def admits_state(edges) -> bool:
    """Whether some {0,1} assignment puts exactly one 1 on every edge.

    A depth-first search on vertex bitmasks that stops at the first state:
    it branches on the open edge with the fewest free vertices, and a 1 on a
    vertex rules out every vertex of every edge through it."""
    masks = [sum(1 << v for v in e) for e in edges]

    def search(ones: int, ruled_out: int) -> bool:
        open_edges = [m & ~ruled_out for m in masks if not m & ones]
        if not open_edges:
            return True
        free = min(open_edges, key=int.bit_count)
        while free:
            v = free & -free
            free ^= v
            through_v = ruled_out
            for m in masks:
                if m & v:
                    through_v |= m
            if search(ones | v, through_v):
                return True
        return False

    return search(0, 0)


def is_separating(states, h) -> bool:
    """True iff every vertex pair is told apart by some state (an int bitmask),
    that is iff the vertices' value columns across the states are pairwise
    distinct."""
    n = len(h.vertices)
    columns = {tuple(s >> v & 1 for s in states) for v in range(n)}
    return len(columns) == n


def _times(m: ExactMatrix, v: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """M v for a dense vector of (re, im) int pairs, over M's stored row entries."""
    out = []
    for row in m.nonzeros:
        re = im = 0
        for k, ar, ai in row:
            br, bi = v[k]
            re, im = re + ar * br - ai * bi, im + ar * bi + ai * br
        out.append((re, im))
    return out


def joint_eigenrays_by_intersection(matrices: list[ExactMatrix]) -> set[Ray]:
    """All common eigenrays of commuting dichotomic operators (A_i^2 = I), by
    projectors: for every sign pattern s, Q_s = prod_i (I + s_i A_i) is 2^l
    times the projector onto the joint eigenspace, so its trace is 2^l times
    that space's dimension. Column j of Q_s is the factors applied to e_j one
    at a time; a pattern of dimension 1 gives a nonzero column as its ray.
    """
    d, l = matrices[0].rows, len(matrices)
    rays: set[Ray] = set()
    for signs in itertools.product((1, -1), repeat=l):
        trace, ray = 0, None
        for j in range(d):
            v = [(int(i == j), 0) for i in range(d)]
            for m, s in zip(matrices, signs):
                v = [(xr + s * yr, xi + s * yi) for (xr, xi), (yr, yi) in zip(v, _times(m, v))]
            trace += v[j][0]  # Q_s is Hermitian: its diagonal is real
            if ray is None and any(z != (0, 0) for z in v):
                ray = v
        if trace == 2**l:
            rays.add(Ray(ray))
    return rays


def two_qubit_determinant(v) -> tuple[Fraction, Fraction]:
    """v0*v3 - v1*v2 for a 4-component vector, as a pair."""
    c = [pair(x) for x in v]
    return psub(pmul(c[0], c[3]), pmul(c[1], c[2]))


# letter -> (flips its site's bit, phase exponent k of i**k on bit 0, on bit 1):
# Y|0> = i|1>, Y|1> = -i|0>, Z|1> = -|1>
_LETTER_ACTION = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 3), "Z": (0, 0, 2)}


def apply_word(word, vector: dict[int, tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """A Pauli word (its ``letters`` and ``phase_power``) applied to a sparse
    vector {basis state: (re, im)}, letter by letter: basis state b goes to a
    phase times b XOR x, where site s is bit n-1-s of b."""
    n = len(word.letters)
    out: dict[int, tuple[int, int]] = {}
    for b, (re, im) in vector.items():
        k = word.phase_power
        for s, letter in enumerate(word.letters):
            bit = 1 << (n - 1 - s)
            flips, k0, k1 = _LETTER_ACTION[letter]
            k += k1 if b & bit else k0
            b ^= bit if flips else 0
        for _ in range(k % 4):  # times i
            re, im = -im, re
        acc = out.get(b, (0, 0))
        out[b] = (acc[0] + re, acc[1] + im)
    return {b: z for b, z in out.items() if z != (0, 0)}


def check_sign_table(words, rays, eigentable) -> None:
    """Assert that word i has sign eigentable[k][i] on ray k, by ``apply_word``
    on the ray's nonzero components, and that the rows are distinct sign patterns."""
    assert len(set(eigentable)) == len(eigentable) == len(rays)
    for ray, signs in zip(rays, eigentable):
        vector = dict(ray.support)
        for word, s in zip(words, signs):
            expected = {b: (s * re, s * im) for b, (re, im) in vector.items()}
            assert apply_word(word, vector) == expected, (str(word), ray)


BRUTEFORCE_PAIR_CAP = 20


def classical_bruteforce(s) -> set[int]:
    """All products achievable by any +/-1 assignment to (site, letter) pairs.

    The independent oracle for ``parity.analyze``: enumerates every assignment
    to the distinct non-identity (site, letter) pairs of a ``ParityScenario``
    and collects the product of the observables' classical values.
    """
    pairs = sorted(s.letter_occurrences())
    if len(pairs) > BRUTEFORCE_PAIR_CAP:
        raise ValueError(
            f"{len(pairs)} distinct (site, letter) pairs exceeds the "
            f"brute-force cap of {BRUTEFORCE_PAIR_CAP}"
        )
    index = {p: k for k, p in enumerate(pairs)}
    results = set()
    for bits in range(1 << len(pairs)):
        total = 1
        for factors in s.observables:
            value = 1
            for f in factors:
                for site, letter in enumerate(f.letters):
                    if letter != "I" and (bits >> index[(site, letter)]) & 1:
                        value = -value
            total *= value
        results.add(total)
    return results
