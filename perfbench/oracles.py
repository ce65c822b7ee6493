"""Independent oracles that check the benchmark's outputs.

None of them calls into ``qpencil``: Pauli words are handled as GF(2)
symplectic bit vectors or as float ``numpy.kron`` products, and two-valued
states are counted by exhaustive breadth-first enumeration.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np


class OracleMismatch(AssertionError):
    """A program output disagrees with the oracle."""


# ---------------------------------------------------------------------------
# GF(2) symplectic form of Pauli words: bit q of x (of z) is set when site q
# carries X or Y (Z or Y).


def symplectic(word: str) -> tuple[int, int]:
    x = sum(1 << q for q, letter in enumerate(word) if letter in "XY")
    z = sum(1 << q for q, letter in enumerate(word) if letter in "ZY")
    return x, z


def words_commute(a: str, b: str) -> bool:
    (xa, za), (xb, zb) = symplectic(a), symplectic(b)
    return ((xa & zb) ^ (za & xb)).bit_count() % 2 == 0


def gf2_rank(words: Sequence[str]) -> int:
    """Rank over GF(2) of the words' symplectic vectors (x | z << n)."""
    basis: list[int] = []
    for word in words:
        x, z = symplectic(word)
        v = x | (z << len(word))
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def predicted_multiplicities(words: Sequence[str]) -> dict[int, int]:
    """Pencil spectrum of k independent commuting words under weights 1, 2, 4...

    Each of the 2^k joint sign patterns is an eigenspace of dimension
    2^(n-k), and binary weights give each pattern its own sum. The term
    signs only permute the patterns, so they do not enter the prediction.
    """
    n = len(words[0])
    k = gf2_rank(words)
    if k != len(words):
        raise ValueError(f"words {list(words)} are not independent (rank {k})")
    weights = [1 << i for i in range(k)]
    sums = {
        sum(w * e for w, e in zip(weights, signs))
        for signs in itertools.product((1, -1), repeat=k)
    }
    return {s: 1 << (n - k) for s in sorted(sums)}


def check_multiplicities(words: Sequence[str], reported: dict[int, int]):
    expected = predicted_multiplicities(words)
    if dict(reported) != expected:
        raise OracleMismatch(
            f"{list(words)}: multiplicities {dict(reported)}, oracle predicts {expected}"
        )


# ---------------------------------------------------------------------------
# Float eigen-check of a joint context against numpy.kron matrices.

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_TOL = 1e-9


def word_matrix(word: str) -> np.ndarray:
    m = np.ones((1, 1), dtype=complex)
    for letter in word:
        m = np.kron(m, _PAULI[letter])
    return m


def check_context(
    words: Sequence[str],
    rays: Sequence[Sequence[complex]],
    eigentable: Sequence[Sequence[int]],
    eigenvalues: Sequence[int],
):
    """Every ray is an eigenvector of every word with the reported sign.

    Also checks that there are 2^n pairwise-orthogonal rays and that the
    pencil eigenvalues are the binary-weighted sign sums, strictly ascending.
    """
    d = 1 << len(words[0])
    if not (len(rays) == len(eigentable) == len(eigenvalues) == d):
        raise OracleMismatch(f"expected {d} rays, table rows and eigenvalues")
    matrices = [word_matrix(w) for w in words]
    weights = [1 << i for i in range(len(words))]
    vectors = [np.asarray(r, dtype=complex) for r in rays]
    for k, (v, signs, lam) in enumerate(zip(vectors, eigentable, eigenvalues)):
        norm = np.linalg.norm(v)
        if norm == 0:
            raise OracleMismatch(f"ray {k} is zero")
        for word, m, s in zip(words, matrices, signs):
            if s not in (1, -1) or np.linalg.norm(m @ v - s * v) > _TOL * norm:
                raise OracleMismatch(f"ray {k} is not a {s:+d} eigenvector of {word}")
        if sum(w * s for w, s in zip(weights, signs)) != lam:
            raise OracleMismatch(f"ray {k}: eigenvalue {lam} is not the weighted sign sum")
    if any(a >= b for a, b in zip(eigenvalues, eigenvalues[1:])):
        raise OracleMismatch("pencil eigenvalues are not strictly ascending")
    for j, k in itertools.combinations(range(d), 2):
        u, v = vectors[j], vectors[k]
        if abs(np.vdot(u, v)) > _TOL * np.linalg.norm(u) * np.linalg.norm(v):
            raise OracleMismatch(f"rays {j} and {k} are not orthogonal")


def ray_vector(ray_json) -> list[complex]:
    """Complex components of a ray in the package's JSON encoding."""
    return [complex(c[0], c[1]) if isinstance(c, list) else complex(c) for c in ray_json]


# ---------------------------------------------------------------------------
# Two-valued states by exhaustive breadth-first enumeration.


def count_states(edges: Sequence[Sequence[int]]) -> int:
    """Number of vertex sets meeting every edge in exactly one vertex.

    Extends every partial assignment edge by edge and keeps those that meet
    each edge seen so far exactly once; nothing is pruned by search order.
    """
    masks = [sum(1 << v for v in e) for e in edges]
    frontier = {0}
    for i, e in enumerate(masks):
        seen = masks[: i + 1]
        grown = set()
        for ones in frontier:
            hits = (ones & e).bit_count()
            if hits:
                if hits == 1:
                    grown.add(ones)
                continue
            bits = e
            while bits:
                v = bits & -bits
                bits ^= v
                cand = ones | v
                if all((cand & m).bit_count() == 1 for m in seen):
                    grown.add(cand)
        frontier = grown
    return len(frontier)


def check_critical(edges: Sequence[Sequence[int]], critical: Sequence[Sequence[int]]):
    """Each critical collection has no state and regains one without any edge."""
    for collection in critical:
        chosen = [edges[i] for i in collection]
        if count_states(chosen) != 0:
            raise OracleMismatch(f"collection {tuple(collection)} admits a state")
        for drop in range(len(chosen)):
            if count_states(chosen[:drop] + chosen[drop + 1:]) == 0:
                raise OracleMismatch(
                    f"collection {tuple(collection)} is not minimal: "
                    f"it has no state without edge {collection[drop]}"
                )
