"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's own solver paths: state counting
enumerates all 2^|V| assignments, and joint eigenbases come from exact
eigenspace intersection instead of the numerical pencil pipeline.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from qpencil.exact import ExactMatrix, Ray, nullspace

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


def raw_inner(u, v) -> tuple[Fraction, Fraction]:
    """Inner product of plain component lists (no canonicalization), as a pair."""
    acc = pair(0)
    for a, b in zip(u, v):
        re, im = pair(a)
        acc = padd(acc, pmul((re, -im), pair(b)))
    return acc


def signed_components(ray: Ray, s: int) -> tuple[tuple[int, int], ...]:
    """The components of s * v for the ray's integer vector v, written out."""
    return tuple((s * re, s * im) for re, im in ray.parts)


def brute_state_count(edges: list[tuple[int, ...]], n_vertices: int) -> int:
    """Count {0,1} assignments with exactly one 1 per edge, over all 2^n."""
    if n_vertices > 22:
        raise ValueError("brute force capped at 22 vertices")
    assignments = np.arange(1 << n_vertices, dtype=np.uint32)
    ok = np.ones(len(assignments), dtype=bool)
    for e in edges:
        ok &= np.bitwise_count(assignments & sum(1 << v for v in e)) == 1
    return int(ok.sum())


def eigenspace(matrix: ExactMatrix, eigenvalue: int):
    """Exact basis of ker(A - lambda I)."""
    shifted = matrix - ExactMatrix.identity(matrix.rows).scale(eigenvalue)
    return nullspace(shifted)


def joint_eigenrays_by_intersection(matrices: list[ExactMatrix]) -> set[Ray]:
    """All common eigenrays of dichotomic operators via exact intersection.

    For every sign pattern, intersects the corresponding eigenspaces by
    solving the stacked system; collects one-dimensional intersections.
    """
    d = matrices[0].rows
    rays: set[Ray] = set()
    for signs in itertools.product((1, -1), repeat=len(matrices)):
        stacked_rows = []
        for m, s in zip(matrices, signs):
            shifted = m - ExactMatrix.identity(d).scale(s)
            for i in range(d):
                stacked_rows.append(list(shifted.row(i)))
        stacked = ExactMatrix.from_rows(stacked_rows)
        basis = nullspace(stacked)
        if len(basis) == 1:
            rays.add(Ray(basis[0]))
    return rays


def two_qubit_determinant(v) -> tuple[Fraction, Fraction]:
    """v0*v3 - v1*v2 for a 4-component vector, as a pair."""
    c = [pair(x) for x in v]
    return psub(pmul(c[0], c[3]), pmul(c[1], c[2]))
