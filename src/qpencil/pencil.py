"""Generalized matrix pencils for co-diagonalizing commuting degenerate operators.

A pencil is an integer linear combination sum(a_i * A_i) of pairwise-commuting
Hermitian matrices. With binary-weight coefficients its spectrum separates
every joint sign pattern of the terms, so a single numerical diagonalization
of the pencil exposes the shared eigenbasis. Floating point appears only in
the middle of the pipeline: eigenvectors are snapped to exact integer rays
and every claim (eigenvalues, multiplicities, orthogonality, per-term signs)
is certified in exact arithmetic before a context is returned.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import ExactMatrix, Ray, commutator_is_zero, components, linear_combination, rank

SNAP_TOLERANCE = 1e-6
DEFAULT_MAX_SNAP_NORM = 4
_EIGENVALUE_INT_TOLERANCE = 1e-6


class PencilError(Exception):
    """Base class for pencil construction and verification failures."""


class DegeneratePencilError(PencilError):
    """The pencil has a repeated eigenvalue; the joint context is not unique.

    Carries the exact multiplicity structure instead of guessing a basis.
    """

    def __init__(self, multiplicities: dict[int, int]):
        self.multiplicities = dict(sorted(multiplicities.items()))
        desc = ", ".join(
            f"{lam} (x{mult})" for lam, mult in self.multiplicities.items()
        )
        super().__init__(f"degenerate pencil spectrum: {desc}")


class SnapError(PencilError):
    """A numerical eigenvector is not near any admissible integer ray."""

    def __init__(self, vector):
        self.vector = np.asarray(vector)
        entries = ", ".join(f"{x:.6g}" for x in self.vector)
        super().__init__(f"cannot snap ({entries}) to a Gaussian-integer ray")


class VerificationError(PencilError):
    """An exact re-check of a numerically obtained quantity failed."""


class UnresolvedSpectrumError(VerificationError):
    """A float eigenvalue does not resolve to an integer, as dichotomic terms promise."""


@dataclass(frozen=True)
class Pencil:
    """Terms A_i with integer coefficients a_i, validated on construction.

    The terms must be square, Hermitian and of equal dimension, so every ``Pencil``
    value carries that guarantee; ``joint_context`` certifies that they commute.
    """

    terms: tuple[ExactMatrix, ...]
    coefficients: tuple[int, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        coefficients = []
        for c in self.coefficients:
            try:
                coefficients.append(operator.index(c))
            except TypeError:
                raise PencilError(f"coefficient {c!r} is not an integer") from None
        coefficients = tuple(coefficients)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "coefficients", coefficients)
        if not terms:
            raise PencilError("a pencil needs at least one term")
        if len(coefficients) != len(terms):
            raise PencilError(
                f"{len(terms)} terms but {len(coefficients)} coefficients"
            )
        d = terms[0].rows
        for i, t in enumerate(terms):
            if t.rows != t.cols:
                raise PencilError(f"term {i} is not square")
            if t.rows != d:
                raise PencilError(f"term {i} has dimension {t.rows}, expected {d}")
            if not t.is_hermitian():
                raise PencilError(f"term {i} is not Hermitian")


@dataclass(frozen=True)
class Context:
    """A joint eigenbasis: d mutually orthogonal rays with per-term signs.

    ``eigentable[k][i]`` is the eigenvalue (+1 or -1) of term i on ray k, and
    ``pencil_eigenvalues[k]`` equals sum(coefficients[i] * eigentable[k][i]).
    Rays are ordered by ascending pencil eigenvalue.
    """

    rays: tuple[Ray, ...]
    eigentable: tuple[tuple[int, ...], ...]
    pencil_eigenvalues: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "rays": [r.to_json() for r in self.rays],
            "eigentable": [list(row) for row in self.eigentable],
            "pencil_eigenvalues": list(self.pencil_eigenvalues),
        }


def default_coefficients(l: int) -> tuple[int, ...]:
    """Binary weights (1, 2, 4, ...): distinct sums over every sign pattern."""
    if l < 1:
        raise ValueError("need at least one term")
    return tuple(2**i for i in range(l))


def build(
    terms: Sequence[ExactMatrix], coefficients: Sequence[int] | None = None
) -> Pencil:
    """Validate terms (square, Hermitian, equal dimension), not their commutation."""
    terms = tuple(terms)
    if coefficients is None:
        coefficients = default_coefficients(len(terms)) if terms else ()
    return Pencil(terms, coefficients)


def evaluate(p: Pencil) -> ExactMatrix:
    """The exact Hermitian sum sum(a_i * A_i); it commutes with every term if the
    terms commute pairwise, which ``joint_context`` certifies."""
    return linear_combination(p.coefficients, p.terms)


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Floating-point diagonalization of a Hermitian matrix, or of a stack of
    equal-size ones, by ``numpy.linalg.eigh``.

    Returns (eigenvalues ascending, eigenvector columns), per matrix of a
    stack. The result only proposes candidates; ``joint_context`` certifies
    them exactly.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of equal-size ones")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.conj().swapaxes(-1, -2)).max()) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian to tolerance 1e-12")
    return np.linalg.eigh(a)


def snap_rays(
    vectors, *, max_snap_norm: int = DEFAULT_MAX_SNAP_NORM, rows=None, dim: int | None = None
) -> list[Ray]:
    """Round every eigenvector column to its exact integer ray, in one vectorized pass.

    Each column is divided by its largest-magnitude entry (fixing scale and global
    phase), then takes its own smallest multiplier k <= max_snap_norm (a broadcast
    axis) that puts every entry within ``SNAP_TOLERANCE`` of a Gaussian integer.
    With ``rows`` (an index array of the vectors' shape) and ``dim``, entry e of
    column c is component rows[e, c] of a ``dim``-vector that is zero elsewhere,
    as for an eigenvector of one diagonal block; ascending down each column.
    """
    v = np.asarray(vectors, dtype=complex)
    if rows is None:
        rows, dim = np.broadcast_to(np.arange(len(v))[:, None], v.shape), len(v)
    columns = np.arange(v.shape[1])
    lead = v[np.abs(v).argmax(axis=0), columns]
    w = v / np.where(lead == 0, 1, lead)
    scaled = np.arange(1, max_snap_norm + 1)[:, None, None] * w  # (k, entry, column)
    rounded = scaled.round()
    fits = (np.abs(scaled - rounded).max(axis=1) <= SNAP_TOLERANCE) & (lead != 0)
    if not (snapped := fits.any(axis=0)).all():
        bad = snapped.argmin()
        vector = np.zeros(dim, dtype=complex)
        vector[rows[:, bad]] = v[:, bad]
        raise SnapError(vector)
    chosen = rounded[fits.argmax(axis=0), :, columns]  # (column, entry)
    at = chosen.nonzero()  # by column, then entry
    nz = chosen[at]
    support = zip(rows.T[at].tolist(), zip(nz.real.astype(int).tolist(),
                                           nz.imag.astype(int).tolist()))
    counts = np.count_nonzero(chosen, axis=1).tolist()
    return [Ray(itertools.islice(support, n), dim) for n in counts]


def snap_to_ray(vector, *, max_snap_norm: int = DEFAULT_MAX_SNAP_NORM) -> Ray:
    """``snap_rays`` on one vector."""
    return snap_rays(np.asarray(vector).reshape(-1, 1), max_snap_norm=max_snap_norm)[0]


def _block_stack(p: ExactMatrix, blocks: list[list[int]]) -> np.ndarray:
    """The principal blocks of P on equal-size index lists, as one float array."""
    s = len(blocks[0])
    local = {g: k for idx in blocks for k, g in enumerate(idx)}
    at, values = [], []
    for b, idx in enumerate(blocks):
        for k, i in enumerate(idx):
            for j, re, im in p.nonzeros[i]:
                at.append((b * s + k) * s + local[j])
                values.append(complex(re / p.den, im / p.den))
    stack = np.zeros(len(blocks) * s * s, dtype=complex)
    stack[at] = values
    return stack.reshape(len(blocks), s, s)


def _exact_integer_spectrum(
    p_exact: ExactMatrix, spectrum: set[int], blocks: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> dict[int, int]:
    """Certify integer candidate eigenvalues and their multiplicities exactly.

    ``blocks`` pairs the index list of each of P's connected blocks
    (``components``) with that block's own candidates. The multiplicity of
    lambda is d - rank(P - lambda*I), summed as size(B) - rank(B - lambda*I)
    over the distinct principal blocks B times their counts; every candidate
    must have a positive one, and together they must sum to d. A block ranks
    its own candidates first. Eigenspaces of distinct eigenvalues are
    independent, so once a block's multiplicities sum to its size every other
    candidate has multiplicity 0 there, and is not ranked.
    B is Hermitian, so a ranked multiplicity is algebraic, and the R eigenvalues
    mu left unassigned have exact sums from tr(B) and tr(B^2) = sum |b_ij|^2. If
    sum(mu) = R*lambda and sum(mu^2) = R*lambda^2, every mu is lambda: no rank.
    """
    d = p_exact.rows
    multiplicities = dict.fromkeys(spectrum, 0)
    distinct: dict[ExactMatrix, list] = {}
    for idx, own in blocks:
        local = {g: k for k, g in enumerate(idx)}
        rows = tuple(tuple((local[j], re, im) for j, re, im in p_exact.nonzeros[i]) for i in idx)
        block = ExactMatrix(len(idx), len(idx), rows, p_exact.den)
        distinct.setdefault(block, [0, own])[0] += 1
    for block, (count, own) in distinct.items():
        left = block.rows  # eigenvalues not yet assigned, with their sums times den, den^2
        s1 = sum(re for i, row in enumerate(block.nonzeros) for j, re, _ in row if j == i)
        s2 = sum(re * re + im * im for row in block.nonzeros for _, re, im in row)
        for lam in [*sorted(set(own)), *sorted(spectrum.difference(own))]:
            if not left:
                break
            x = lam * block.den  # the block's own den, reduced on construction
            settled = s1 == left * x and s2 == left * x * x  # every one left is lam
            m = left if settled else block.rows - rank(block, lam)
            multiplicities[lam] += count * m
            left, s1, s2 = left - m, s1 - m * x, s2 - m * x * x
    if 0 in multiplicities.values() or sum(multiplicities.values()) != d:
        raise VerificationError(
            f"certified multiplicities {multiplicities} of the rounded eigenvalues "
            f"are not all positive with sum {d}"
        )
    return multiplicities


def eigen_sign(operator: ExactMatrix, ray: Ray, name: str) -> int:
    """The eigenvalue (+1 or -1) of a dichotomic Hermitian operator on an exact ray.

    Raises VerificationError, naming ``name``, unless the ray is exactly an
    eigenvector of ``operator`` with eigenvalue +1 or -1. With M = M_num/den,
    M v = +/-v exactly when M_num v = +/-den*v, compared on integers: the
    image's nonzeros must be +/-den times the ray's, index by index, with the
    sign read off the ray's first nonzero.
    ``operator`` must be Hermitian, so that column j of M_num is the conjugate
    of row j and M_num v is built from the rows on the ray's support alone.
    """
    if operator.cols != ray.dim:
        raise ValueError("ray length does not match the operator")
    image: dict[int, tuple[int, int]] = {}
    for j, (br, bi) in ray.support:
        for i, ar, ai in operator.nonzeros[j]:  # conj(ar + i*ai) * (br + i*bi)
            re, im = image.get(i, (0, 0))
            image[i] = (re + ar * br + ai * bi, im + ar * bi - ai * br)
    if (0, 0) in image.values():  # terms that cancelled
        image = {i: z for i, z in image.items() if z != (0, 0)}
    j, (re, im) = ray.support[0]
    sign = 1 if image.get(j) == (operator.den * re, operator.den * im) else -1
    sd = sign * operator.den
    if image == {j: (sd * re, sd * im) for j, (re, im) in ray.support}:
        return sign
    raise VerificationError(f"{ray!r} is not a +/-1 eigenvector of {name}")


def joint_context(
    terms: Sequence[ExactMatrix],
    coefficients: Sequence[int] | None = None,
    *,
    max_snap_norm: int = DEFAULT_MAX_SNAP_NORM,
) -> Context:
    """Full pipeline: build, diagonalize, snap, and exactly verify a context.

    Raises PencilError naming two terms that do not commute, DegeneratePencilError
    (with the certified multiplicities) when the pencil cannot single out a basis,
    SnapError when an eigenvector is not an integer ray, and VerificationError when
    an exact re-check fails (UnresolvedSpectrumError: a float eigenvalue is no integer).

    The float stage diagonalizes P's connected diagonal blocks, one batched
    ``eigh`` per block size, and pools their eigenvalues. Rounded eigenvalues
    that repeat raise DegeneratePencilError with multiplicities certified on
    P's distinct connected blocks by exact rank and exact power sums.
    Otherwise each snapped ray v_k is certified exactly: every term A_i has
    sign s_i = +/-1 on v_k and sum(a_i * s_i) = lambda_k, so P v_k = lambda_k
    v_k. Rays of d distinct eigenvalues are independent and diagonalize P, so
    the lambda_k are its whole spectrum, each simple, and (P being Hermitian)
    the rays are pairwise orthogonal. With V the rays as columns, A_i = V diag(s_i) V^-1,
    so the terms commute; any other outcome runs the pairwise commutators first.
    """
    p = build(terms, coefficients)
    try:
        return _certified_context(p, max_snap_norm)
    except Exception:  # re-raised once the terms are known to commute
        for i, j in itertools.combinations(range(len(p.terms)), 2):
            if not commutator_is_zero(p.terms[i], p.terms[j]):
                raise PencilError(f"terms {i} and {j} do not commute") from None
        raise


def _certified_context(p: Pencil, max_snap_norm: int) -> Context:
    """``joint_context`` after validation: its float stage and exact certificate."""
    p_exact = evaluate(p)
    by_size: dict[int, list[list[int]]] = {}
    for idx in components(p_exact):
        by_size.setdefault(len(idx), []).append(idx)
    # per block size: the index lists, eigenvalues (block, i), vectors (block, entry, i)
    stages = [(idxs, *hermitian_eigensystem(_block_stack(p_exact, idxs)))
              for idxs in by_size.values()]
    pooled = np.concatenate([w.ravel() for _, w, _ in stages])
    order = np.argsort(pooled)
    eigenvalues = pooled[order]
    rounded = eigenvalues.round()
    spectrum = [int(x) for x in rounded.tolist()]
    # eigh's error grows with max |x|, at an end of the ascending spectrum; from
    # 2^52 on, every float is an integer and nearness to one proves nothing
    coarse = math.ulp(max(-eigenvalues[0], eigenvalues[-1])) >= 1
    off = np.abs(eigenvalues - rounded) > _EIGENVALUE_INT_TOLERANCE
    if coarse or off.any():
        raise UnresolvedSpectrumError(
            f"pencil eigenvalue {float(eigenvalues[0 if coarse else off.argmax()])!r} does "
            "not resolve to an integer; integer coefficients over dichotomic terms should "
            "give an integer spectrum"
        )
    if len(set(spectrum)) < len(spectrum):
        # fewer than d candidates, certified to sum to d: some multiplicity exceeds 1
        # each block's index list with its own rounded eigenvalues
        blocks = [b for idxs, w, _ in stages for b in zip(idxs, w.round().astype(int).tolist())]
        raise DegeneratePencilError(_exact_integer_spectrum(p_exact, set(spectrum), blocks))

    d = p_exact.rows
    snapped = []
    for idxs, _, v in stages:  # column b*s + i of the (entry, column) array is v[b, :, i]
        s = v.shape[1]
        rows = np.repeat(np.array(idxs), s, axis=0).T
        columns = v.transpose(1, 0, 2).reshape(s, -1)
        snapped += snap_rays(columns, max_snap_norm=max_snap_norm, rows=rows, dim=d)
    rays = tuple(snapped[k] for k in order.tolist())
    named = [(t, f"term {i}") for i, t in enumerate(p.terms)]
    eigentable = []
    for ray, lam in zip(rays, spectrum):
        signs = tuple([eigen_sign(t, ray, name) for t, name in named])
        if sum(map(operator.mul, p.coefficients, signs)) != lam:
            raise VerificationError(
                f"per-term signs of {ray!r} do not recombine to the pencil "
                f"eigenvalue {lam}"
            )
        eigentable.append(signs)

    return Context(rays, tuple(eigentable), tuple(spectrum))
