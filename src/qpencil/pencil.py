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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import ExactMatrix, Ray, commutator_is_zero, linear_combination, rank

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


@dataclass(frozen=True)
class Pencil:
    """Terms A_i with integer coefficients a_i, validated on construction.

    The terms must be square, Hermitian, of equal dimension and pairwise
    commuting, so every ``Pencil`` value carries that guarantee.
    """

    terms: tuple[ExactMatrix, ...]
    coefficients: tuple[int, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        coefficients = tuple(int(c) for c in self.coefficients)
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
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                if not commutator_is_zero(terms[i], terms[j]):
                    raise PencilError(f"terms {i} and {j} do not commute")

    @property
    def dim(self) -> int:
        return self.terms[0].rows


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

    @property
    def dim(self) -> int:
        return self.rays[0].dim

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
    """Validate terms (square, Hermitian, equal dimension, pairwise commuting)."""
    terms = tuple(terms)
    if coefficients is None:
        coefficients = default_coefficients(len(terms)) if terms else ()
    return Pencil(terms, coefficients)


def evaluate(p: Pencil) -> ExactMatrix:
    """The exact Hermitian sum; commutes with every term by construction.

    [P, A_j] = sum(a_i * [A_i, A_j]) = 0, because ``Pencil`` only exists
    with pairwise-commuting terms.
    """
    return linear_combination(p.coefficients, p.terms)


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Floating-point diagonalization of a Hermitian matrix by ``numpy.linalg.eigh``.

    Returns (eigenvalues ascending, eigenvector columns). The result only
    proposes candidates; ``joint_context`` certifies them exactly.
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.conj().T))) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian to tolerance 1e-12")
    return np.linalg.eigh(a)


def snap_to_ray(vector, *, max_snap_norm: int = DEFAULT_MAX_SNAP_NORM) -> Ray:
    """Round a numerical eigenvector to the exact integer ray it approximates.

    Divides by the largest-magnitude entry (fixing scale and global phase),
    then looks for the smallest integer multiplier k <= max_snap_norm under
    which every entry sits within ``SNAP_TOLERANCE`` of a Gaussian integer.
    The result is only trusted after the caller's exact re-verification.
    """
    v = np.asarray(vector, dtype=complex)
    lead = int(np.argmax(np.abs(v)))
    if abs(v[lead]) == 0.0:
        raise SnapError(v)
    w = v / v[lead]
    for k in range(1, max_snap_norm + 1):
        scaled = w * k
        re = np.round(scaled.real).astype(int)
        im = np.round(scaled.imag).astype(int)
        if float(np.max(np.abs(scaled - (re + 1j * im)))) <= SNAP_TOLERANCE:
            return Ray.from_parts(zip(re.tolist(), im.tolist()))
    raise SnapError(v)


def _exact_integer_spectrum(p_exact: ExactMatrix, spectrum: set[int]) -> dict[int, int]:
    """Certify integer candidate eigenvalues and their multiplicities exactly.

    The multiplicity of lambda is d - rank(P - lambda*I); every candidate must
    have a positive one, and together they must sum to d.
    """
    d = p_exact.rows
    ident = ExactMatrix.identity(d)
    multiplicities = {
        lam: d - rank(linear_combination((1, -lam), (p_exact, ident))) for lam in spectrum
    }
    if 0 in multiplicities.values() or sum(multiplicities.values()) != d:
        raise VerificationError(
            f"certified multiplicities {multiplicities} of the rounded eigenvalues "
            f"are not all positive with sum {d}"
        )
    return multiplicities


def eigen_sign(operator: ExactMatrix, ray: Ray, name: str) -> int:
    """The eigenvalue (+1 or -1) of a dichotomic operator on an exact ray.

    Raises VerificationError, naming ``name``, unless the ray is exactly an
    eigenvector of ``operator`` with eigenvalue +1 or -1. With M = M_num/den,
    M v = +/-v exactly when M_num v = +/-den*v, compared on integers.
    """
    v = ray.parts
    image = operator.apply_integer(v)
    for sign in (1, -1):
        sd = sign * operator.den
        if image == (v if sd == 1 else tuple((sd * re, sd * im) for re, im in v)):
            return sign
    raise VerificationError(f"{ray!r} is not a +/-1 eigenvector of {name}")


def joint_context(
    terms: Sequence[ExactMatrix],
    coefficients: Sequence[int] | None = None,
    *,
    max_snap_norm: int = DEFAULT_MAX_SNAP_NORM,
) -> Context:
    """Full pipeline: build, diagonalize, snap, and exactly verify a context.

    Raises DegeneratePencilError (with the certified multiplicity structure)
    when the pencil cannot single out a basis, SnapError when an eigenvector
    is not an integer ray, and VerificationError when any exact re-check
    fails.

    Rounded float eigenvalues that repeat raise DegeneratePencilError with
    multiplicities certified by exact rank. Otherwise each snapped ray v_k is
    certified exactly: every term A_i has sign s_i = +/-1 on v_k and
    sum(a_i * s_i) = lambda_k, so P v_k = lambda_k v_k. Rays of d distinct
    eigenvalues are independent and diagonalize P, so the lambda_k are its
    whole spectrum, each simple, and (P being Hermitian) the rays are
    pairwise orthogonal.
    """
    p = build(terms, coefficients)
    p_exact = evaluate(p)
    eigenvalues, eigenvectors = hermitian_eigensystem(p_exact.to_complex_array())
    spectrum = [int(x) for x in np.round(eigenvalues)]
    for x, lam in zip(eigenvalues, spectrum):
        if abs(x - lam) > _EIGENVALUE_INT_TOLERANCE:
            raise VerificationError(
                f"pencil eigenvalue {x!r} is not near an integer; integer "
                "coefficients over dichotomic terms should give an integer spectrum"
            )
    if len(set(spectrum)) < len(spectrum):
        # fewer than d candidates, certified to sum to d: some multiplicity exceeds 1
        raise DegeneratePencilError(_exact_integer_spectrum(p_exact, set(spectrum)))

    rays = []
    eigentable = []
    for k, lam in enumerate(spectrum):
        ray = snap_to_ray(eigenvectors[:, k], max_snap_norm=max_snap_norm)
        signs = tuple(eigen_sign(t, ray, f"term {i}") for i, t in enumerate(p.terms))
        if sum(a * s for a, s in zip(p.coefficients, signs)) != lam:
            raise VerificationError(
                f"per-term signs of {ray!r} do not recombine to the pencil "
                f"eigenvalue {lam}"
            )
        rays.append(ray)
        eigentable.append(signs)

    return Context(tuple(rays), tuple(eigentable), tuple(spectrum))
