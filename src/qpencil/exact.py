"""Exact arithmetic over the Gaussian integers, with canonical projective rays.

Everything here is immutable and computes exactly. A matrix keeps, per row,
only its nonzero Gaussian-integer entries, so its arithmetic runs on Python
ints and a Pauli realization has one entry per row. Rank and nullspace come
from fraction-free (Bareiss) elimination over Z[i]. Rays are projective
Gaussian-integer vectors reduced to a unique canonical representative so
they can be hashed, deduplicated and compared. The one scalar form is the
Gaussian integer: an int or an (re, im) pair of ints in, an int pair out.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

ScalarLike = Union[int, Sequence[int]]  # an int, or an (re, im) pair of ints


def _gaussian_ints(values: Iterable[ScalarLike]) -> list[tuple[int, int]]:
    """The values as (re, im) pairs of ints; a pair may be a tuple or a list.
    Anything else, a bool, a ``Fraction`` or a numpy integer included, raises."""
    vals = [
        v if type(v) is tuple and len(v) == 2  # as is: snapping passes each support's pairs
        else (v[0], v[1]) if isinstance(v, (tuple, list)) and len(v) == 2
        else (v, 0)
        for v in values
    ]
    for re, im in vals:
        if type(re) is not int or type(im) is not int:
            raise TypeError(f"cannot interpret ({re!r}, {im!r}) as a pair of exact integers")
    return vals


# ---------------------------------------------------------------------------
# Gaussian-integer helpers (internal; operate on (re, im) int pairs)


def _gauss_round_div(p: int, q: int) -> int:
    """Nearest integer to p/q for q > 0."""
    return (2 * p + q) // (2 * q)


def gaussian_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Euclidean gcd in Z[i], unique up to units."""
    if a == (0, 0):
        return b
    while b != (0, 0):
        ar, ai = a
        br, bi = b
        n = br * br + bi * bi
        qr = _gauss_round_div(ar * br + ai * bi, n)
        qi = _gauss_round_div(ai * br - ar * bi, n)
        a, b = b, (ar - (qr * br - qi * bi), ai - (qr * bi + qi * br))
    return a


def _gauss_exact_div(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    ar, ai = a
    br, bi = b
    n = br * br + bi * bi
    pr, pi = ar * br + ai * bi, ai * br - ar * bi
    if pr % n or pi % n:
        raise ArithmeticError(f"{a} is not divisible by {b} in Z[i]")
    return pr // n, pi // n


# i**k as (re, im), for k = 0..3
I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _gmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _canonical(support: list[tuple[int, tuple[int, int]]]) -> tuple:
    """Divide out the Gaussian-integer content of the nonzero (index, value) pairs;
    rotate the lead phase into [0, pi/2)."""
    content = (0, 0)
    for _, c in support:  # a unit gcd divides every entry: stop at the first one
        if (content := gaussian_gcd(content, c)) in I_POWERS:
            break
    if content == (0, 0):
        raise ValueError("the zero vector is not a ray")
    if content not in I_POWERS:  # a unit content is undone by the lead rotation below
        support = [(j, _gauss_exact_div(c, content)) for j, c in support]
    lead = support[0][1]
    unit = next(u for u in I_POWERS if (z := _gmul(lead, u))[0] > 0 and z[1] >= 0)
    return tuple(support if unit == (1, 0) else ((j, _gmul(c, unit)) for j, c in support))


class Ray:
    """A projective vector with Gaussian-integer components in canonical form.

    Canonicalization divides out the Gaussian-integer content and multiplies
    by the unit that places the first nonzero component's phase in
    [0, pi/2); for real-component vectors that makes the leading entry a
    positive integer. Two inputs spanning the same complex line always
    canonicalize to the identical object, so rays hash and compare reliably.
    Only the support is stored, so a ray costs its nonzero count, not ``dim``.
    """

    # the nonzero canonical components as (index, (re, im)) pairs by ascending
    # index, and the length of the vector
    __slots__ = ("support", "dim")

    def __init__(self, components: Iterable, dim: int | None = None):
        """The ray through Gaussian integers, such as ``to_json()``'s output.
        Given ``dim``, the components are the support instead: (index, scalar)
        pairs with ascending indices below ``dim``, every other component zero."""
        if dim is None:
            pairs = list(enumerate(components))
            dim = len(pairs)
        else:
            pairs, prev = list(components), -1
            for j, _ in pairs:
                if type(j) is not int or not prev < j < dim:
                    raise ValueError(f"support indices must ascend within [0, {dim})")
                prev = j
        if not dim:
            raise ValueError("a ray needs at least one component")
        nums = _gaussian_ints([c for _, c in pairs])
        self.support = _canonical([(j, c) for (j, _), c in zip(pairs, nums) if c != (0, 0)])
        self.dim = dim

    @property
    def parts(self) -> tuple[tuple[int, int], ...]:
        """All ``dim`` canonical components as (re, im) pairs, zeros included."""
        out = [(0, 0)] * self.dim
        for j, c in self.support:
            out[j] = c
        return tuple(out)

    def is_real(self) -> bool:
        return all(im == 0 for _, (_, im) in self.support)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ray) and (self.dim, self.support) == (other.dim, other.support)

    def __hash__(self) -> int:
        return hash((self.dim, self.support))

    def __repr__(self) -> str:
        return f"Ray({self.to_json()})"

    def to_json(self):
        """Integer component array; complex components become [re, im] pairs."""
        if self.is_real():
            return [re for re, _ in self.parts]
        return [[re, im] for re, im in self.parts]


def inner_product(u: Ray, v: Ray) -> tuple[int, int]:
    """Hermitian inner product sum(conj(u_i) * v_i) as a Gaussian-integer pair,
    summed over the indices the two supports share."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    other = dict(v.support)
    re = im = 0
    for j, (ar, ai) in u.support:
        if (b := other.get(j)) is not None:
            br, bi = b
            re, im = re + ar * br + ai * bi, im + ar * bi - ai * br
    return re, im


SparseRow = tuple[tuple[int, int, int], ...]


def _sparse(dense_rows: Iterable[Sequence[tuple[int, int]]]) -> tuple[SparseRow, ...]:
    rows = (enumerate(row) for row in dense_rows)
    return tuple(tuple((j, re, im) for j, (re, im) in row if re or im) for row in rows)


def _sum_rows(terms: Iterable[tuple[tuple[int, int], SparseRow]]) -> SparseRow:
    """The sparse row sum(c * row) over (c, row) pairs with Gaussian-integer c."""
    acc: dict[int, tuple[int, int]] = {}
    for (cr, ci), row in terms:
        for j, re, im in row:
            ar, ai = acc.get(j, (0, 0))
            acc[j] = (ar + cr * re - ci * im, ai + cr * im + ci * re)
    return tuple((j, re, im) for j, (re, im) in sorted(acc.items()) if re or im)


@dataclass(frozen=True)
class ExactMatrix:
    """Sparse matrix of Gaussian integers.

    ``nonzeros[i]`` lists row i's nonzero entries as int triples (col, re, im) by strictly
    ascending col < cols, where re + i*im is the entry, so equal matrices have equal fields
    and hash alike.
    """

    rows: int
    cols: int
    nonzeros: tuple[SparseRow, ...]

    def __post_init__(self):
        if len(self.nonzeros) != self.rows:
            raise ValueError("need one sparse row per row")
        cols = self.cols
        for row in self.nonzeros:
            prev = -1
            for j, re, im in row:
                if not (type(j) is type(re) is type(im) is int and prev < j < cols and (re or im)):
                    if not type(j) is type(re) is type(im) is int:
                        raise TypeError(f"row {row} has {(j, re, im)!r}, not three ints")
                    raise ValueError(f"row {row} needs nonzeros in rising columns < {cols}")
                prev = j

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        nums = _gaussian_ints(x for row in rows for x in row)
        return ExactMatrix(r, c, _sparse(nums[i * c : (i + 1) * c] for i in range(r)))

    def is_hermitian(self) -> bool:
        """True iff square with entry (j, i) the conjugate of (i, j), in one pass over
        the nonzeros: rows i in ascending order meet row j's entries in column order."""
        if self.rows != self.cols:
            return False
        rows, seen = self.nonzeros, [0] * self.rows
        for i, row in enumerate(rows):
            for j, re, im in row:
                if seen[j] == len(rows[j]) or rows[j][seen[j]] != (i, re, -im):
                    return False
                seen[j] += 1
        return True


def linear_combination(
    coefficients: Sequence[int], matrices: Sequence[ExactMatrix]
) -> ExactMatrix:
    """sum(c_i * M_i) for integer c_i, in one pass over the rows."""
    if not all(isinstance(c, int) for c in coefficients):
        raise TypeError(f"coefficients must be integers: {coefficients!r}")
    shapes = {(m.rows, m.cols) for m in matrices}
    if len(coefficients) != len(matrices) or len(shapes) != 1:
        raise ValueError("need one coefficient per matrix, at least one matrix, all of one shape")
    factors = [(c, 0) for c in coefficients]
    rows = zip(*(m.nonzeros for m in matrices))
    return ExactMatrix(*shapes.pop(), tuple(_sum_rows(zip(factors, r)) for r in rows))


def commutator_is_zero(a: ExactMatrix, b: ExactMatrix) -> bool:
    """True iff AB - BA vanishes exactly, compared row by row up to the first
    row that differs."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("commutator needs square matrices of equal dimension")
    an, bn = a.nonzeros, b.nonzeros
    for ra, rb in zip(an, bn):
        if len(ra) == len(rb) == 1 and len(bn[ra[0][0]]) == len(an[rb[0][0]]) == 1:
            # one entry each way, as for Pauli words: (AB)_ij = a_ik b_kj, (BA)_ij = b_il a_lj
            [(k, ar, ai)], [(l, br, bi)] = ra, rb
            [(j, xr, xi)], [(jj, yr, yi)] = bn[k], an[l]
            ab, ba = (ar * xr - ai * xi, ar * xi + ai * xr), (br * yr - bi * yi, br * yi + bi * yr)
            if j != jj or ab != ba:
                return False
        elif _sum_rows(((ar, ai), bn[k]) for k, ar, ai in ra) != _sum_rows(
            ((br, bi), an[k]) for k, br, bi in rb
        ):  # (AB)_i = sum_k a_ik B_k against (BA)_i = sum_k b_ik A_k
            return False
    return True


def components(m: ExactMatrix) -> list[list[int]]:
    """The connected components of a square matrix's nonzero pattern (i ~ j for
    every nonzero (i, j)) as ascending index lists, by smallest index."""
    if m.rows != m.cols:
        raise ValueError(f"components need a square matrix, not {m.rows}x{m.cols}")
    parent = list(range(m.rows))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, row in enumerate(m.nonzeros):
        for j, _, _ in row:
            parent[find(j)] = find(i)
    found: dict[int, list[int]] = {}
    for i in range(m.rows):
        found.setdefault(find(i), []).append(i)
    return list(found.values())


def _echelon(
    m: ExactMatrix, shift: int = 0
) -> tuple[list[dict[int, tuple[int, int]]], list[int]]:
    """Fraction-free forward (Bareiss) elimination of M - shift*I over Z[i].

    Returns the rows as {col: (re, im)} and the pivot columns; the first
    len(pivots) rows are in row echelon form and the rest are zero. With p the
    new pivot and q the previous one (1 at first), each row i below the pivot
    row becomes (p*row_i - row_i[col]*row_r) / q, whose entries are minors up
    to sign, so q divides exactly in Z[i] (Bareiss 1968); an inexact one raises.
    """
    work = [{j: (re, im) for j, re, im in row} for row in m.nonzeros]
    for i, row in enumerate(work[: m.cols] if shift else ()):  # I's ones are at (i, i)
        re, im = row.pop(i, (0, 0))
        if re != shift or im:  # a cancelled entry goes: a stored one is a pivot
            row[i] = (re - shift, im)
    pivots: list[int] = []
    q = (1, 0)
    for col in range(m.cols):
        r = len(pivots)
        for pivot in range(r, m.rows):
            if col in work[pivot]:
                break
        else:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        pr, pi = p = prow[col]
        qr, qi = q
        n = qr * qr + qi * qi
        for i in range(r + 1, m.rows):
            row = work[i]
            fr, fi = row.get(col, (0, 0))
            if not (fr or fi) and p == q:
                continue  # p*row_i / q is row_i
            work[i] = out = {}
            for j in (row.keys() | prow.keys()) if fr or fi else row:
                xr, xi = row.get(j, (0, 0))
                yr, yi = prow.get(j, (0, 0))
                zr = pr * xr - pi * xi - fr * yr + fi * yi  # p*row_i[j] - f*row_r[j]
                zi = pr * xi + pi * xr - fr * yi - fi * yr
                if zr or zi:  # divided by q as z * conj(q) / |q|^2, on integers
                    xr, xi = zr * qr + zi * qi, zi * qr - zr * qi
                    if xr % n or xi % n:
                        raise ArithmeticError(f"{(zr, zi)} is not divisible by {q} in Z[i]")
                    out[j] = (xr // n, xi // n)
        q = p
        pivots.append(col)
    return work, pivots


def rank(m: ExactMatrix, shift: int = 0) -> int:
    """Exact rank of M - shift*I, I's ones on M's main diagonal, for an integer shift."""
    return len(_echelon(m, operator.index(shift))[1])


def nullspace(m: ExactMatrix, shift: int = 0) -> list[Ray]:
    """Exact basis of the right nullspace of M - shift*I, as rays: per free column f,
    the solution with x_f = D and every other free entry 0, by back-substitution on
    the echelon rows. The last pivot D is the pivot rows' minor on the pivot columns,
    so by Cramer's rule every entry is a minor too and each division is exact in Z[i]."""
    work, pivots = _echelon(m, operator.index(shift))
    d = work[len(pivots) - 1][pivots[-1]] if pivots else (1, 0)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        x = {free: d}
        for row, pcol in zip(reversed(work[: len(pivots)]), reversed(pivots)):
            sr = si = 0  # sum over the row's later entries of row_j * x_j
            for j, (er, ei) in row.items():
                if j != pcol and j in x:
                    xr, xi = x[j]
                    sr, si = sr + er * xr - ei * xi, si + er * xi + ei * xr
            x[pcol] = _gauss_exact_div((-sr, -si), row[pcol])
        basis.append(Ray(sorted(x.items()), m.cols))
    return basis


def is_product_state(r: Ray, site_dims: Sequence[int]) -> bool:
    """True iff the ray factorizes as a tensor product of one vector per site.

    Checked exactly: each successive left/right reshape X has rank one iff x_ab X
    is the outer product of its column b and row a, x_ab its first nonzero entry.
    """
    total = math.prod(site_dims)
    if total != r.dim:
        raise ValueError(
            f"site dimensions {tuple(site_dims)} do not multiply to {r.dim}"
        )
    first, lead = r.support[0]
    scaled = {k: _gmul(c, lead) for k, c in r.support}  # x_ij x_ab at k = i*cols + j
    for split in range(1, len(site_dims)):
        cols = total // math.prod(site_dims[:split])
        b = first % cols
        column = [(k - b, c) for k, c in r.support if k % cols == b]  # (i*cols, x_ib)
        row = [(k % cols, c) for k, c in r.support if k // cols == first // cols]  # (j, x_aj)
        if scaled != {i + j: _gmul(p, q) for i, p in column for j, q in row}:
            return False
    return True
