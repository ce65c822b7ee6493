"""Exact arithmetic over the Gaussian rationals, with canonical projective rays.

Everything here is immutable and computes exactly. A matrix keeps, per row,
only its nonzero entries as Gaussian-integer numerators over one common
denominator, so its arithmetic runs on Python ints and a Pauli realization
has one entry per row. Rank and nullspace come from fraction-free (Bareiss)
elimination over Z[i]. Rays are projective Gaussian-integer vectors reduced
to a unique canonical representative so they can be hashed, deduplicated
and compared. There is one scalar form, the (re, im) pair: an exact input
scalar is an int, a ``Fraction`` or an (re, im) pair of them, and entries,
images and nullspace vectors read out as ``(Fraction, Fraction)`` pairs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

ScalarLike = Union[int, Fraction, Sequence]  # a rational, or an (re, im) pair of them
Pair = tuple[Fraction, Fraction]

ZERO: Pair = (Fraction(0), Fraction(0))
ONE: Pair = (Fraction(1), Fraction(0))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _scalar(re: int, im: int, den: int) -> Pair:
    return Fraction(re, den), Fraction(im, den)


def _over_common_den(
    values: Iterable[ScalarLike],
) -> tuple[list[tuple[int, int]], int]:
    """Gaussian-integer numerators of the values over the lcm of their denominators;
    an (re, im) pair may be a tuple or a list. Values all of type int (so no bool)
    are their own numerators over 1, and no Fraction is built."""
    vals = [
        v if type(v) is tuple and len(v) == 2  # as is: snapping passes d pairs per ray
        else (v[0], v[1]) if isinstance(v, (tuple, list)) and len(v) == 2
        else (v, 0)
        for v in values
    ]
    for re, im in vals:
        if type(re) is not int or type(im) is not int:
            break
    else:
        return vals, 1
    vals = [(_as_fraction(re), _as_fraction(im)) for re, im in vals]
    den = math.lcm(*(x.denominator for v in vals for x in v))
    return [
        (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
        for re, im in vals
    ], den


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
        """The ray through exact scalars, such as ``to_json()``'s output or
        Gaussian-integer (re, im) pairs; their denominators are cleared first.
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
        nums = _over_common_den([c for _, c in pairs])[0]
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


def is_orthogonal(u: Ray, v: Ray) -> bool:
    """True iff the exact inner product of the rays is zero."""
    return inner_product(u, v) == (0, 0)


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
    """Sparse matrix of Gaussian rationals over one common denominator.

    ``nonzeros[i]`` lists row i's nonzero entries as (col, re, im) by strictly ascending
    col < cols, where (re + i*im) / den is the entry; ``den`` > 0 is reduced against
    every numerator on construction, so equal matrices have equal fields and hash alike.
    """

    rows: int
    cols: int
    nonzeros: tuple[SparseRow, ...]
    den: int = 1

    def __post_init__(self):
        if len(self.nonzeros) != self.rows or self.den < 1:
            raise ValueError("need one sparse row per row and a positive denominator")
        for row in self.nonzeros:
            prev = -1
            for j, re, im in row:
                if not prev < j < self.cols or not (re or im):
                    raise ValueError(f"row {row} needs nonzeros in rising columns < {self.cols}")
                prev = j
        nums = (x for row in self.nonzeros for _, re, im in row for x in (re, im))
        if self.den > 1 and (g := math.gcd(self.den, *nums)) > 1:
            object.__setattr__(self, "den", self.den // g)
            object.__setattr__(self, "nonzeros", tuple(
                tuple((j, re // g, im // g) for j, re, im in row) for row in self.nonzeros
            ))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        nums, den = _over_common_den(x for row in rows for x in row)
        return ExactMatrix(r, c, _sparse(nums[i * c : (i + 1) * c] for i in range(r)), den)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(n, n, tuple(((i, 1, 0),) for i in range(n)))

    def at(self, i: int, j: int) -> Pair:
        return self.row(i)[j]

    def row(self, i: int) -> tuple[Pair, ...]:
        out = [ZERO] * self.cols
        for j, re, im in self.nonzeros[i]:
            out[j] = _scalar(re, im, self.den)
        return tuple(out)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return linear_combination((1, 1), (self, other))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return linear_combination((1, -1), (self, other))

    def scale(self, s: ScalarLike) -> "ExactMatrix":
        [c], sden = _over_common_den([s])
        rows = tuple(_sum_rows([(c, row)]) for row in self.nonzeros)
        return ExactMatrix(self.rows, self.cols, rows, self.den * sden)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            shapes = f"{self.rows}x{self.cols} by {other.rows}x{other.cols}"
            raise ValueError(f"cannot multiply {shapes}")
        rows = tuple(_row_times(ra, other) for ra in self.nonzeros)
        return ExactMatrix(self.rows, other.cols, rows, self.den * other.den)

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

    def apply(self, vec: Sequence[ScalarLike]) -> tuple[Pair, ...]:
        """The exact image M v, read off the product with v as a one-column matrix."""
        nums, vden = _over_common_den(vec)
        image = self @ ExactMatrix(len(nums), 1, _sparse([x] for x in nums), vden)
        return tuple(image.at(i, 0) for i in range(self.rows))


def linear_combination(
    coefficients: Sequence[int], matrices: Sequence[ExactMatrix]
) -> ExactMatrix:
    """sum(c_i * M_i) for integer c_i, one pass over the numerator rows."""
    if not all(isinstance(c, int) for c in coefficients):
        raise TypeError(f"coefficients must be integers: {coefficients!r}")
    shape = (matrices[0].rows, matrices[0].cols)
    if len(coefficients) != len(matrices) or any((m.rows, m.cols) != shape for m in matrices):
        raise ValueError("need one coefficient per matrix, all matrices of one shape")
    den = math.lcm(*(m.den for m in matrices))
    factors = [(c * (den // m.den), 0) for c, m in zip(coefficients, matrices)]
    rows = zip(*(m.nonzeros for m in matrices))
    return ExactMatrix(*shape, tuple(_sum_rows(zip(factors, r)) for r in rows), den)


def _row_times(ra: SparseRow, b: ExactMatrix) -> SparseRow:
    """Row ra of A times B, as numerators over a.den * b.den; a one-entry row, as in
    every Pauli realization, scales one row of B, whose nonzeros stay nonzero."""
    if len(ra) != 1:
        return _sum_rows(((ar, ai), b.nonzeros[k]) for k, ar, ai in ra)
    [(k, ar, ai)] = ra
    return tuple((j, ar * br - ai * bi, ar * bi + ai * br) for j, br, bi in b.nonzeros[k])


def commutator_is_zero(a: ExactMatrix, b: ExactMatrix) -> bool:
    """True iff AB - BA vanishes exactly, compared row by row up to the first
    row that differs; both products share the denominator."""
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
        elif _row_times(ra, b) != _row_times(rb, a):
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
    """Fraction-free forward (Bareiss) elimination of M - shift*I's numerators over Z[i].

    Returns the rows as {col: (re, im)} and the pivot columns; the first
    len(pivots) rows are in row echelon form and the rest are zero. With p the
    new pivot and q the previous one (1 at first), each row i below the pivot
    row becomes (p*row_i - row_i[col]*row_r) / q, whose entries are minors up
    to sign, so q divides exactly in Z[i] (Bareiss 1968); an inexact one raises.
    """
    work = [{j: (re, im) for j, re, im in row} for row in m.nonzeros]
    for i, row in enumerate(work[: m.cols] if shift else ()):  # I's ones are at (i, i)
        re, im = row.pop(i, (0, 0))
        if re != (x := shift * m.den) or im:  # a cancelled entry goes: a stored one is a pivot
            row[i] = (re - x, im)
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
        if len(pivots) == m.rows:
            break
    return work, pivots


def rank(m: ExactMatrix, shift: int = 0) -> int:
    """Exact rank of M - shift*I, I's ones on M's main diagonal, for an integer shift."""
    return len(_echelon(m, operator.index(shift))[1])


def nullspace(m: ExactMatrix) -> list[tuple[Pair, ...]]:
    """Exact basis of the right nullspace: per free column f, the solution with
    x_f = 1 and every other free entry 0, by back-substitution on the echelon rows."""
    work, pivots = _echelon(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        x = {free: ONE}
        for row, pcol in zip(reversed(work[: len(pivots)]), reversed(pivots)):
            sr = si = Fraction(0)  # sum over the row's later entries of row_j * x_j
            for j, (er, ei) in row.items():
                if j != pcol and j in x:
                    xr, xi = x[j]
                    sr, si = sr + er * xr - ei * xi, si + er * xi + ei * xr
            dr, di = row[pcol]  # x_pcol = -s / d = -s * conj(d) / |d|^2
            n = dr * dr + di * di
            x[pcol] = ((-sr * dr - si * di) / n, (sr * di - si * dr) / n)
        basis.append(tuple(x.get(c, ZERO) for c in range(m.cols)))
    return basis


def is_product_state(r: Ray, site_dims: Sequence[int]) -> bool:
    """True iff the ray factorizes as a tensor product of one vector per site.

    Checked exactly: every successive left/right reshape must have rank one.
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
