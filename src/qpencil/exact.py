"""Exact arithmetic over the Gaussian rationals, with canonical projective rays.

Everything here is immutable and computes exactly: scalars are pairs of
``fractions.Fraction``, matrices are dense row-major tuples of such scalars,
and rays are projective integer vectors reduced to a unique canonical
representative so they can be hashed, deduplicated and compared.
Matrix arithmetic skips zeros: Pauli realizations have one nonzero per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence, Union

ScalarLike = Union["GaussianRational", int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("imaginary part given twice")
            object.__setattr__(self, "re", re.re)
            object.__setattr__(self, "im", re.im)
            return
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    @staticmethod
    def coerce(x: ScalarLike) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x))

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        n = o.norm_squared()
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self) -> list[int]:
        """Encode as ``[re_num, re_den, im_num, im_den]``."""
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @staticmethod
    def from_json(quad: Sequence[int]) -> "GaussianRational":
        rn, rd, im, id_ = quad
        return GaussianRational(Fraction(rn, rd), Fraction(im, id_))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


# ---------------------------------------------------------------------------
# Gaussian-integer helpers (internal; operate on (re, im) int pairs)


def _gauss_round_div(p: int, q: int) -> int:
    """Nearest integer to p/q; q > 0 assumed after normalization."""
    if q < 0:
        p, q = -p, -q
    return (2 * p + q) // (2 * q)


def gaussian_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Euclidean gcd in Z[i], unique up to units."""
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


def _mul_by_i_power(c: tuple[int, int], k: int) -> tuple[int, int]:
    re, im = c
    for _ in range(k % 4):
        re, im = -im, re
    return re, im


class Ray:
    """A projective vector with Gaussian-integer components in canonical form.

    Canonicalization divides out the Gaussian-integer content and multiplies
    by the unit that places the first nonzero component's phase in
    [0, pi/2); for real-component vectors that makes the leading entry a
    positive integer. Two inputs spanning the same complex line always
    canonicalize to the identical object, so rays hash and compare reliably.
    """

    __slots__ = ("_parts",)

    def __init__(self, components: Iterable[ScalarLike]):
        vals = [GaussianRational.coerce(c) for c in components]
        if not vals:
            raise ValueError("a ray needs at least one component")
        if all(v.is_zero() for v in vals):
            raise ValueError("the zero vector is not a ray")

        denom_lcm = 1
        for v in vals:
            denom_lcm = math.lcm(denom_lcm, v.re.denominator, v.im.denominator)
        ints = [
            (int(v.re * denom_lcm), int(v.im * denom_lcm)) for v in vals
        ]

        content = reduce(gaussian_gcd, ints, (0, 0))
        ints = [_gauss_exact_div(c, content) for c in ints]

        lead = next(c for c in ints if c != (0, 0))
        for k in range(4):
            re, im = _mul_by_i_power(lead, k)
            if re > 0 and im >= 0:
                break
        object.__setattr__(
            self, "_parts", tuple(_mul_by_i_power(c, k) for c in ints)
        )

    @property
    def dim(self) -> int:
        return len(self._parts)

    @property
    def components(self) -> tuple[GaussianRational, ...]:
        return tuple(GaussianRational(re, im) for re, im in self._parts)

    def is_real(self) -> bool:
        return all(im == 0 for _, im in self._parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ray) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: "Ray") -> bool:
        return self._parts < other._parts

    def __repr__(self) -> str:
        return f"Ray(({', '.join(str(GaussianRational(r, i)) for r, i in self._parts)}))"

    def to_json(self):
        """Integer component array; complex components become [re, im] pairs."""
        if self.is_real():
            return [re for re, _ in self._parts]
        return [[re, im] for re, im in self._parts]

    @staticmethod
    def from_json(data: Sequence) -> "Ray":
        comps = [
            GaussianRational(c[0], c[1]) if isinstance(c, (list, tuple)) else GaussianRational(c)
            for c in data
        ]
        return Ray(comps)


def inner_product(u: Ray, v: Ray) -> GaussianRational:
    """Hermitian inner product sum(conj(u_i) * v_i), exactly."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    re = im = 0
    for (ar, ai), (br, bi) in zip(u._parts, v._parts):
        re, im = re + ar * br + ai * bi, im + ar * bi - ai * br
    return GaussianRational(re, im)


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix of Gaussian rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(
            r, c, tuple(GaussianRational.coerce(x) for row in rows for x in row)
        )

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n))
        )

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows,
            self.cols,
            tuple(a + b if b else a for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows,
            self.cols,
            tuple(a - b if b else a for a, b in zip(self.entries, other.entries)),
        )

    def scale(self, s: ScalarLike) -> "ExactMatrix":
        s = GaussianRational.coerce(s)
        entries = tuple(s * e if e else e for e in self.entries)
        return ExactMatrix(self.rows, self.cols, entries)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        sparse_rows = [
            [(j, b) for j, b in enumerate(other.row(k)) if b] for k in range(other.rows)
        ]
        out = []
        for i in range(self.rows):
            acc = [ZERO] * other.cols
            for a, row_k in zip(self.row(i), sparse_rows):
                if a:
                    for j, b in row_k:
                        acc[j] = acc[j] + a * b
            out.extend(acc)
        return ExactMatrix(self.rows, other.cols, tuple(out))

    def conjugate_transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            tuple(
                self.at(i, j).conjugate()
                for j in range(self.cols)
                for i in range(self.rows)
            ),
        )

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.conjugate_transpose()

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def apply(self, vec: Sequence[GaussianRational]) -> tuple[GaussianRational, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match matrix columns")
        support = [(k, x) for k, x in enumerate(vec) if x]
        return tuple(
            sum((row[k] * x for k, x in support if row[k]), ZERO)
            for row in map(self.row, range(self.rows))
        )

    def to_complex_array(self):
        import numpy as np

        out = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = complex(self.at(i, j))
        return out

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [e.to_json() for e in self.entries],
        }

    @staticmethod
    def from_json(data: dict) -> "ExactMatrix":
        return ExactMatrix(
            data["rows"],
            data["cols"],
            tuple(GaussianRational.from_json(q) for q in data["entries"]),
        )

    def _check_same_shape(self, other: "ExactMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __str__(self) -> str:
        cells = [[str(self.at(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells
        )


def tensor(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; satisfies (A tensor B)(C tensor D) = AC tensor BD."""
    entries = tuple(
        x * y if x and y else ZERO
        for i in range(a.rows)
        for k in range(b.rows)
        for x in a.row(i)
        for y in b.row(k)
    )
    return ExactMatrix(a.rows * b.rows, a.cols * b.cols, entries)


def commutator_is_zero(a: ExactMatrix, b: ExactMatrix) -> bool:
    """True iff AB - BA vanishes exactly."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("commutator needs square matrices of equal dimension")
    return (a @ b - b @ a).is_zero()


def _rref(m: ExactMatrix) -> tuple[list[list[GaussianRational]], list[int]]:
    """Reduced row echelon form by Gaussian elimination, and its pivot columns."""
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    for col in range(m.cols):
        r = len(pivots)
        pivot = next(
            (i for i in range(r, m.rows) if not work[i][col].is_zero()), None
        )
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ONE / work[r][col]
        work[r] = [inv * x for x in work[r]]
        for i in range(m.rows):
            if i != r and not work[i][col].is_zero():
                f = work[i][col]
                work[i] = [x - f * y if y else x for x, y in zip(work[i], work[r])]
        pivots.append(col)
        if len(pivots) == m.rows:
            break
    return work, pivots


def rank(m: ExactMatrix) -> int:
    """Exact rank by Gaussian elimination over the Gaussian rationals."""
    return len(_rref(m)[1])


def nullspace(m: ExactMatrix) -> list[tuple[GaussianRational, ...]]:
    """Exact basis of the right nullspace (reduced row echelon back-substitution)."""
    work, pivots = _rref(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [ZERO] * m.cols
        vec[free] = ONE
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -work[prow][free]
        basis.append(tuple(vec))
    return basis


def is_product_state(r: Ray, site_dims: Sequence[int]) -> bool:
    """True iff the ray factorizes as a tensor product of one vector per site.

    Checked exactly: every successive left/right reshape must have rank one,
    i.e. all of its 2x2 minors vanish.
    """
    total = math.prod(site_dims)
    if total != r.dim:
        raise ValueError(
            f"site dimensions {tuple(site_dims)} do not multiply to {r.dim}"
        )
    comps = r.components
    for split in range(1, len(site_dims)):
        left = math.prod(site_dims[:split])
        right = total // left
        if not _reshape_is_rank_one(comps, left, right):
            return False
    return True


def _reshape_is_rank_one(
    comps: Sequence[GaussianRational], rows: int, cols: int
) -> bool:
    for i in range(rows):
        for k in range(i + 1, rows):
            for j in range(cols):
                for l in range(j + 1, cols):
                    minor = (
                        comps[i * cols + j] * comps[k * cols + l]
                        - comps[i * cols + l] * comps[k * cols + j]
                    )
                    if not minor.is_zero():
                        return False
    return True
