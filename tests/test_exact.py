import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil.exact import (
    ExactMatrix,
    GaussianRational,
    Ray,
    commutator_is_zero,
    inner_product,
    is_product_state,
    nullspace,
    rank,
    tensor,
)

from _oracles import raw_inner, two_qubit_determinant


def gr(re, im=0):
    return GaussianRational(re, im)


SIGMA_X = ExactMatrix.from_rows([[0, 1], [1, 0]])
SIGMA_Y = ExactMatrix.from_rows([[0, gr(0, -1)], [gr(0, 1), 0]])
SIGMA_Z = ExactMatrix.from_rows([[1, 0], [0, -1]])
ID2 = ExactMatrix.identity(2)


class TestGaussianRational:
    def test_arithmetic(self):
        a = gr(Fraction(1, 2), Fraction(3, 4))
        b = gr(2, -1)
        assert a + b == gr(Fraction(5, 2), Fraction(-1, 4))
        assert a * b == gr(Fraction(7, 4), 1)
        assert (a / b) * b == a
        assert -a + a == gr(0)

    def test_conjugate_and_norm(self):
        a = gr(3, -4)
        assert a.conjugate() == gr(3, 4)
        assert a.norm_squared() == 25
        assert (a * a.conjugate()) == gr(25)

    def test_exact_equality(self):
        assert gr(Fraction(1, 3)) + gr(Fraction(1, 3)) + gr(Fraction(1, 3)) == gr(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    def test_json_roundtrip(self):
        a = gr(Fraction(-3, 7), Fraction(5, 2))
        assert GaussianRational.from_json(a.to_json()) == a

    def test_str(self):
        assert str(gr(1, -2)) == "1-2i"
        assert str(gr(0, 1)) == "1i"
        assert str(gr(Fraction(1, 2))) == "1/2"


class TestRayCanonicalization:
    def test_leading_entry_positive(self):
        assert Ray([-1, -1, -1, 1]) == Ray([1, 1, 1, -1])
        assert Ray([-1, 1, 0, 0]).to_json() == [1, -1, 0, 0]

    def test_content_removed(self):
        assert Ray([2, 4, 0, -2]).to_json() == [1, 2, 0, -1]

    def test_denominators_cleared(self):
        assert Ray([Fraction(1, 2), Fraction(-1, 2)]).to_json() == [1, -1]

    def test_gaussian_unit_and_content(self):
        # (1+i)*(1, i) scales back down to the same canonical ray
        v = Ray([gr(1), gr(0, 1)])
        w = Ray([gr(1, 1), gr(-1, 1)])  # (1+i)*(1, i) = (1+i, -1+i)
        assert v == w

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Ray([0, 0, 0])
        with pytest.raises(ValueError):
            Ray([])

    @given(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6
        ).filter(lambda v: any(c != (0, 0) for c in v)),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
            lambda k: k != (0, 0)
        ),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, comps, k):
        scale = gr(*k)
        original = Ray([gr(*c) for c in comps])
        scaled = Ray([scale * gr(*c) for c in comps])
        assert original == scaled

    @given(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6
        ).filter(lambda v: any(c != (0, 0) for c in v))
    )
    @settings(max_examples=200)
    def test_idempotence(self, comps):
        r = Ray([gr(*c) for c in comps])
        assert Ray(r.components) == r

    def test_json_roundtrip_complex(self):
        r = Ray([gr(1), gr(0, 1), gr(2, -3)])
        assert Ray.from_json(r.to_json()) == r


class TestInnerProduct:
    def test_disjoint_support(self):
        assert inner_product(Ray([1, 0, 0, 0]), Ray([0, 1, 0, 0])).is_zero()

    def test_same_context_pair(self):
        # rows 4 of the square: (1,1,0,0) vs (-1,1,0,0)
        assert inner_product(Ray([1, 1, 0, 0]), Ray([-1, 1, 0, 0])).is_zero()

    def test_nonorthogonal_pair(self):
        # on the literal vectors the product is -2; canonicalization flips
        # the second vector's sign, so the rays give +2 - nonzero either way
        assert raw_inner([1, 1, 1, 1], [-1, -1, -1, 1]) == gr(-2)
        assert inner_product(Ray([1, 1, 1, 1]), Ray([-1, -1, -1, 1])) == gr(2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(Ray([1, 0]), Ray([1, 0, 0]))

    @given(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=2, max_size=5),
        st.data(),
    )
    @settings(max_examples=150)
    def test_conjugate_symmetry(self, comps, data):
        if not any(c != (0, 0) for c in comps):
            comps[0] = (1, 0)
        other = data.draw(
            st.lists(
                st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                min_size=len(comps),
                max_size=len(comps),
            ).filter(lambda v: any(c != (0, 0) for c in v))
        )
        u = Ray([gr(*c) for c in comps])
        v = Ray([gr(*c) for c in other])
        assert inner_product(u, v) == inner_product(v, u).conjugate()


class TestTensor:
    def test_z_tensor_identity(self):
        m = tensor(SIGMA_Z, ID2)
        assert m == ExactMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        )

    def test_yy_antidiagonal(self):
        m = tensor(SIGMA_Y, SIGMA_Y)
        assert m == ExactMatrix.from_rows(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        )

    def test_zx_matches_first_intro_matrix(self):
        m = tensor(SIGMA_Z, SIGMA_X)
        assert m == ExactMatrix.from_rows(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
        )

    def test_second_intro_matrix_is_its_own_transpose(self):
        # the displayed literal is symmetric, so transposing is the identity
        literal = ExactMatrix.from_rows(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        )
        assert literal.conjugate_transpose() == literal
        assert tensor(SIGMA_Y, SIGMA_Y) == literal

    def test_mixed_product_property(self):
        a, b, c, d = SIGMA_Z, SIGMA_X, SIGMA_Y, SIGMA_Z
        assert tensor(a, b) @ tensor(c, d) == tensor(a @ c, b @ d)

    def test_associativity_up_to_reshape(self):
        a, b, c = SIGMA_X, SIGMA_Z, SIGMA_Y
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert left == right


class TestCommutator:
    def test_zx_yy_commute(self):
        assert commutator_is_zero(tensor(SIGMA_Z, SIGMA_X), tensor(SIGMA_Y, SIGMA_Y))

    def test_different_factors_commute(self):
        assert commutator_is_zero(tensor(SIGMA_Z, ID2), tensor(ID2, SIGMA_X))

    def test_zx_xx_do_not_commute(self):
        assert not commutator_is_zero(
            tensor(SIGMA_Z, SIGMA_X), tensor(SIGMA_X, SIGMA_X)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_is_zero(SIGMA_X, tensor(SIGMA_X, ID2))


class TestMatrixBasics:
    def test_hermitian_flag(self):
        assert SIGMA_Y.is_hermitian()
        assert not ExactMatrix.from_rows([[0, 1], [0, 0]]).is_hermitian()

    def test_matmul_shapes(self):
        with pytest.raises(ValueError):
            SIGMA_X @ tensor(SIGMA_X, ID2)

    def test_json_roundtrip(self):
        m = tensor(SIGMA_Y, SIGMA_Z).scale(gr(Fraction(1, 3), Fraction(-2, 5)))
        assert ExactMatrix.from_json(m.to_json()) == m

    def test_rank_and_nullspace(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert rank(m) == 2
        ns = nullspace(m)
        assert len(ns) == 1
        image = m.apply(ns[0])
        assert all(x.is_zero() for x in image)


class TestProductStates:
    def test_standard_basis_is_separable(self):
        assert is_product_state(Ray([1, 0, 0, 0]), (2, 2))

    def test_singlet_is_entangled(self):
        assert not is_product_state(Ray([0, 1, -1, 0]), (2, 2))

    def test_ghz_is_entangled_three_sites(self):
        assert not is_product_state(Ray([1, 0, 0, 0, 0, 0, 0, 1]), (2, 2, 2))

    def test_three_site_product(self):
        # (1,1) x (1,-1) x (1,0) = (1,0,-1,0,1,0,-1,0)
        assert is_product_state(Ray([1, 0, -1, 0, 1, 0, -1, 0]), (2, 2, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_product_state(Ray([1, 0, 0]), (2, 2))

    def test_determinant_equivalence_exhaustive(self):
        # two-qubit separability is exactly the vanishing of v0*v3 - v1*v2
        for v in itertools.product((-1, 0, 1), repeat=4):
            if all(x == 0 for x in v):
                continue
            expected = two_qubit_determinant(v).is_zero()
            assert is_product_state(Ray(v), (2, 2)) == expected


# ---------------------------------------------------------------------------
# The kernel skips zero entries; these references do not, and work on plain
# (re, im) Fraction pairs rather than GaussianRational arithmetic.


def _pair(z):
    return (z.re, z.im)


def _pmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _padd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _psub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _pdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def _naive_matmul(a, b):
    """Triple loop over every (i, j, k), zeros included."""
    out = [[(Fraction(0), Fraction(0))] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                out[i][j] = _padd(out[i][j], _pmul(a[i][k], b[k][j]))
    return out


def _naive_rank(a):
    """Forward elimination over every entry below each pivot."""
    work = [list(row) for row in a]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = _pdiv(work[i][col], work[r][col])
            for j in range(len(work[0])):
                work[i][j] = _psub(work[i][j], _pmul(f, work[r][j]))
        r += 1
    return r


def _pairs(m: ExactMatrix):
    return [[_pair(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


# about three zeros in four entries, like the monomial Pauli realizations
_SPARSE_ENTRY = st.tuples(
    st.integers(0, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)
).map(lambda t: gr(Fraction(t[1], t[3]), t[2]) if t[0] == 0 else gr(0))


def _sparse_matrix(rows, cols):
    return st.lists(
        st.lists(_SPARSE_ENTRY, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(ExactMatrix.from_rows)


class TestSparseKernelAgainstNaiveReference:
    @given(st.data(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matmul(self, data, n, k, m):
        a = data.draw(_sparse_matrix(n, k))
        b = data.draw(_sparse_matrix(k, m))
        assert _pairs(a @ b) == _naive_matmul(_pairs(a), _pairs(b))

    @given(st.data(), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_apply(self, data, n, m):
        a = data.draw(_sparse_matrix(n, m))
        vec = data.draw(st.lists(_SPARSE_ENTRY, min_size=m, max_size=m))
        column = [[_pair(x)] for x in vec]
        expected = [row[0] for row in _naive_matmul(_pairs(a), column)]
        assert [_pair(y) for y in a.apply(vec)] == expected

    @given(st.data(), st.integers(1, 6), st.integers(1, 3), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_rank(self, data, n, k, m):
        # a product through an inner dimension k has rank <= k, so deficient
        # ranks come up often
        a = data.draw(_sparse_matrix(n, k)) @ data.draw(_sparse_matrix(k, m))
        b = data.draw(_sparse_matrix(n, m))
        for x in (a, b, a + b):
            assert rank(x) == _naive_rank(_pairs(x))
            assert len(nullspace(x)) == x.cols - rank(x)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_inner_product(self, n, data):
        vec = st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n
        ).filter(lambda v: any(c != (0, 0) for c in v))
        u, v = (Ray([gr(*c) for c in data.draw(vec)]) for _ in range(2))
        assert inner_product(u, v) == raw_inner(u.components, v.components)
