import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil.exact import (
    ExactMatrix,
    Ray,
    commutator_is_zero,
    components,
    inner_product,
    is_orthogonal,
    is_product_state,
    linear_combination,
    nullspace,
    rank,
)
from qpencil.pauli import parse_pauli, realization

from _oracles import (conjugate_transpose, padd, pair, pdiv, pmul, psub, raw_inner,
                      two_qubit_determinant)


SIGMA_X = ExactMatrix.from_rows([[0, 1], [1, 0]])
SIGMA_Y = ExactMatrix.from_rows([[0, (0, -1)], [(0, 1), 0]])
SIGMA_Z = ExactMatrix.from_rows([[1, 0], [0, -1]])


def word(text):
    return realization(parse_pauli(text))


class TestScalars:
    """An exact scalar is an int, a Fraction, or an (re, im) pair of them as a
    tuple or list; readouts are (Fraction, Fraction) pairs."""

    def test_exact_equality(self):
        third = ExactMatrix.from_rows([[(Fraction(1, 3), Fraction(-1, 3))]])
        total = linear_combination((1, 1, 1), (third,) * 3)
        assert total.at(0, 0) == (1, -1)
        assert all(type(x) is Fraction for x in total.at(0, 0))
        assert total == ExactMatrix.from_rows([[[1, -1]]])

    @pytest.mark.parametrize(
        "build",
        [lambda: Ray([(0.5, 0), 1]), lambda: ExactMatrix.from_rows([[1, (1, 0.5)]])],
        ids=["re", "im"],
    )
    def test_float_part_of_a_pair_is_rejected(self, build):
        with pytest.raises(TypeError, match="exact rational"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: Ray([x, 1]),
            lambda x: ExactMatrix.from_rows([[1, 0], [0, x]]),
            lambda x: SIGMA_X.scale(x),
        ],
        ids=["Ray", "from_rows", "scale"],
    )
    @pytest.mark.parametrize(
        "value", [0.5, "1", 1j, [1, 0, 0]], ids=["float", "str", "complex", "triple"]
    )
    def test_inexact_scalar_is_rejected(self, build, value):
        with pytest.raises(TypeError, match="exact rational"):
            build(value)

    @given(
        st.lists(
            st.one_of(st.integers(-9, 9), st.tuples(st.integers(-9, 9), st.integers(-9, 9))),
            min_size=1,
            max_size=6,
        ).filter(lambda v: any(c not in (0, (0, 0)) for c in v))
    )
    @settings(max_examples=200)
    def test_int_input_matches_fraction_input(self, values):
        # all-int input builds no Fraction; the same values as Fractions must agree
        fractions = [tuple(map(Fraction, c)) if isinstance(c, tuple) else Fraction(c)
                     for c in values]
        assert Ray(values) == Ray(fractions)
        m = ExactMatrix.from_rows([values, values[::-1]])
        assert m == ExactMatrix.from_rows([fractions, fractions[::-1]])
        assert m.apply(values) == m.apply(fractions)
        assert SIGMA_Y.scale(values[0]) == SIGMA_Y.scale(fractions[0])

    def test_readouts_are_fraction_pairs(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), (0, 1)], [[2, -3], 0]])
        assert m.row(0) == ((Fraction(1, 2), 0), (0, 1))
        assert m.at(1, 0) == (2, -3)
        assert m.apply([(0, 1), 2]) == ((0, Fraction(5, 2)), (3, 2))
        assert inner_product(Ray([1, (0, 1)]), Ray([(0, 1), 1])) == (0, 0)
        readouts = [*m.row(1), *m.apply([1, 1]), *nullspace(SIGMA_X - SIGMA_X)[0]]
        assert all(type(x) is Fraction for z in readouts for x in z)


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
        v = Ray([1, (0, 1)])
        w = Ray([(1, 1), (-1, 1)])  # (1+i)*(1, i) = (1+i, -1+i)
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
        original = Ray(comps)
        scaled = Ray([pmul(k, c) for c in comps])
        assert original == scaled

    @given(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6
        ).filter(lambda v: any(c != (0, 0) for c in v))
    )
    @settings(max_examples=200)
    def test_idempotence(self, comps):
        r = Ray(comps)
        assert Ray(r.parts) == r

    def test_pairs_may_be_lists(self):
        assert Ray([[0, 0], [2, 2]]) == Ray([0, (1, 1)])

    def test_from_parts_rejects_the_zero_vector(self):
        # Gaussian-integer parts, as Ray.parts holds them, take the all-int path
        with pytest.raises(ValueError):
            Ray([(0, 0), (0, 0)])
        with pytest.raises(ValueError):
            Ray([[0, 0], [0, 0]])

    def test_json_roundtrip_complex(self):
        r = Ray([1, (0, 1), (2, -3)])
        assert r.to_json() == [[1, 0], [0, 1], [2, -3]]
        assert Ray(r.to_json()) == r

    @pytest.mark.parametrize("data", [[1.0, 0], [[1, 0.5], 0], [[1, 2, 3], 0]])
    def test_json_needs_integer_components(self, data):
        with pytest.raises(TypeError):
            Ray(data)


class TestRaySupport:
    """A ray stores its nonzero components and its length; the dense form is
    built on demand."""

    def test_only_the_support_is_stored(self):
        r = Ray([0, 2, 0, -2])
        assert (r.dim, r.support) == (4, ((1, (1, 0)), (3, (-1, 0))))
        assert r.parts == ((0, 0), (1, 0), (0, 0), (-1, 0))

    def test_support_form_matches_dense_form(self):
        assert Ray([(1, 2), (3, (0, -2))], 4) == Ray([0, 2, 0, (0, -2)])
        # an explicit zero in the support is dropped, and denominators cleared
        assert Ray([(0, 0), (2, Fraction(1, 2))], 3) == Ray([0, 0, 1])
        assert Ray([(0, 1)], 1) != Ray([(0, 1)], 2)

    @pytest.mark.parametrize(
        "support",
        [[(1, 1), (0, 1)], [(1, 1), (1, 2)], [(4, 1)], [(-1, 1)], [(1.0, 1)], [(True, 1)]],
        ids=["descending", "repeated", "too-large", "negative", "float", "bool"],
    )
    def test_bad_support_indices_rejected(self, support):
        with pytest.raises(ValueError, match="ascend"):
            Ray(support, 4)

    def test_empty_support_is_the_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            Ray([], 3)
        with pytest.raises(ValueError, match="at least one component"):
            Ray([], 0)


class TestInnerProduct:
    def test_disjoint_support(self):
        assert inner_product(Ray([1, 0, 0, 0]), Ray([0, 1, 0, 0])) == (0, 0)

    def test_same_context_pair(self):
        # rows 4 of the square: (1,1,0,0) vs (-1,1,0,0)
        assert inner_product(Ray([1, 1, 0, 0]), Ray([-1, 1, 0, 0])) == (0, 0)
        assert is_orthogonal(Ray([1, 1, 0, 0]), Ray([-1, 1, 0, 0]))
        assert not is_orthogonal(Ray([1, 1, 1, 1]), Ray([-1, -1, -1, 1]))

    def test_nonorthogonal_pair(self):
        # on the literal vectors the product is -2; canonicalization flips
        # the second vector's sign, so the rays give +2 - nonzero either way
        assert raw_inner([1, 1, 1, 1], [-1, -1, -1, 1]) == (-2, 0)
        assert inner_product(Ray([1, 1, 1, 1]), Ray([-1, -1, -1, 1])) == (2, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(Ray([1, 0]), Ray([1, 0, 0]))
        with pytest.raises(ValueError):
            is_orthogonal(Ray([1, 0]), Ray([1, 0, 0]))

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
        u, v = Ray(comps), Ray(other)
        (re, im), vu = inner_product(u, v), inner_product(v, u)
        assert (re, im) == (vu[0], -vu[1])


class TestTensor:
    """A multi-site Pauli word realizes as the Kronecker product of its letters."""

    def test_z_tensor_identity(self):
        m = word("ZI")
        assert m == ExactMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        )

    def test_yy_antidiagonal(self):
        m = word("YY")
        assert m == ExactMatrix.from_rows(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        )

    def test_zx_matches_first_intro_matrix(self):
        m = word("ZX")
        assert m == ExactMatrix.from_rows(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
        )

    def test_second_intro_matrix_is_its_own_transpose(self):
        # the displayed literal is symmetric, so transposing is the identity
        literal = ExactMatrix.from_rows(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        )
        assert conjugate_transpose(literal) == literal
        assert word("YY") == literal

    def test_mixed_product_property(self):
        # (Z x X)(Y x Z) = ZY x XZ = (-iX) x (-iY) = -(X x Y)
        assert word("ZX") @ word("YZ") == word("XY").scale(-1)

    def test_associativity_up_to_reshape(self):
        # (X x Z) x Y and X x (Z x Y) are the same three-site word
        left = word("XZI") @ word("IIY")
        right = word("XII") @ word("IZY")
        assert left == right == word("XZY")


class TestCommutator:
    def test_zx_yy_commute(self):
        assert commutator_is_zero(word("ZX"), word("YY"))

    def test_different_factors_commute(self):
        assert commutator_is_zero(word("ZI"), word("IX"))

    def test_zx_xx_do_not_commute(self):
        assert not commutator_is_zero(word("ZX"), word("XX"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_is_zero(SIGMA_X, word("XI"))

    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_products(self, data, n):
        # row by row must decide as AB == BA does, on sparse draws (one-entry and
        # denser rows) and on monomial ones (every row one entry, as for Pauli words)
        a, b = (data.draw(_sparse_matrix(n, n)) for _ in range(2))
        p, q = (data.draw(_monomial_matrix(n)) for _ in range(2))
        for x, y in ((a, b), (a, a + b), (a, a @ a), (p, q), (p, p @ p), (p, q @ p @ q), (p, a)):
            assert commutator_is_zero(x, y) == (x @ y == y @ x)


class TestMatrixBasics:
    def test_hermitian_flag(self):
        assert SIGMA_Y.is_hermitian()
        assert not ExactMatrix.from_rows([[0, 1], [0, 0]]).is_hermitian()

    def test_hermitian_flag_on_edge_cases(self):
        half = Fraction(1, 2)
        cases = {
            "den 2": ([[half, (0, half)], [(0, -half), 3]], True),
            "non-real diagonal": ([[(1, 1), 0], [0, 1]], False),
            "one-sided off-diagonal": ([[0, 0, 0], [0, 0, 0], [(1, half), 0, 0]], False),
            "unconjugated mirror": ([[0, (1, 1)], [(1, 1), 0]], False),
            "non-square": ([[0, 0, 1], [0, 0, 0]], False),
        }
        for name, (rows, expected) in cases.items():
            m = ExactMatrix.from_rows(rows)
            assert m.is_hermitian() is expected, name
            assert (m == conjugate_transpose(m)) is expected, name

    @given(st.data(), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_hermitian_flag_matches_conjugate_transpose(self, data, n, m):
        # a random draw is rarely Hermitian, so A + A^H is made one, then broken
        # by a non-real diagonal entry or by a one-sided off-diagonal entry
        a = data.draw(_sparse_matrix(n, m))
        cases = [a]
        if n == m:
            h = a + conjugate_transpose(a)
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            imaginary = [[(0, Fraction(1, 3)) if r == c == i else 0 for c in range(n)]
                         for r in range(n)]
            cases += [h, h.scale(Fraction(1, 3)), h + ExactMatrix.from_rows(imaginary)]
            if i != j:  # entry (i, j) set, its mirror (j, i) cleared
                one_sided = [list(h.row(r)) for r in range(n)]
                one_sided[i][j] = data.draw(_SPARSE_ENTRY.filter(lambda v: v not in (0, (0, 0))))
                one_sided[j][i] = 0
                cases.append(ExactMatrix.from_rows(one_sided))
            assert h.is_hermitian() and not cases[3].is_hermitian()
            assert len(cases) == 4 or not cases[4].is_hermitian()
        for x in cases:
            assert x.is_hermitian() == (x == conjugate_transpose(x))

    def test_matmul_shapes(self):
        with pytest.raises(ValueError):
            SIGMA_X @ word("XI")

    @pytest.mark.parametrize(
        "rows, nonzeros, den", [(2, ((),), 1), (1, ((),), 0)], ids=["row-count", "zero-den"]
    )
    def test_rows_and_denominator_must_fit(self, rows, nonzeros, den):
        with pytest.raises(ValueError, match="one sparse row per row and a positive denominator"):
            ExactMatrix(rows, 1, nonzeros, den)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged rows"):
            ExactMatrix.from_rows([[1, 0], [1]])

    def test_equal_matrices_built_by_different_routes(self):
        m = word("YZ")
        b = ExactMatrix.from_rows(  # common denominator 6
            [
                [Fraction(1, 6), 0, 0, 0],
                [0, (0, Fraction(-5, 6)), 0, 0],
                [0, 0, 1, 0],
                [Fraction(1, 2), 0, 0, (Fraction(1, 3), 1)],
            ]
        )
        half = ExactMatrix.from_rows([[Fraction(1, 2)]])
        pairs = [
            (m.scale(Fraction(1, 3)).scale(3), m),
            ((m + b) - b, m),
            (ExactMatrix.from_rows([[Fraction(2, 4)]]), half),
            (b.scale(0), ExactMatrix.from_rows([[0] * 4] * 4)),
        ]
        for x, y in pairs:
            assert x == y
            assert hash(x) == hash(y)

    def test_linear_combination_checks_its_input(self):
        with pytest.raises(TypeError):
            linear_combination((Fraction(1, 2),), (SIGMA_X,))
        with pytest.raises(ValueError):
            linear_combination((1, 1), (SIGMA_X, word("XI")))
        with pytest.raises(ValueError):
            linear_combination((1,), (SIGMA_X, SIGMA_Z))

    def test_rank_and_nullspace(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert rank(m) == 2
        ns = nullspace(m)
        assert len(ns) == 1
        image = m.apply(ns[0])
        assert image == ((0, 0),) * 3


class TestRowContract:
    """``ExactMatrix`` takes sparse rows only with nonzero entries in strictly
    ascending columns within [0, cols): a stored zero or a misplaced index would
    be read wrongly by the kernels that walk the rows."""

    @pytest.mark.parametrize(
        "cols, nonzeros",
        [
            (3, (((0, 0, 0), (1, 1, 0)), ((0, 1, 0), (2, 1, 0)), ((1, 1, 0), (2, 1, 0)))),
            (2, (((1, 0, 0),), ((1, 1, 0),))),
            (1, (((3, 1, 0),),)),
            (1, (((-1, 1, 0),),)),
            (2, (((1, 1, 0), (0, 1, 0)), ((0, 1, 0),))),
            (2, (((0, 1, 0), (0, 1, 0)), ((0, 1, 0),))),
        ],
        ids=["zero-pivot", "zero-link", "past-cols", "negative", "descending", "repeated"],
    )
    def test_malformed_rows_are_rejected(self, cols, nonzeros):
        with pytest.raises(ValueError, match="needs nonzeros in rising columns <"):
            ExactMatrix(len(nonzeros), cols, nonzeros)

    def test_a_stored_zero_would_hide_a_pivot(self):
        # [[0, 1, 0], [1, 0, 1], [0, 1, 1]] has determinant -1; with its (0, 0) zero
        # stored, elimination would take it as the first pivot and find rank 2
        m = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert m.nonzeros[0] == ((1, 1, 0),)
        assert rank(m) == 3

    def test_a_stored_zero_would_join_components(self):
        # a stored zero at (0, 1) would link indices 0 and 1
        assert components(ExactMatrix.from_rows([[0, 0], [0, 1]])) == [[0], [1]]

    def test_ascending_symmetric_rows_are_hermitian(self):
        m = ExactMatrix(2, 2, (((0, 1, 0), (1, 1, 0)), ((0, 1, 0),)))
        assert m == ExactMatrix.from_rows([[1, 1], [1, 0]]) and m.is_hermitian()


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
            expected = two_qubit_determinant(v) == (0, 0)
            assert is_product_state(Ray(v), (2, 2)) == expected


# ---------------------------------------------------------------------------
# The kernel skips zero entries; these references do not, and work on plain
# (re, im) Fraction pairs with the oracles' own arithmetic.


def _naive_matmul(a, b):
    """Triple loop over every (i, j, k), zeros included."""
    out = [[(Fraction(0), Fraction(0))] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                out[i][j] = padd(out[i][j], pmul(a[i][k], b[k][j]))
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
            f = pdiv(work[i][col], work[r][col])
            for j in range(len(work[0])):
                work[i][j] = psub(work[i][j], pmul(f, work[r][j]))
        r += 1
    return r


def _naive_nullspace(a):
    """Gauss-Jordan to reduced row echelon form over every entry, then one
    basis vector per free column."""
    work = [list(row) for row in a]
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
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [zero] * cols
        vec[free] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = psub(zero, work[prow][free])
        basis.append(vec)
    return basis


def _pairs(m: ExactMatrix):
    return [list(m.row(i)) for i in range(m.rows)]


# about three zeros in four entries, like the monomial Pauli realizations
_SPARSE_ENTRY = st.tuples(
    st.integers(0, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)
).map(lambda t: (Fraction(t[1], t[3]), t[2]) if t[0] == 0 else 0)


def _sparse_matrix(rows, cols):
    return st.lists(
        st.lists(_SPARSE_ENTRY, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(ExactMatrix.from_rows)


def _monomial_matrix(n):
    """A permutation matrix whose ones are scaled by Gaussian integers."""
    units = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (2, 1)])
    return st.tuples(
        st.permutations(range(n)), st.lists(units, min_size=n, max_size=n)
    ).map(lambda t: ExactMatrix(n, n, tuple(((j, *c),) for j, c in zip(*t))))


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
        column = [[pair(x)] for x in vec]
        expected = [row[0] for row in _naive_matmul(_pairs(a), column)]
        assert list(a.apply(vec)) == expected

    @given(st.data(), st.integers(1, 8), st.integers(1, 4), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_rank(self, data, n, k, m):
        # a product through an inner dimension k has rank <= k, so deficient
        # ranks come up often; entries are complex with denominators up to 3
        a = data.draw(_sparse_matrix(n, k)) @ data.draw(_sparse_matrix(k, m))
        b = data.draw(_sparse_matrix(n, m))
        for x in (a, b, a + b):
            assert rank(x) == _naive_rank(_pairs(x))
            basis = [list(v) for v in nullspace(x)]
            assert basis == _naive_nullspace(_pairs(x))

    @given(st.data(), st.integers(3, 6), st.integers(2, 6), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_rank_with_non_unit_pivots(self, data, n, m, den):
        # nonzero entries over den, with 1 + i at (0, 0) and 1/den at (0, 1): the
        # first pivot is den*(1 + i), a non-unit, and every row below a second
        # pivot is divided by it exactly
        entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda z: z != (0, 0))
        rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                  min_size=n, max_size=n))
        rows = [[(Fraction(re, den), Fraction(im, den)) for re, im in row] for row in rows]
        rows[0][:2] = [(1, 1), Fraction(1, den)]
        x = ExactMatrix.from_rows(rows)
        assert x.den == den and x.nonzeros[0][0] == (0, den, den)
        assert rank(x) == _naive_rank(_pairs(x))
        assert [list(v) for v in nullspace(x)] == _naive_nullspace(_pairs(x))

    @given(st.data(), st.integers(1, 5), st.integers(1, 3), st.integers(1, 5),
           st.integers(1, 4), st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_shifted_rank(self, data, n, k, m, den, shift):
        # M = T + shift*I, I's ones on the main diagonal, where T is a product
        # through inner dimension k of Gaussian matrices over den, so often
        # rank-deficient; some rows of T are then redrawn so that M's diagonal
        # entry cancels (T_ii = 0, or the whole row 0) or is missing (T_ii = -shift,
        # or the row -shift*e_i, which leaves M's row empty)
        entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
            lambda z: (Fraction(z[0], den), Fraction(z[1], den)))
        factors = [data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                      min_size=r, max_size=r).map(ExactMatrix.from_rows))
                   for r, c in ((n, k), (k, m))]
        target = _pairs(factors[0] @ factors[1])
        for i in range(min(n, m)):
            kind = data.draw(st.sampled_from(["kept", "cancel", "zero", "missing", "empty"]))
            if kind in ("zero", "empty"):
                target[i] = [0] * m
            if kind != "kept":
                target[i][i] = -shift if kind in ("missing", "empty") else 0
        eye = ExactMatrix.from_rows([[int(i == j) for j in range(m)] for i in range(n)])
        t = ExactMatrix.from_rows(target)
        x = t + eye.scale(shift)
        assert linear_combination((1, -shift), (x, eye)) == t
        assert rank(x, shift) == rank(t) == _naive_rank(_pairs(t))
        if n == m:
            assert eye == ExactMatrix.identity(n)

    def test_shift_must_be_an_integer(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
        assert rank(m, 1) == 1
        with pytest.raises(TypeError):
            rank(m, Fraction(1, 2))
        with pytest.raises(TypeError):
            rank(m, 0.5)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_inner_product(self, n, data):
        vec = st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n
        ).filter(lambda v: any(c != (0, 0) for c in v))
        u, v = (Ray(data.draw(vec)) for _ in range(2))
        assert inner_product(u, v) == raw_inner(u.parts, v.parts)
        assert is_orthogonal(u, v) == (raw_inner(u.parts, v.parts) == (0, 0))

    @given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_linear_combination(self, data, n, m, terms):
        matrices = [data.draw(_sparse_matrix(n, m)) for _ in range(terms)]
        coefficients = data.draw(st.lists(st.integers(-4, 4), min_size=terms, max_size=terms))
        expected = [[(Fraction(0), Fraction(0))] * m for _ in range(n)]
        for c, mat in zip(coefficients, matrices):
            for i, row in enumerate(_pairs(mat)):
                for j, x in enumerate(row):
                    expected[i][j] = padd(expected[i][j], (c * x[0], c * x[1]))
        combined = linear_combination(coefficients, matrices)
        assert _pairs(combined) == expected
        assert combined == ExactMatrix.from_rows(
            [list(row) for row in expected]
        )


def _components_reference(pattern: list[list[bool]]) -> list[list[int]]:
    """Connected components of i ~ j (either (i, j) or (j, i) nonzero), by
    repeated closure from the smallest unplaced index."""
    n, placed, out = len(pattern), set(), []
    linked = [[pattern[i][j] or pattern[j][i] for j in range(n)] for i in range(n)]
    for start in range(n):
        if start in placed:
            continue
        comp = {start}
        while grown := {j for i in comp for j in range(n) if linked[i][j]} - comp:
            comp |= grown
        placed |= comp
        out.append(sorted(comp))
    return out


def _principal(dense, idx):
    return ExactMatrix.from_rows([[dense[i][j] for j in idx] for i in idx])


def _principal_blocks(m: ExactMatrix) -> list[ExactMatrix]:
    """The principal submatrices of m on its ``components``, from its dense rows."""
    dense = _pairs(m)
    return [_principal(dense, idx) for idx in components(m)]


def _reassembled(m: ExactMatrix) -> ExactMatrix:
    """The matrix with m's entries inside its components and zeros elsewhere."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for idx, block in zip(components(m), _principal_blocks(m)):
        for k, i in enumerate(idx):
            for l, j in enumerate(idx):
                out[i][j] = block.at(k, l)
    return ExactMatrix.from_rows(out)


class TestComponents:
    def test_scrambled_block_diagonal_matrix(self):
        # blocks of sizes 3, 1 and 2, rows and columns permuted alike
        blocks = [
            [[1, 2, 0], [2, (0, 1), 3], [0, 3, -1]],
            [[7]],
            [[4, (1, -1)], [(1, 1), 5]],
        ]
        n = 6
        dense = [[0] * n for _ in range(n)]
        offset = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, x in enumerate(row):
                    dense[offset + i][offset + j] = x
            offset += len(b)
        perm = [4, 0, 5, 2, 1, 3]  # new index of old index k is perm[k]
        scrambled = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                scrambled[perm[i]][perm[j]] = dense[i][j]
        m = ExactMatrix.from_rows(scrambled)
        expected = [[0, 4, 5], [1, 3], [2]]  # perm of {0, 1, 2}, {4, 5} and {3}
        pattern = [[x != 0 for x in row] for row in scrambled]
        assert _components_reference(pattern) == expected
        assert components(m) == expected
        assert _principal_blocks(m)[2] == ExactMatrix.from_rows([[7]])
        assert _reassembled(m) == m

    def test_zero_rows_are_one_index_components(self):
        m = ExactMatrix.from_rows([[0, 0, 2], [0, 0, 0], [2, 0, 0]])
        assert components(m) == [[0, 2], [1]]
        assert components(ExactMatrix(3, 3, ((), (), ()))) == [[0], [1], [2]]

    def test_non_symmetric_pattern(self):
        # (0, 1) and (2, 1) join 0, 1, 2 although no entry is mirrored; (4, 3) joins 3, 4
        m = ExactMatrix.from_rows([
            [0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 5, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 3, 0],
        ])
        assert components(m) == [[0, 1, 2], [3, 4]]
        assert _reassembled(m) == m

    def test_pauli_pencil_blocks_are_x_mask_cosets(self):
        # XXI and ZZI have x-mask span {000, 110}: four cosets of two indices
        p = linear_combination((1, 2), (word("XXI"), word("ZZI")))
        assert components(p) == [[0, 6], [1, 7], [2, 4], [3, 5]]

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_non_square_matrix_is_rejected(self, shape):
        rows, cols = shape
        m = ExactMatrix.from_rows([[1] * cols for _ in range(rows)])
        with pytest.raises(ValueError, match="square"):
            components(m)

    @given(st.data(), st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_blocks_reassemble_the_matrix(self, data, n):
        m = data.draw(_sparse_matrix(n, n))
        pattern = [[x != (0, 0) for x in row] for row in _pairs(m)]
        assert components(m) == _components_reference(pattern)
        assert _reassembled(m) == m
        assert sum(rank(b) for b in _principal_blocks(m)) == rank(m)
