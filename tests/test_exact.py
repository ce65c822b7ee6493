import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil import exact
from qpencil.exact import (
    ExactMatrix,
    Ray,
    commutator_is_zero,
    components,
    inner_product,
    is_product_state,
    linear_combination,
    nullspace,
    rank,
)
from qpencil.pauli import parse_pauli, realization, serial_product

from _oracles import (apply_dense, conjugate_transpose, dense_rows,
                      is_product_state_by_elimination, naive_matmul, naive_rank, padd,
                      pair, pair_rows, pmul, product, raw_inner, ray_of, reference_kernel,
                      shifted_rows, two_qubit_determinant)


SIGMA_X = ExactMatrix.from_rows([[0, 1], [1, 0]])
SIGMA_Y = ExactMatrix.from_rows([[0, (0, -1)], [(0, 1), 0]])
SIGMA_Z = ExactMatrix.from_rows([[1, 0], [0, -1]])


def word(text):
    """The matrix of a Pauli word, or of a '*'-joined product composed symbolically."""
    return realization(serial_product([parse_pauli(f) for f in text.split("*")]))


class TestScalars:
    """An exact scalar is a Gaussian integer: an int, or an (re, im) pair of ints
    as a tuple or list; readouts are (re, im) pairs of ints."""

    def test_exact_equality(self):
        unit = ExactMatrix.from_rows([[(1, -1)]])
        total = linear_combination((1, 1, 1), (unit,) * 3)
        assert dense_rows(total)[0][0] == (3, -3)
        assert total.nonzeros == (((0, 3, -3),),)
        assert total == ExactMatrix.from_rows([[[3, -3]]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExactMatrix.from_rows([[Fraction(1, 2)]]),
            lambda: ExactMatrix.from_rows([[1, (0, Fraction(-5, 6))]]),
            lambda: ExactMatrix.from_rows([[(Fraction(3, 3), Fraction(-2, 2))]]),
            lambda: Ray([Fraction(1, 2), Fraction(-1, 2)]),
            lambda: Ray([1, (1, Fraction(1, 3))]),
        ],
        ids=["from_rows", "from_rows-im", "from_rows-integral", "Ray", "Ray-im"],
    )
    def test_a_fraction_is_rejected(self, build):
        # one scalar form: a Fraction, even an integral one, is not a Gaussian integer
        with pytest.raises(TypeError, match="exact integer"):
            build()

    @pytest.mark.parametrize(
        "build",
        [lambda: Ray([(0.5, 0), 1]), lambda: ExactMatrix.from_rows([[1, (1, 0.5)]])],
        ids=["re", "im"],
    )
    def test_float_part_of_a_pair_is_rejected(self, build):
        with pytest.raises(TypeError, match="exact integer"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: Ray([x, 1]),
            lambda x: ExactMatrix.from_rows([[1, 0], [0, x]]),
            lambda x: Ray([(1, x)]),
        ],
        ids=["Ray", "from_rows", "Ray-im"],
    )
    @pytest.mark.parametrize(
        "value", [0.5, "1", 1j, [1, 0, 0], True, np.int64(1)],
        ids=["float", "str", "complex", "triple", "bool", "numpy"],
    )
    def test_inexact_scalar_is_rejected(self, build, value):
        with pytest.raises(TypeError, match="exact integer"):
            build(value)

    @given(
        st.lists(
            st.one_of(st.integers(-9, 9), st.tuples(st.integers(-9, 9), st.integers(-9, 9))),
            min_size=1,
            max_size=6,
        ).filter(lambda v: any(c not in (0, (0, 0)) for c in v))
    )
    @settings(max_examples=200)
    def test_tuple_list_and_int_input_agree(self, values):
        # a pair may be a tuple or a list, and an int is a pair with im = 0;
        # the same values as Fractions are refused
        lists = [list(c) if isinstance(c, tuple) else [c, 0] for c in values]
        assert Ray(values) == Ray(lists)
        m = ExactMatrix.from_rows([values, values[::-1]])
        assert m == ExactMatrix.from_rows([lists, lists[::-1]])
        assert dense_rows(m)[0] == [pair(c) for c in values]
        fractions = [tuple(map(Fraction, c)) if isinstance(c, tuple) else Fraction(c)
                     for c in values]
        with pytest.raises(TypeError):
            Ray(fractions)
        with pytest.raises(TypeError):
            ExactMatrix.from_rows([fractions, fractions[::-1]])

    def test_readouts_are_gaussian_integers(self):
        m = ExactMatrix.from_rows([[3, (0, 1)], [[2, -3], 0]])
        assert m.nonzeros == (((0, 3, 0), (1, 0, 1)), ((0, 2, -3),))
        assert inner_product(Ray([1, (0, 1)]), Ray([(0, 1), 1])) == (0, 0)
        [ray] = nullspace(ExactMatrix.from_rows([[1, (0, 1)], [(0, -1), 1]]))
        assert ray.to_json() == [[1, 0], [0, 1]]
        readouts = [*ray.parts, inner_product(ray, ray), *(e[1:] for e in m.nonzeros[1])]
        assert all(type(x) is int for z in readouts for x in z)


class TestRayCanonicalization:
    def test_leading_entry_positive(self):
        assert Ray([-1, -1, -1, 1]) == Ray([1, 1, 1, -1])
        assert Ray([-1, 1, 0, 0]).to_json() == [1, -1, 0, 0]

    def test_content_removed(self):
        assert Ray([2, 4, 0, -2]).to_json() == [1, 2, 0, -1]

    def test_denominators_are_not_cleared(self):
        # a ray takes Gaussian integers only: the caller clears denominators
        assert Ray([1, -1]).to_json() == [1, -1]
        with pytest.raises(TypeError):
            Ray([Fraction(1, 2), Fraction(-1, 2)])

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
        # an explicit zero in the support is dropped, and the content divided out
        assert Ray([(0, 0), (2, 2)], 3) == Ray([0, 0, 1])
        with pytest.raises(TypeError):
            Ray([(0, 0), (2, Fraction(1, 2))], 3)
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
        assert inner_product(Ray([1, 1, 0, 0]), Ray([-1, 1, 0, 0])) == (0, 0)
        assert not inner_product(Ray([1, 1, 1, 1]), Ray([-1, -1, -1, 1])) == (0, 0)

    def test_nonorthogonal_pair(self):
        # on the literal vectors the product is -2; canonicalization flips
        # the second vector's sign, so the rays give +2 - nonzero either way
        assert raw_inner([1, 1, 1, 1], [-1, -1, -1, 1]) == (-2, 0)
        assert inner_product(Ray([1, 1, 1, 1]), Ray([-1, -1, -1, 1])) == (2, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(Ray([1, 0]), Ray([1, 0, 0]))
        with pytest.raises(ValueError):
            inner_product(Ray([1, 0]), Ray([1, 0, 0])) == (0, 0)

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
        # (Z x X)(Y x Z) = ZY x XZ = (-iX) x (-iY) = -(X x Y), composed and as matrices
        assert word("ZX*YZ") == linear_combination((-1,), (word("XY"),))
        assert dense_rows(word("ZX*YZ")) == naive_matmul(dense_rows(word("ZX")),
                                                          dense_rows(word("YZ")))

    def test_associativity_up_to_reshape(self):
        # (X x Z) x Y and X x (Z x Y) are the same three-site word
        left = word("XZI*IIY")
        right = word("XII*IZY")
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

    def test_non_pauli_rows_are_compared_whole(self):
        # A's first row has two entries, so no one-entry path applies: (AB)_0 =
        # (1, 0) differs from (BA)_0 = (1, 1), while A and A^2 commute
        a = ExactMatrix.from_rows([[1, 1], [1, 0]])
        assert not commutator_is_zero(a, ExactMatrix.from_rows([[1, 0], [0, 0]]))
        assert commutator_is_zero(a, ExactMatrix.from_rows([[2, 1], [1, 1]]))

    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_products(self, data, n):
        # row by row must decide as AB == BA does, on sparse draws (one-entry and
        # denser rows) and on monomial ones (every row one entry, as for Pauli words)
        a, b = (data.draw(_sparse_matrix(n, n)) for _ in range(2))
        p, q = (data.draw(_monomial_matrix(n)) for _ in range(2))
        a_plus_b = linear_combination((1, 1), (a, b))
        cases = ((a, b), (a, a_plus_b), (a, product(a, a)), (p, q), (p, product(p, p)),
                 (p, product(q, p, q)), (p, a))
        for x, y in cases:
            xs, ys = dense_rows(x), dense_rows(y)
            assert commutator_is_zero(x, y) == (naive_matmul(xs, ys) == naive_matmul(ys, xs))


class TestMatrixBasics:
    def test_hermitian_flag(self):
        assert SIGMA_Y.is_hermitian()
        assert not ExactMatrix.from_rows([[0, 1], [0, 0]]).is_hermitian()

    def test_hermitian_flag_on_edge_cases(self):
        cases = {
            "Gaussian": ([[1, (0, 1)], [(0, -1), 3]], True),
            "non-real diagonal": ([[(1, 1), 0], [0, 1]], False),
            "one-sided off-diagonal": ([[0, 0, 0], [0, 0, 0], [(1, 2), 0, 0]], False),
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
            h = linear_combination((1, 1), (a, conjugate_transpose(a)))
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            imaginary = ExactMatrix.from_rows(
                [[(0, 1) if r == c == i else 0 for c in range(n)] for r in range(n)]
            )
            cases += [h, product(h, _scalar_matrix(n, (0, 1))),
                      linear_combination((1, 1), (h, imaginary))]
            if i != j:  # entry (i, j) set, its mirror (j, i) cleared
                one_sided = dense_rows(h)
                one_sided[i][j] = data.draw(_SPARSE_ENTRY.filter(lambda v: v not in (0, (0, 0))))
                one_sided[j][i] = 0
                cases.append(ExactMatrix.from_rows(one_sided))
            assert h.is_hermitian() and not cases[3].is_hermitian()
            assert len(cases) == 4 or not cases[4].is_hermitian()
        for x in cases:
            assert x.is_hermitian() == (x == conjugate_transpose(x))

    def test_row_count_must_fit(self):
        with pytest.raises(ValueError, match="need one sparse row per row"):
            ExactMatrix(2, 1, ((),))

    def test_a_denominator_argument_is_rejected(self):
        # a matrix holds Gaussian integers, so it takes no common denominator
        with pytest.raises(TypeError):
            ExactMatrix(1, 1, ((),), 1)
        with pytest.raises(TypeError):
            ExactMatrix(1, 1, (((0, 1, 0),),), den=2)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged rows"):
            ExactMatrix.from_rows([[1, 0], [1]])

    def test_equal_matrices_built_by_different_routes(self):
        m = word("YZ")
        b = ExactMatrix.from_rows(
            [
                [1, 0, 0, 0],
                [0, (0, -5), 0, 0],
                [0, 0, 1, 0],
                [3, 0, 0, (2, 6)],
            ]
        )
        pairs = [
            (product(m, _scalar_matrix(4, (0, 1)), _scalar_matrix(4, (0, -1))), m),
            (linear_combination((1, -1), (linear_combination((1, 1), (m, b)), b)), m),
            (ExactMatrix.from_rows([[[2, 0]]]), ExactMatrix.from_rows([[2]])),
            (linear_combination((0,), (b,)), ExactMatrix.from_rows([[0] * 4] * 4)),
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
        with pytest.raises(ValueError):
            linear_combination((), ())
        with pytest.raises(ValueError):
            linear_combination((1,), ())

    def test_rank_and_nullspace(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert rank(m) == 2
        ns = nullspace(m)
        assert ns == [Ray([2, -1, 0])]
        image = apply_dense(m, ns[0].parts)
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

    def test_a_float_column_index_is_rejected(self):
        # once accepted, and then ranked 1 with no error
        with pytest.raises(TypeError, match="not three ints"):
            ExactMatrix(2, 2, (((0.5, 1, 0),), ((1, 1, 0),)))

    @pytest.mark.parametrize(
        "entry",
        [(0, 0.5, 0), (0, 1, 0.0), (0, Fraction(1, 2), 0), (0, True, 0), (0, 1, np.int32(1))],
    )
    def test_a_non_int_numerator_is_rejected(self, entry):
        # once accepted: a float or Fraction then failed rank with a misleading
        # ArithmeticError, and a bool or numpy integer passed for an int
        with pytest.raises(TypeError, match="not three ints"):
            ExactMatrix(2, 2, ((entry,), ((1, 1, 0),)))

    def test_a_numpy_integer_entry_is_rejected(self):
        # once accepted: rank's products of 2**62 wrapped at 2**63 in int64
        big = np.int64(2**62)
        with pytest.raises(TypeError, match="not three ints"):
            ExactMatrix(2, 2, (((0, big, 0), (1, 1, 0)), ((0, 1, 0), (1, big, 0))))

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

    @pytest.mark.parametrize("site_dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2), (4, 2)])
    def test_rank_one_rule_matches_elimination(self, site_dims):
        # half the rays are products of random sparse site vectors, half are
        # random sparse vectors over the whole space
        rng = random.Random(sum(site_dims) * len(site_dims))
        entries = [(0, 0), (0, 0), (1, 0), (-1, 0), (0, 1), (1, 1), (2, -1)]

        def vector(n):
            v = [rng.choice(entries) for _ in range(n)]
            return v if any(c != (0, 0) for c in v) else vector(n)

        outcomes = {True: 0, False: 0}
        for k in range(200):
            if k % 2:
                v = [(1, 0)]
                for w in map(vector, site_dims):
                    v = [pmul(a, b) for a in v for b in w]
            else:
                v = vector(math.prod(site_dims))
            expected = is_product_state_by_elimination(Ray(v), site_dims)
            assert is_product_state(Ray(v), site_dims) == expected, v
            assert expected or not k % 2
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 20, outcomes


# ---------------------------------------------------------------------------
# The kernel skips zero entries; the oracles' references (naive_matmul,
# naive_rank, reference_kernel) do not, and work on plain (re, im) pairs with
# the oracles' own arithmetic.


def _scalar_matrix(n, c):
    """c times the n x n identity, for a Gaussian integer c."""
    return ExactMatrix(n, n, tuple(((i, *c),) for i in range(n)))


def _reference_rays(rows):
    return [ray_of(v) for v in reference_kernel(rows)]


# about three zeros in four entries, like the monomial Pauli realizations
_SPARSE_ENTRY = st.tuples(
    st.integers(0, 3), st.integers(-3, 3), st.integers(-3, 3)
).map(lambda t: (t[1], t[2]) if t[0] == 0 else 0)


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
    @given(st.data(), st.integers(1, 8), st.integers(1, 4), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_rank(self, data, n, k, m):
        # a product through an inner dimension k has rank <= k, so deficient
        # ranks come up often; entries are Gaussian integers
        a = product(data.draw(_sparse_matrix(n, k)), data.draw(_sparse_matrix(k, m)))
        b = data.draw(_sparse_matrix(n, m))
        for x in (a, b, linear_combination((1, 1), (a, b))):
            assert rank(x) == naive_rank(pair_rows(x))
            assert nullspace(x) == _reference_rays(pair_rows(x))

    @given(st.data(), st.integers(3, 6), st.integers(2, 6), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_rank_with_non_unit_pivots(self, data, n, m, k):
        # nonzero Gaussian-integer entries, with k*(1 + i) at (0, 0) and 1 at (0, 1):
        # the first pivot is k*(1 + i), a non-unit, and every row below a second
        # pivot is divided by it exactly
        entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda z: z != (0, 0))
        rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                  min_size=n, max_size=n))
        rows[0][:2] = [(k, k), 1]
        x = ExactMatrix.from_rows(rows)
        assert x.nonzeros[0][0] == (0, k, k)
        assert rank(x) == naive_rank(pair_rows(x))
        assert nullspace(x) == _reference_rays(pair_rows(x))

    @given(st.data(), st.integers(1, 5), st.integers(1, 3), st.integers(1, 5),
           st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_shifted_rank(self, data, n, k, m, shift):
        # M = T + shift*I, I's ones on the main diagonal, where T is a product
        # through inner dimension k of Gaussian-integer matrices, so often
        # rank-deficient; some rows of T are then redrawn so that M's diagonal
        # entry cancels (T_ii = 0, or the whole row 0) or is missing (T_ii = -shift,
        # or the row -shift*e_i, which leaves M's row empty)
        entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        factors = [data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                      min_size=r, max_size=r).map(ExactMatrix.from_rows))
                   for r, c in ((n, k), (k, m))]
        target = dense_rows(product(*factors))
        for i in range(min(n, m)):
            kind = data.draw(st.sampled_from(["kept", "cancel", "zero", "missing", "empty"]))
            if kind in ("zero", "empty"):
                target[i] = [0] * m
            if kind != "kept":
                target[i][i] = -shift if kind in ("missing", "empty") else 0
        eye = ExactMatrix.from_rows([[int(i == j) for j in range(m)] for i in range(n)])
        t = ExactMatrix.from_rows(target)
        x = linear_combination((1, shift), (t, eye))
        assert linear_combination((1, -shift), (x, eye)) == t
        assert rank(x, shift) == rank(t) == naive_rank(pair_rows(t))

    @given(st.data(), st.integers(1, 5), st.integers(1, 3), st.integers(1, 5),
           st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_shifted_nullspace(self, data, n, k, m, shift):
        # M = T + shift*I for T a product through inner dimension k of Gaussian-
        # integer matrices, so M - shift*I is often rank-deficient; some of M's
        # diagonal entries are then set to shift, zeroing that entry of M - shift*I
        entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        factors = [data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                      min_size=r, max_size=r).map(ExactMatrix.from_rows))
                   for r, c in ((n, k), (k, m))]
        target = dense_rows(product(*factors))
        for i in range(min(n, m)):
            re, im = target[i][i]
            target[i][i] = (shift, 0) if data.draw(st.booleans()) else (re + shift, im)
        x = ExactMatrix.from_rows(target)
        rays = nullspace(x, shift)
        for ray in rays:  # (M - shift*I) v = 0, summed over every entry
            assert apply_dense(x, ray.parts, shift) == ((0, 0),) * n
        assert len(rays) == m - rank(x, shift)
        # the same space as the reference kernel: together they add no rank
        reference = _reference_rays(shifted_rows(x, shift))
        assert len(reference) == len(rays)
        stacked = [[pair(z) for z in r.parts] for r in rays + reference]
        assert not rays or naive_rank(stacked) == len(rays)

    def test_an_inexact_back_substitution_raises(self, monkeypatch):
        # from x_2 = D = 3 the rows give x_1 = -3/3 = -1, then x_0 = -(-1)/2, not in
        # Z[i]; on a true Bareiss echelon Cramer's rule makes every entry a minor
        tampered = [{0: (2, 0), 1: (1, 0)}, {1: (3, 0), 2: (1, 0)}], [0, 1]
        monkeypatch.setattr(exact, "_echelon", lambda m, shift: tampered)
        with pytest.raises(ArithmeticError, match="not divisible"):
            nullspace(ExactMatrix(2, 3, ((), ())))

    def test_a_cancelled_diagonal_entry_is_dropped(self):
        # diag(2, 1) - 1*I is diag(1, 0): the cancelled entry (1, 1) is no pivot
        m = ExactMatrix.from_rows([[2, 0], [0, 1]])
        assert rank(m, 1) == 1
        assert nullspace(m, 1) == [Ray([0, 1])]

    def test_shift_must_be_an_integer(self):
        m = ExactMatrix.from_rows([[2, 0], [0, 1]])
        for f in (rank, nullspace):
            with pytest.raises(TypeError):
                f(m, Fraction(1, 2))
            with pytest.raises(TypeError):
                f(m, 0.5)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_inner_product(self, n, data):
        vec = st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n
        ).filter(lambda v: any(c != (0, 0) for c in v))
        u, v = (Ray(data.draw(vec)) for _ in range(2))
        assert inner_product(u, v) == raw_inner(u.parts, v.parts)
        assert (inner_product(u, v) == (0, 0)) == (raw_inner(u.parts, v.parts) == (0, 0))

    @given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_linear_combination(self, data, n, m, terms):
        matrices = [data.draw(_sparse_matrix(n, m)) for _ in range(terms)]
        coefficients = data.draw(st.lists(st.integers(-4, 4), min_size=terms, max_size=terms))
        expected = [[(0, 0)] * m for _ in range(n)]
        for c, mat in zip(coefficients, matrices):
            for i, row in enumerate(dense_rows(mat)):
                for j, x in enumerate(row):
                    expected[i][j] = padd(expected[i][j], (c * x[0], c * x[1]))
        combined = linear_combination(coefficients, matrices)
        assert pair_rows(combined) == expected
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
    dense = dense_rows(m)
    return [_principal(dense, idx) for idx in components(m)]


def _reassembled(m: ExactMatrix) -> ExactMatrix:
    """The matrix with m's entries inside its components and zeros elsewhere."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for idx, block in zip(components(m), _principal_blocks(m)):
        for k, i in enumerate(idx):
            for l, j in enumerate(idx):
                out[i][j] = dense_rows(block)[k][l]
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
        pattern = [[x != (0, 0) for x in row] for row in pair_rows(m)]
        assert components(m) == _components_reference(pattern)
        assert _reassembled(m) == m
        assert sum(rank(b) for b in _principal_blocks(m)) == rank(m)
