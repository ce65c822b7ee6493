import random
from fractions import Fraction

import numpy as np
import pytest

from qpencil import pencil
from qpencil.exact import ExactMatrix, GaussianRational, Ray, commutator_is_zero
from qpencil.pauli import PauliString, commutes, multiply, parse_pauli, realization
from qpencil.pencil import (
    DegeneratePencilError,
    Pencil,
    PencilError,
    SnapError,
    VerificationError,
    build,
    default_coefficients,
    eigen_sign,
    evaluate,
    hermitian_eigensystem,
    joint_context,
    snap_to_ray,
)

from _fixtures import (
    EXPECTED_BASES,
    HEADERS_ENTANGLED,
    HEADERS_PLAIN,
    SQUARE_TRIPLES,
)
from _oracles import joint_eigenrays_by_intersection


def mats(*words):
    return [realization(parse_pauli(word)) for word in words]


class TestDefaultCoefficients:
    def test_binary_weights(self):
        assert default_coefficients(3) == (1, 2, 4)
        assert default_coefficients(1) == (1,)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            default_coefficients(0)

    def test_row1_instantiation(self):
        ctx = joint_context(mats(*SQUARE_TRIPLES["row1"]), (1, 2, 4))
        assert ctx.pencil_eigenvalues == (-5, -3, 1, 7)
        lookup = dict(zip(ctx.rays, ctx.pencil_eigenvalues))
        assert lookup[Ray([1, 0, 0, 0])] == 7
        assert lookup[Ray([0, 1, 0, 0])] == -5

    def test_four_term_weights_separate_all_sign_patterns(self):
        ctx = joint_context(mats("XXX", "XYY", "YXY", "YYX"), (1, 2, 4, 8))
        assert len(set(ctx.pencil_eigenvalues)) == 8


class TestBuildAndEvaluate:
    def test_single_term_pencil_evaluates_to_term(self):
        zi = mats("ZI")[0]
        p = build([zi], (1,))
        assert evaluate(p) == zi

    def test_intro_pair_pencil_commutes_with_terms(self):
        zx, yy = mats("ZX", "YY")
        p = evaluate(build([zx, yy], (1, 2)))
        assert commutator_is_zero(p, zx)
        assert commutator_is_zero(p, yy)

    def test_ghzm_pencil_is_hermitian(self):
        p = evaluate(build(mats("XXX", "XYY", "YXY", "YYX"), (1, 2, 4, 8)))
        assert p.rows == 8 and p.is_hermitian()

    def test_noncommuting_terms_rejected(self):
        with pytest.raises(PencilError, match="commute"):
            build(mats("ZI", "XI"))

    def test_non_hermitian_term_rejected(self):
        m = realization(parse_pauli("+i ZX"))
        with pytest.raises(PencilError, match="Hermitian"):
            build([m])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(PencilError, match="dimension"):
            build(mats("Z") + mats("ZZ"))

    def test_coefficient_count_mismatch(self):
        with pytest.raises(PencilError):
            build(mats("ZI", "IZ"), (1,))

    def test_direct_construction_is_validated(self):
        # evaluate() trusts every Pencil to have commuting Hermitian terms
        with pytest.raises(PencilError, match="commute"):
            Pencil(tuple(mats("ZI", "XI")), (1, 2))
        with pytest.raises(PencilError, match="Hermitian"):
            Pencil((realization(parse_pauli("+i ZX")),), (1,))


class TestHermitianEigensystem:
    def test_diagonal(self):
        w, v = hermitian_eigensystem(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1, 2, 3])
        assert np.allclose(np.abs(v), np.eye(3))

    def test_sigma_x(self):
        w, v = hermitian_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1, 1])
        # eigenvectors proportional to (1, -1) and (1, 1)
        assert abs(v[0, 0] + v[1, 0]) < 1e-10
        assert abs(v[0, 1] - v[1, 1]) < 1e-10

    def test_row1_pencil_eigenvalues(self):
        p = evaluate(build(mats(*SQUARE_TRIPLES["row1"]), (1, 2, 4)))
        w, _ = hermitian_eigensystem(p.to_complex_array())
        assert np.allclose(w, [-5, -3, 1, 7])

    def test_postconditions_on_random_hermitian(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 8):
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (h + h.conj().T) / 2
            w, v = hermitian_eigensystem(h)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
            assert np.max(np.abs(h @ v - v @ np.diag(w))) < 1e-9
            assert np.allclose(w, np.linalg.eigvalsh(h))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSnapToRay:
    def test_scale_and_round(self):
        assert snap_to_ray([0.7071, -0.7071, 0.0, 0.0]) == Ray([1, -1, 0, 0])

    def test_canonicalization_of_negative_vector(self):
        assert snap_to_ray([-0.5, -0.5, -0.5, 0.5]) == Ray([1, 1, 1, -1])

    def test_non_lattice_direction_errors(self):
        with pytest.raises(SnapError):
            snap_to_ray([0.3, 0.7, 0.0, 0.0])

    def test_multiplier_search(self):
        # (2, 1)/sqrt(5): the leading-entry rescale leaves 0.5, fixed at k=2
        v = np.array([2.0, 1.0]) / np.sqrt(5.0)
        assert snap_to_ray(v) == Ray([2, 1])

    def test_global_phase_removed(self):
        phase = np.exp(1j * 0.7)
        v = phase * np.array([0.5, -0.5, 0.5, 0.5])
        assert snap_to_ray(v) == Ray([1, -1, 1, 1])

    def test_complex_ray(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert snap_to_ray(v) == Ray([GaussianRational(1), GaussianRational(0, 1)])

    def test_snap_error_reports_vector(self):
        try:
            snap_to_ray([0.3, 0.7])
        except SnapError as e:
            assert np.allclose(e.vector, [0.3, 0.7])


class TestJointContext:
    @pytest.mark.parametrize("name", sorted(SQUARE_TRIPLES))
    def test_square_triples_reproduce_expected_bases(self, name):
        ctx = joint_context(mats(*SQUARE_TRIPLES[name]), (1, 2, 4))
        assert {r for r in ctx.rays} == {Ray(v) for v in EXPECTED_BASES[name]}
        headers = HEADERS_ENTANGLED if name == "col3" else HEADERS_PLAIN
        assert list(ctx.eigentable) == headers

    def test_intro_pair_matches_row3_basis(self):
        ctx = joint_context(mats("ZX", "YY"), (1, 2))
        assert set(ctx.rays) == {Ray(v) for v in EXPECTED_BASES["row3"]}

    def test_intro_pair_matches_exact_intersection_oracle(self):
        zx, yy = mats("ZX", "YY")
        oracle_rays = joint_eigenrays_by_intersection([zx, yy])
        ctx = joint_context([zx, yy], (1, 2))
        assert set(ctx.rays) == oracle_rays

    def test_degenerate_two_term_pencil_reports_multiplicities(self):
        zx, xz, xx, zz = mats("ZX", "XZ", "XX", "ZZ")
        first = zx @ xz
        second = xx @ zz
        with pytest.raises(DegeneratePencilError) as err:
            joint_context([first, second], (1, 2))
        assert err.value.multiplicities == {-1: 2, 1: 2}

    def test_three_term_variant_gives_bell_basis(self):
        zx, xz, xx, zz = mats("ZX", "XZ", "XX", "ZZ")
        ctx = joint_context([zx @ xz, xx, zz], (1, 2, 4))
        bell = {Ray(v) for v in [(0, 1, 1, 0), (0, 1, -1, 0), (1, 0, 0, 1), (1, 0, 0, -1)]}
        assert set(ctx.rays) == bell

    def test_coefficient_independence(self):
        terms = mats(*SQUARE_TRIPLES["row3"])
        a = joint_context(terms, (1, 2, 4))
        b = joint_context(terms, (9, 3, 1))
        c = joint_context(terms, (-1, 5, 2))
        assert set(a.rays) == set(b.rays) == set(c.rays)

    def test_eigenvalue_bookkeeping(self):
        for name, triple in SQUARE_TRIPLES.items():
            ctx = joint_context(mats(*triple), (1, 2, 4))
            for lam, signs in zip(ctx.pencil_eigenvalues, ctx.eigentable):
                assert lam == signs[0] + 2 * signs[1] + 4 * signs[2]

    def test_rays_exactly_orthogonal_and_eigenvectors(self):
        from qpencil.exact import inner_product

        for name, triple in SQUARE_TRIPLES.items():
            terms = mats(*triple)
            ctx = joint_context(terms, (1, 2, 4))
            rays = ctx.rays
            for i in range(4):
                for j in range(i + 1, 4):
                    assert inner_product(rays[i], rays[j]).is_zero()
            for ray, signs in zip(rays, ctx.eigentable):
                comps = ray.components
                for term, s in zip(terms, signs):
                    image = term.apply(comps)
                    scaled = [GaussianRational(s) * c for c in comps]
                    assert all((a - b).is_zero() for a, b in zip(image, scaled))

    def test_ghzm_context_entangled_rays(self):
        from qpencil.exact import is_product_state

        ctx = joint_context(mats("XXX", "XYY", "YXY", "YYX"), (1, 2, 4, 8))
        assert len(ctx.rays) == 8
        assert all(not is_product_state(r, (2, 2, 2)) for r in ctx.rays)

    @pytest.mark.parametrize(
        "name,check", [("row1", "recombine"), ("row3", "eigenvector")]
    )
    def test_wrong_float_eigenvectors_are_rejected(self, monkeypatch, name, check):
        # row1 is diagonal, so identity columns are joint eigenvectors in the
        # wrong eigenvalue order; row3's rays are not standard basis vectors
        solve = pencil.hermitian_eigensystem

        def identity_vectors(m):
            w, _ = solve(m)
            return w, np.eye(len(w), dtype=complex)

        monkeypatch.setattr(pencil, "hermitian_eigensystem", identity_vectors)
        with pytest.raises(VerificationError, match=check):
            joint_context(mats(*SQUARE_TRIPLES[name]), (1, 2, 4))

    def test_shifted_float_eigenvalues_are_rejected(self, monkeypatch):
        # true eigenvectors, but every eigenvalue moved by +2: still d distinct
        # integers, so only the per-ray certificate can catch it
        solve = pencil.hermitian_eigensystem

        def shifted(m):
            w, v = solve(m)
            return w + 2, v

        monkeypatch.setattr(pencil, "hermitian_eigensystem", shifted)
        with pytest.raises(VerificationError, match="recombine"):
            joint_context(mats(*SQUARE_TRIPLES["row1"]), (1, 2, 4))

    def test_context_json_schema(self):
        ctx = joint_context(mats("ZX", "YY"), (1, 2))
        data = ctx.to_json()
        assert set(data) == {"rays", "eigentable", "pencil_eigenvalues"}
        assert all(all(isinstance(x, int) for x in row) for row in data["rays"])


def _random_commuting_family(rng: random.Random, n: int, k: int) -> list[PauliString]:
    """k pairwise-commuting, independent Hermitian Pauli words on n qubits."""
    words: list[PauliString] = []
    group = {("I",) * n}  # letters of every product of the chosen words
    while len(words) < k:
        w = PauliString(tuple(rng.choice("IXYZ") for _ in range(n)), rng.choice((0, 2)))
        if w.letters in group or not all(commutes(w, u) for u in words):
            continue
        words.append(w)
        group |= {multiply(PauliString(g), w).letters for g in group}
    return words


def ghz_words(n: int) -> list[str]:
    return ["X" * n] + ["I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1)]


_NONDEGENERATE = [
    *(SQUARE_TRIPLES[name] for name in sorted(SQUARE_TRIPLES)),
    ("XXX", "XYY", "YXY", "YYX"),
    *(ghz_words(n) for n in (2, 3, 4)),
]


class TestRayCertificate:
    """Nondegenerate spectra are certified by the rays, not by exact rank."""

    @pytest.mark.parametrize("words", _NONDEGENERATE, ids="-".join)
    def test_nondegenerate_pencils_need_no_rank(self, monkeypatch, words):
        terms = mats(*words)
        expected = joint_context(terms)
        oracle_rays = joint_eigenrays_by_intersection(terms)

        def no_rank(m):
            raise AssertionError("rank called on a nondegenerate pencil")

        monkeypatch.setattr(pencil, "rank", no_rank)
        ctx = joint_context(terms)
        assert ctx == expected
        assert set(ctx.rays) == oracle_rays

    def test_degenerate_pencil_reports_rank_certified_multiplicities(self, monkeypatch):
        calls = []
        exact_rank = pencil.rank

        def counted_rank(m):
            calls.append(m)
            return exact_rank(m)

        monkeypatch.setattr(pencil, "rank", counted_rank)
        with pytest.raises(DegeneratePencilError) as err:
            joint_context(mats("ZII", "IZI"))
        assert err.value.multiplicities == {-3: 2, -1: 2, 1: 2, 3: 2}
        assert len(calls) == 4  # one exact rank per distinct eigenvalue

    def test_ghz_six_qubits_closed_form(self):
        self._check_ghz_closed_form(6)

    def test_ghz_seven_qubits_closed_form(self):
        self._check_ghz_closed_form(7)

    @staticmethod
    def _check_ghz_closed_form(n):
        # the 2^n rays are |b> +/- |not b>, and each Z_i Z_(i+1) has sign
        # (-1)^(b_i xor b_(i+1)) on both; qubit 0 is the most significant bit
        words = ghz_words(n)
        ctx = joint_context(mats(*words))
        full = 2**n - 1
        expected = {}
        for b in range(2 ** (n - 1)):
            for s in (1, -1):
                vec = [0] * 2**n
                vec[b], vec[b ^ full] = 1, s
                bits = [(b >> (n - 1 - q)) & 1 for q in range(n)]
                zz = tuple((-1) ** (bits[q] ^ bits[q + 1]) for q in range(n - 1))
                expected[Ray(vec)] = (s, *zz)
        assert len(ctx.rays) == 2**n
        assert dict(zip(ctx.rays, ctx.eigentable)) == expected
        weights = default_coefficients(len(words))
        for lam, signs in zip(ctx.pencil_eigenvalues, ctx.eigentable):
            assert lam == sum(a * s for a, s in zip(weights, signs))
        assert list(ctx.pencil_eigenvalues) == sorted(set(ctx.pencil_eigenvalues))


class TestRandomCommutingFamilies:
    """Differential check of the pencil pipeline against exact intersection."""

    @pytest.mark.parametrize(
        "n,seed", [(n, seed) for n in (1, 2, 3, 4) for seed in (1, 2, 3)] + [(5, 1)]
    )
    def test_full_family_matches_intersection_oracle(self, n, seed):
        words = _random_commuting_family(random.Random(seed), n, n)
        terms = [realization(w) for w in words]
        # stabilizer states have entries in {0, +-1, +-i} once divided by
        # their largest entry, so every ray snaps at multiplier 1
        ctx = joint_context(terms, max_snap_norm=1)
        assert len(ctx.rays) == 2**n
        assert set(ctx.rays) == joint_eigenrays_by_intersection(terms)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]
    )
    def test_partial_family_is_degenerate(self, n, k, seed):
        words = _random_commuting_family(random.Random(seed), n, k)
        with pytest.raises(DegeneratePencilError) as err:
            joint_context([realization(w) for w in words])
        assert len(err.value.multiplicities) == 2**k
        assert set(err.value.multiplicities.values()) == {2 ** (n - k)}


class TestEigenSign:
    def test_reflection_with_a_common_denominator(self):
        # entries over 5: a kernel that ignored the denominator would see
        # [[3, 4], [4, -3]], which has no +/-1 eigenvector
        m = ExactMatrix.from_rows(
            [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
        )
        assert eigen_sign(m, Ray([2, 1]), "M") == 1
        assert eigen_sign(m, Ray([1, -2]), "M") == -1
        with pytest.raises(VerificationError, match="not a \\+/-1 eigenvector of M"):
            eigen_sign(m, Ray([1, 0]), "M")
