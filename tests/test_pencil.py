import ast
import hashlib
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from qpencil import cli, exact, pencil
from qpencil.exact import (ExactMatrix, Ray, commutator_is_zero, components, linear_combination,
                           rank)
from qpencil.parity import ParityScenario
from qpencil.pauli import PauliString, commutes, multiply, parse_pauli, realization
from qpencil.pencil import (
    DEFAULT_MAX_SNAP_NORM,
    DegeneratePencilError,
    Pencil,
    PencilError,
    SnapError,
    UnresolvedSpectrumError,
    VerificationError,
    build,
    default_coefficients,
    eigen_sign,
    evaluate,
    hermitian_eigensystem,
    joint_context,
    snap_rays,
    snap_to_ray,
)

from _fixtures import (
    EXPECTED_BASES,
    HEADERS_ENTANGLED,
    HEADERS_PLAIN,
    SQUARE_TRIPLES,
)
from _oracles import (apply_word, check_sign_table, joint_eigenrays_by_intersection,
                      signed_components)


def mats(*words):
    return [realization(parse_pauli(word)) for word in words]


def dense(m: ExactMatrix) -> np.ndarray:
    """The exact matrix as a complex float array, for the float eigensolver."""
    out = np.zeros((m.rows, m.cols), dtype=complex)
    for i, row in enumerate(m.nonzeros):
        for j, re, im in row:
            out[i, j] = complex(re / m.den, im / m.den)
    return out


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
        # build() leaves commutation to joint_context, which certifies it
        assert build(mats("ZI", "XI")).coefficients == (1, 2)
        with pytest.raises(PencilError, match="^terms 0 and 1 do not commute$"):
            joint_context(mats("ZI", "XI"))

    def test_non_hermitian_term_rejected(self):
        m = realization(parse_pauli("+i ZX"))
        with pytest.raises(PencilError, match="Hermitian"):
            build([m])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(PencilError, match="dimension"):
            build(mats("Z") + mats("ZZ"))
        with pytest.raises(PencilError, match="^term 1 is not square$"):
            build(mats("Z") + [ExactMatrix.from_rows([[1, 0]])])

    def test_no_terms_rejected(self):
        with pytest.raises(PencilError, match="^a pencil needs at least one term$"):
            build([])

    def test_coefficient_count_mismatch(self):
        with pytest.raises(PencilError):
            build(mats("ZI", "IZ"), (1,))

    @pytest.mark.parametrize(
        "coefficients", [(0.4, 1), (1.9, 2.5), (Fraction(1, 2), 1), ("1", 2)], ids=repr
    )
    def test_non_integer_coefficient_rejected(self, coefficients):
        # truncating 0.4 to 0 or 1.9 to 1 would solve a different pencil
        bad = re.escape(repr(coefficients[0]))
        with pytest.raises(PencilError, match=f"coefficient {bad} is not an integer"):
            joint_context(mats("ZX", "YY"), coefficients)

    def test_numpy_integer_coefficient_accepted(self):
        p = build(mats("ZX", "YY"), (np.int64(1), np.int32(2)))
        assert p.coefficients == (1, 2)
        assert all(type(c) is int for c in p.coefficients)

    def test_direct_construction_is_validated(self):
        # evaluate() and eigen_sign trust every Pencil to have Hermitian terms;
        # that they commute is joint_context's to certify
        with pytest.raises(PencilError, match="Hermitian"):
            Pencil((realization(parse_pauli("+i ZX")),), (1,))
        p = Pencil(tuple(mats("ZI", "XI")), (1, 2))
        with pytest.raises(PencilError, match="^terms 0 and 1 do not commute$"):
            joint_context(p.terms, p.coefficients)


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
        w, _ = hermitian_eigensystem(dense(p))
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

    def test_stack_of_equal_size_matrices(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        h = (h + h.conj().swapaxes(-1, -2)) / 2
        w, v = hermitian_eigensystem(h)
        assert (w.shape, v.shape) == ((3, 4), (3, 4, 4))
        for k in range(3):
            assert np.allclose(w[k], np.linalg.eigvalsh(h[k]))
            assert np.max(np.abs(h[k] @ v[k] - v[k] @ np.diag(w[k]))) < 1e-9

    def test_non_hermitian_matrix_in_a_stack_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensystem(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
        with pytest.raises(ValueError, match="square"):
            hermitian_eigensystem(np.zeros((2, 2, 3)))


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
        assert snap_to_ray(v) == Ray([1, (0, 1)])

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
                    assert inner_product(rays[i], rays[j]) == (0, 0)
            for ray, signs in zip(rays, ctx.eigentable):
                for term, s in zip(terms, signs):
                    assert term.apply(ray.parts) == signed_components(ray, s)

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
        # wrong eigenvalue order; row3's rays are not standard basis vectors.
        # The float stage solves a stack of diagonal blocks: pair the k-th index's
        # unit vector with the k-th smallest eigenvalue, as the identity columns
        # of one dense eigensystem would be
        solve = pencil.hermitian_eigensystem

        def identity_vectors(m):
            w, v = solve(m)
            return np.sort(w, axis=None).reshape(w.shape), np.broadcast_to(
                np.eye(v.shape[-1], dtype=complex), v.shape
            )

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

    def test_shifted_degenerate_eigenvalues_are_rejected(self, monkeypatch):
        # the degenerate branch trusts no rounded eigenvalue: shifted by +2, the
        # candidates -1, 1, 3, 5 get rank-certified multiplicities 2, 2, 2, 0
        solve = pencil.hermitian_eigensystem

        def shifted(m):
            w, v = solve(m)
            return w + 2, v

        monkeypatch.setattr(pencil, "hermitian_eigensystem", shifted)
        with pytest.raises(VerificationError, match="certified multiplicities") as err:
            joint_context(mats("ZII", "IZI"))
        found = re.search(r"multiplicities (\{.*?\})", str(err.value)).group(1)
        assert ast.literal_eval(found) == {-1: 2, 1: 2, 3: 2, 5: 0}

    def test_context_json_schema(self):
        ctx = joint_context(mats("ZX", "YY"), (1, 2))
        data = ctx.to_json()
        assert set(data) == {"rays", "eigentable", "pencil_eigenvalues"}
        assert all(all(isinstance(x, int) for x in row) for row in data["rays"])


# non-commuting terms whose certificate fails at a different stage each: the error
# the float stage and certificate raise when the commutators are not run
_NONCOMMUTING = [
    pytest.param(("ZI", "XI"), None, UnresolvedSpectrumError, "-2.236", id="unresolved-sqrt5"),
    pytest.param(("X", "Z"), (3, 4), VerificationError, r"not a \+/-1 eigenvector of term 0",
                 id="snapped-then-sign"),
    pytest.param(("XI", "ZI"), (3, 4), DegeneratePencilError, r"^degenerate pencil spectrum: "
                 r"-5 \(x2\), 5 \(x2\)$", id="degenerate-5x2"),
    pytest.param(("XI", "ZI"), (10**400, 1), OverflowError, "too large", id="overflow"),
]


class TestCommutationCertificate:
    """A passing certificate implies that the terms commute; every failure runs
    the pairwise commutators first, so terms that do not commute are named."""

    @pytest.mark.parametrize("words,coefficients,stage,message", _NONCOMMUTING)
    def test_noncommuting_terms_are_named_on_every_failure_path(
        self, words, coefficients, stage, message
    ):
        with pytest.raises(stage, match=message) as err:
            pencil._certified_context(build(mats(*words), coefficients), DEFAULT_MAX_SNAP_NORM)
        assert type(err.value) is stage
        with pytest.raises(PencilError, match="^terms 0 and 1 do not commute$"):
            joint_context(mats(*words), coefficients)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_success_runs_no_commutator(self, monkeypatch, n):
        def no_commutator(a, b):
            raise AssertionError("commutator on the success path")

        expected = joint_context(mats(*ghz_words(n)))
        monkeypatch.setattr(pencil, "commutator_is_zero", no_commutator)
        assert joint_context(mats(*ghz_words(n))) == expected

    def test_degenerate_pencil_runs_every_commutator_before_reporting(self, monkeypatch):
        calls = []
        commutator = pencil.commutator_is_zero

        def counted(a, b):
            calls.append((a, b))
            return commutator(a, b)

        monkeypatch.setattr(pencil, "commutator_is_zero", counted)
        terms = mats("ZIII", "IZII", "IIZI")
        with pytest.raises(DegeneratePencilError, match=r"\(x2\)"):
            joint_context(terms)
        assert calls == [(terms[i], terms[j]) for i, j in ((0, 1), (0, 2), (1, 2))]


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


def _snap_column_reference(v, max_snap_norm):
    """Per-column snap, written independently of ``snap_rays``: None if no k fits."""
    v = np.asarray(v, dtype=complex)
    lead = v[int(np.argmax(np.abs(v)))]
    if lead == 0:
        return None
    for k in range(1, max_snap_norm + 1):
        scaled = v / lead * k
        near = np.round(scaled.real) + 1j * np.round(scaled.imag)
        if np.max(np.abs(scaled - near)) <= pencil.SNAP_TOLERANCE:
            re, im = near.real.astype(int).tolist(), near.imag.astype(int).tolist()
            return Ray(zip(re, im))
    return None


def _builtin_and_ghz_term_lists():
    """Term matrices of every built-in scenario group and of GHZ n = 2..5."""
    cases = []
    for name in sorted(cli.BUILTINS):
        s = cli.load_builtin(name)
        for gi, group in enumerate(s.groups):
            words = ParityScenario(group, s.site_count).composed()
            cases.append(pytest.param([realization(w) for w in words], id=f"{name}-{gi + 1}"))
    for n in (2, 3, 4, 5):
        cases.append(pytest.param(mats(*ghz_words(n)), id=f"ghz{n}"))
    return cases


class TestSnapRays:
    def test_each_column_takes_its_own_smallest_multiplier(self):
        # columns need k = 1, 2 and 3; no single k <= 3 fits all three
        cols = [np.array(c, dtype=complex) for c in ([1, 1, 0], [2, 1, 0], [3, 0, 1])]
        phases = np.exp(1j * np.array([0.3, -1.1, 2.0]))
        v = np.column_stack([p * c / np.linalg.norm(c) for p, c in zip(phases, cols)])
        assert snap_rays(v, max_snap_norm=3) == [Ray([1, 1, 0]), Ray([2, 1, 0]), Ray([3, 0, 1])]
        assert snap_rays(v[:, :2], max_snap_norm=2) == [Ray([1, 1, 0]), Ray([2, 1, 0])]
        with pytest.raises(SnapError) as err:
            snap_rays(v, max_snap_norm=2)
        assert np.array_equal(err.value.vector, v[:, 2])

    def test_block_columns_land_on_their_rows(self):
        # the columns of one 2 x 2 block on indices 1 and 3 of a 4-vector
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        rows = np.array([[1, 1], [3, 3]])
        assert snap_rays(v, rows=rows, dim=4) == [Ray([0, 1, 0, 1]), Ray([0, 1, 0, -1])]
        with pytest.raises(SnapError) as err:
            snap_rays(np.column_stack([v[:, 0], [0.3, 0.7]]), rows=rows, dim=4)
        assert np.array_equal(err.value.vector, [0, 0.3, 0, 0.7])

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [0.3, 0.7, 0.0]])
    def test_error_carries_the_failing_column(self, bad):
        v = np.column_stack([[1.0, 0.0, 0.0], bad, [0.0, 1.0, 1.0]])
        with pytest.raises(SnapError) as err:
            snap_rays(v)
        assert np.array_equal(err.value.vector, np.asarray(bad, dtype=complex))

    @pytest.mark.parametrize("terms", _builtin_and_ghz_term_lists())
    def test_batch_matches_per_column_snap(self, terms):
        _, v = hermitian_eigensystem(dense(evaluate(build(terms))))
        reference = [_snap_column_reference(v[:, k], DEFAULT_MAX_SNAP_NORM) for k in range(len(v))]
        if None in reference:  # a degenerate pencil: eigh may mix an eigenspace
            first_bad = reference.index(None)
            with pytest.raises(SnapError) as err:
                snap_rays(v)
            assert np.array_equal(err.value.vector, v[:, first_bad])
            with pytest.raises(SnapError):
                snap_to_ray(v[:, first_bad])
        else:
            assert snap_rays(v) == [snap_to_ray(v[:, k]) for k in range(len(v))] == reference


class TestRayCertificate:
    """Nondegenerate spectra are certified by the rays, not by exact rank."""

    @pytest.mark.parametrize("words", _NONDEGENERATE, ids="-".join)
    def test_nondegenerate_pencils_need_no_rank(self, monkeypatch, words):
        terms = mats(*words)
        expected = joint_context(terms)
        oracle_rays = joint_eigenrays_by_intersection(terms)

        def no_rank(m, shift=0):
            raise AssertionError("rank called on a nondegenerate pencil")

        monkeypatch.setattr(pencil, "rank", no_rank)
        ctx = joint_context(terms)
        assert ctx == expected
        assert set(ctx.rays) == oracle_rays

    def test_degenerate_pencil_reports_rank_certified_multiplicities(self, monkeypatch):
        calls = _counted_rank(monkeypatch)
        with pytest.raises(DegeneratePencilError) as err:
            joint_context(mats("ZII", "IZI"))
        assert err.value.multiplicities == {-3: 2, -1: 2, 1: 2, 3: 2}
        # P = diag(3, 3, -1, -1, 1, 1, -3, -3) has eight 1 x 1 blocks, four distinct:
        # each distinct block's own candidate is its one entry, so its trace and
        # square sum settle it without a rank, and that fills the block, so the
        # other three candidates are certified absent without one either
        assert calls == []

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

    def test_image_leaking_off_the_support_is_rejected(self):
        # M (1, 0) = (1, 1): equal to v on v's support, nonzero off it
        m = ExactMatrix.from_rows([[1, 1], [1, 0]])
        with pytest.raises(VerificationError, match="not a \\+/-1 eigenvector"):
            eigen_sign(m, Ray([1, 0]), "M")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            eigen_sign(mats("ZZ")[0], Ray([1, 0]), "ZZ")

    def test_cancelled_image_entry_is_zero(self):
        # entry 2 of M (1, 1, 0) is 1 - 1: a cancelled sum must count as zero
        m = ExactMatrix.from_rows([[1, 0, 1], [0, 1, -1], [1, -1, 0]])
        assert eigen_sign(m, Ray([1, 1, 0]), "M") == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_image(self, seed):
        # the support-only image must decide exactly as the dense M v = s v does
        rng = random.Random(seed)
        cases = []
        for n in (1, 2, 3, 4):
            family = _random_commuting_family(rng, n, n)
            probes = family + [
                PauliString(tuple(rng.choice("IXYZ") for _ in range(n)), rng.choice((0, 2)))
                for _ in range(4)
            ]
            probes.append(PauliString(("Y",) * n, 2))
            rays = list(joint_context([realization(w) for w in family]).rays)
            for _ in range(6):
                parts = [
                    (rng.randint(-2, 2), rng.randint(-2, 2)) if rng.random() < 0.5 else (0, 0)
                    for _ in range(2**n)
                ]
                if parts.count((0, 0)) < len(parts):
                    rays.append(Ray(parts))
            cases += [(realization(w), str(w), r) for w in probes for r in rays]
        reflection = ExactMatrix.from_rows(
            [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
        )
        for parts in [(2, 1), (1, -2), (1, 0), (0, 1), (1, 1), (2, -1)]:
            cases.append((reflection, "R", Ray(parts)))
        outcomes = set()
        for m, name, ray in cases:
            image = m.apply(ray.parts)
            expected = next((s for s in (1, -1) if image == signed_components(ray, s)), None)
            outcomes.add(expected)
            if expected is None:
                with pytest.raises(VerificationError):
                    eigen_sign(m, ray, name)
            else:
                assert eigen_sign(m, ray, name) == expected
        assert outcomes == {1, -1, None}


def _full_rank_spectrum(p_exact: ExactMatrix, spectrum: set[int]) -> dict[int, int]:
    """The multiplicity certificate on the whole d x d matrix: one exact rank of
    P - lambda*I per candidate, with the same check and message."""
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


def _certificate_outcome(certify, p_exact, spectrum):
    try:
        return certify(p_exact, spectrum)
    except VerificationError as e:
        return str(e)


def _blockwise(proposed=None):
    """``_exact_integer_spectrum`` on P's components, with the candidate lists
    ``proposed`` (none by default) as their own."""
    def certify(p_exact, spectrum):
        blocks = components(p_exact)
        own = proposed if proposed is not None else [()] * len(blocks)
        return pencil._exact_integer_spectrum(p_exact, spectrum, list(zip(blocks, own)))
    return certify


def _candidate_sets(p_exact: ExactMatrix) -> list[set[int]]:
    """The rounded spectrum, and wrong candidate sets that fail the check."""
    w, _ = hermitian_eigensystem(dense(p_exact))
    exact = {int(x) for x in np.round(w)}
    return [exact, {x + 2 for x in exact}, exact | {max(exact) + 1}, set(list(exact)[1:])]


def _differential_cases():
    rng = random.Random(13)
    cases = []
    for n in range(2, 5):
        for k in range(1, n):
            for _ in range(4):
                words = _random_commuting_family(rng, n, k)
                coeffs = [rng.choice((-1, 1)) * rng.randint(1, 7) for _ in words]
                p = evaluate(build([realization(w) for w in words], coeffs))
                cases.append(pytest.param(p, id=f"n{n}-k{k}-{len(cases)}"))
    cases.append(pytest.param(_hermitian_den2(), id="hermitian-den2"))
    return cases


def _hermitian_den2() -> ExactMatrix:
    """A non-Pauli Hermitian input over den 2: a Gaussian 2 x 2 block with eigenvalues
    0 and 3, a shared 1 x 1 value 3 on two indices, and a zero index."""
    half = Fraction(1, 2)
    rows = [[0] * 5 for _ in range(5)]
    rows[0][0], rows[0][3], rows[3][0], rows[3][3] = half, (1, half), (1, -half), 5 * half
    rows[1][1] = rows[4][4] = 3
    return ExactMatrix.from_rows(rows)


def _counted_rank(monkeypatch) -> list[tuple[ExactMatrix, int]]:
    """Every (matrix, shift) pair the certificate ranks, recorded through
    ``pencil.rank``: the certificate ranks B - lambda*I as ``rank(B, lambda)``."""
    calls, exact_rank = [], pencil.rank

    def counted(m, shift=0):
        calls.append((m, shift))
        return exact_rank(m, shift)

    monkeypatch.setattr(pencil, "rank", counted)
    return calls


class TestBlockwiseCertificate:
    """``_exact_integer_spectrum`` sums rank over distinct blocks; the outcome
    must equal one rank of the whole P - lambda*I per candidate."""

    @pytest.mark.parametrize("p_exact", _differential_cases())
    def test_matches_full_matrix_rank(self, p_exact):
        for spectrum in _candidate_sets(p_exact):
            expected = _certificate_outcome(_full_rank_spectrum, p_exact, spectrum)
            got = _certificate_outcome(_blockwise(), p_exact, spectrum)
            assert got == expected

    @pytest.mark.parametrize("p_exact", _differential_cases())
    def test_own_candidates_first_match_full_matrix_rank(self, p_exact):
        # ranking each block's own candidates first, and stopping once they fill
        # the block, must not change the outcome, whether the proposals are right,
        # shifted or missing one
        p = dense(p_exact)
        own = [
            sorted({int(x) for x in np.round(np.linalg.eigvalsh(p[np.ix_(idx, idx)]))})
            for idx in components(p_exact)
        ]
        variants = [own, [[x + 2 for x in o] for o in own], [o[1:] for o in own]]
        for spectrum in _candidate_sets(p_exact):
            expected = _certificate_outcome(_full_rank_spectrum, p_exact, spectrum)
            for variant in variants:
                proposed = [[x for x in o if x in spectrum] for o in variant]
                got = _certificate_outcome(_blockwise(proposed), p_exact, spectrum)
                assert got == expected

    def test_partial_families_repeat_blocks(self):
        # k < n leaves every joint eigenspace of dimension 2^(n-k) > 1, and P
        # repeats blocks, so the count of each distinct block matters
        p = evaluate(build(mats("XXI", "ZZI"), (3, -5)))
        assert _blockwise()(p, {-8, -2, 2, 8}) == {-8: 2, -2: 2, 2: 2, 8: 2}


class TestTraceCertificate:
    """Once a block's unassigned eigenvalues have the exact sum R*lambda and square
    sum R*lambda^2, all R of them are lambda, and no rank runs for it."""

    def test_connected_block_ranks_all_but_its_last_value(self, monkeypatch):
        # XI + IX is one connected 4 x 4 block with spectrum -2, 0 (x2), 2; ranking
        # -2 and 0 leaves one eigenvalue with sum 2 and square sum 4, so it is 2
        terms = mats("XI", "IX")
        p = evaluate(build(terms, (1, 1)))
        assert components(p) == [[0, 1, 2, 3]]
        expected = _full_rank_spectrum(p, {-2, 0, 2})
        calls = _counted_rank(monkeypatch)
        with pytest.raises(DegeneratePencilError) as err:
            joint_context(terms, (1, 1))
        assert err.value.multiplicities == expected == {-2: 1, 0: 2, 2: 1}
        assert [(m.rows, m.cols) for m, _ in calls] == [(4, 4), (4, 4)]
        # the block itself is ranked at each shift: no shifted matrix is built
        assert calls == [(p, -2), (p, 0)]

    def test_matching_trace_with_another_square_sum_is_ranked(self):
        # [[0, 1], [1, 0]] has trace 0 = 2 * 0 but square sum 2, not 0: candidate 0
        # is ranked, has multiplicity 0, and fails as the full-matrix rank does
        p = ExactMatrix.from_rows([[0, 1], [1, 0]])
        expected = _certificate_outcome(_full_rank_spectrum, p, {0})
        assert expected == ("certified multiplicities {0: 0} of the rounded eigenvalues "
                            "are not all positive with sum 2")
        assert _certificate_outcome(_blockwise([[0]]), p, {0}) == expected

    def test_blocks_compare_against_their_own_reduced_den(self, monkeypatch):
        # P is over den 2, but its 1 x 1 blocks (3) and (0) reduce to den 1, where
        # their traces settle them; the 2 x 2 block over den 2 (eigenvalues 0, 3)
        # ranks 0 and its trace settles 3
        p = _hermitian_den2()
        assert p.den == 2 and components(p) == [[0, 3], [1], [2], [4]]
        expected = _full_rank_spectrum(p, {0, 3})
        calls = _counted_rank(monkeypatch)
        assert _blockwise([[0, 3], [3], [0], [3]])(p, {0, 3}) == expected == {0: 2, 3: 3}
        assert [(m.rows, m.den, lam) for m, lam in calls] == [(2, 2, 0)]


# sha256 of json.dumps(joint_context(GHZ n).to_json(), sort_keys=True,
# separators=(",", ":")), recorded with the dense d x d float stage that the
# block-diagonal one replaced
GHZ_CONTEXT_SHA256 = {
    2: "15414855af172c7a8a745906be11ddb1c8172a6d68bc3413fb600cbed62e0f81",
    3: "c88a4d03cefbc062fb77b50e1046a93c597a8c5029adc7e09c41ed3e3fc87f91",
    4: "db0146d25dc412e433a8b73bb5e886800c5c8fa7b69f1a6b0948f5245059e287",
    5: "90ee3de417f3a48fcca878971d5a5fb81b8de325ef20db2cde2e2bd18692b4a9",
    6: "c67dbf97a8f347ea6ccddc191fc847c722702be2289ae57177c1b0b0e6b4b14d",
    7: "612e1cf067c795b4829a59cfdcb8a2ad478142f3c18fc952f759b17eff883dec",
    8: "6a7814a33b85c26ae18fc78cb3ee048200eba28fee726c418aa39619fc445114",
    9: "0b4d75a9e1b7c29298d746e0419871fdad387b9811504da91974f611185368a4",
    10: "d940da458c4c81a2272cf7ec07372a9fce692be1968cbb3d6134e1d6b788ac7a",
}


def _recorded_stacks(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of every array the float stage hands to ``hermitian_eigensystem``."""
    shapes, solve = [], pencil.hermitian_eigensystem

    def recorded(m):
        shapes.append(np.shape(m))
        return solve(m)

    monkeypatch.setattr(pencil, "hermitian_eigensystem", recorded)
    return shapes


class TestBlockFloatStage:
    """The float stage solves P's connected diagonal blocks, batched by size."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ghz_context_json_is_unchanged(self, monkeypatch, n):
        shapes = _recorded_stacks(monkeypatch)
        ctx = joint_context(mats(*ghz_words(n)))
        text = json.dumps(ctx.to_json(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == GHZ_CONTEXT_SHA256[n]
        assert shapes == [(2 ** (n - 1), 2, 2)]  # X...X pairs b with its complement

    def test_repeat_across_distinct_blocks_is_degenerate(self, monkeypatch):
        # bipartite's first group is YY and -YY: two different 2 x 2 blocks with
        # eigenvalues -1 and 1 each, so no block repeats a value but P does
        s = cli.load_builtin("bipartite")
        terms = [realization(w) for w in ParityScenario(s.groups[0], s.site_count).composed()]
        p_exact = evaluate(build(terms))
        p, (first, second) = dense(p_exact), components(p_exact)
        assert not np.array_equal(p[np.ix_(first, first)], p[np.ix_(second, second)])
        calls, splits, split = _counted_rank(monkeypatch), [], exact.components
        for module in (exact, pencil):  # calls through either binding
            monkeypatch.setattr(module, "components", lambda m: splits.append(m) or split(m))
        with pytest.raises(DegeneratePencilError, match=re.escape(": -1 (x2), 1 (x2)")):
            joint_context(terms)
        # two distinct blocks with own candidates -1 and 1: each ranks -1, and its
        # trace and square sum then settle 1
        assert len(calls) == 2
        assert [(m.rows, lam) for m, lam in calls] == [(2, -1), (2, -1)]
        assert len(splits) == 1  # the float stage's split serves the certificate

    def test_blocks_of_unequal_size_in_a_degenerate_pencil(self, monkeypatch):
        # XX + YY cancels on indices 0 and 3, leaving blocks {0}, {1, 2}, {3}
        shapes = _recorded_stacks(monkeypatch)
        with pytest.raises(DegeneratePencilError) as err:
            joint_context(mats("XX", "YY"), (1, 1))
        assert err.value.multiplicities == {-2: 1, 0: 2, 2: 1}
        assert shapes == [(2, 1, 1), (1, 2, 2)]

    def test_blocks_of_unequal_size_in_a_nondegenerate_pencil(self, monkeypatch):
        # T1 = (1) + sigma_x and T2 = (1) - I on blocks {0} and {1, 2}: P = T1 + 2 T2
        # has eigenvalue 3 on the first block and -1, -3 on the second
        t1 = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        t2 = ExactMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        shapes = _recorded_stacks(monkeypatch)
        ctx = joint_context([t1, t2])
        assert shapes == [(1, 1, 1), (1, 2, 2)]
        assert ctx.rays == (Ray([0, 1, -1]), Ray([0, 1, 1]), Ray([1, 0, 0]))
        assert ctx.eigentable == ((-1, -1), (1, -1), (1, 1))
        assert ctx.pencil_eigenvalues == (-3, -1, 3)


class TestSparseWordOracle:
    """Every ray's sign table, checked by applying each word letter by letter to
    the ray's nonzero components, without the words' matrices."""

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_agrees_with_the_realization(self, seed):
        rng = random.Random(seed)
        for n in (1, 2, 3):
            for _ in range(8):
                w = PauliString(tuple(rng.choice("IXYZ") for _ in range(n)), rng.randrange(4))
                vec = {b: (rng.randint(-2, 2), rng.randint(-2, 2)) for b in range(2**n)}
                dense = [vec[b] for b in range(2**n)]
                image = realization(w).apply(dense)
                expected = {b: z for b, z in enumerate(image) if z != (0, 0)}
                assert apply_word(w, vec) == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_ghz_sign_tables(self, n):
        words = [parse_pauli(w) for w in ghz_words(n)]
        ctx = joint_context([realization(w) for w in words])
        check_sign_table(words, ctx.rays, ctx.eigentable)

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in range(1, 7) for seed in (11, 12)])
    def test_random_full_families(self, n, seed):
        words = _random_commuting_family(random.Random(seed), n, n)
        ctx = joint_context([realization(w) for w in words])
        check_sign_table(words, ctx.rays, ctx.eigentable)

    def test_a_flipped_sign_is_caught(self):
        words = [parse_pauli(w) for w in ghz_words(3)]
        ctx = joint_context([realization(w) for w in words])
        table = [list(row) for row in ctx.eigentable]
        table[5][2] *= -1
        with pytest.raises(AssertionError):
            check_sign_table(words, ctx.rays, [tuple(row) for row in table])
