import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from qpencil.exact import ExactMatrix, commutator_is_zero
from qpencil.pauli import (
    PauliString,
    commutes,
    multiply,
    parse_pauli,
    realization,
    serial_product,
)


def w(text):
    return parse_pauli(text)


ALL_2SITE_WORDS = [
    PauliString((a, b)) for a in "IXYZ" for b in "IXYZ"
]
# the same words times i: their products and commutators pick up the odd
# phases that the Hermitian words alone never exercise
WITH_PHASE_I = ALL_2SITE_WORDS + [PauliString(p.letters, 1) for p in ALL_2SITE_WORDS]


class TestMultiply:
    def test_zx_times_xz_is_yy(self):
        p = multiply(w("ZX"), w("XZ"))
        assert p == PauliString(("Y", "Y"), 0)

    def test_xx_times_zz_is_minus_yy(self):
        p = multiply(w("XX"), w("ZZ"))
        assert p == PauliString(("Y", "Y"), 2)

    def test_identity(self):
        assert multiply(w("II"), w("II")) == PauliString(("I", "I"), 0)

    def test_site_count_mismatch(self):
        with pytest.raises(ValueError):
            multiply(w("ZX"), w("ZXX"))

    def test_structure_constants(self):
        assert multiply(w("X"), w("Y")) == PauliString(("Z",), 1)   # iZ
        assert multiply(w("Y"), w("Z")) == PauliString(("X",), 1)   # iX
        assert multiply(w("Z"), w("X")) == PauliString(("Y",), 1)   # iY
        assert multiply(w("Y"), w("X")) == PauliString(("Z",), 3)   # -iZ

    def test_involution_of_hermitian_words(self):
        for word in ALL_2SITE_WORDS:
            for phase in (0, 2):  # +1 and -1: the square of either is +1
                signed = PauliString(word.letters, phase)
                assert multiply(signed, signed) == PauliString(("I", "I"), 0)


class TestCommutes:
    def test_zx_vs_yy(self):
        assert commutes(w("ZX"), w("YY"))

    def test_ghz_words(self):
        assert commutes(w("XXX"), w("XYY"))

    def test_single_site_anticommutation(self):
        assert not commutes(w("ZI"), w("XI"))

    def test_site_count_mismatch(self):
        with pytest.raises(ValueError):
            commutes(w("Z"), w("ZZ"))

    def test_agrees_with_matrix_commutator_exhaustively(self):
        for a, b in itertools.product(WITH_PHASE_I, repeat=2):
            assert commutes(a, b) == commutator_is_zero(
                realization(a), realization(b)
            )


class TestRealization:
    def test_z_diagonal(self):
        assert realization(w("Z")) == ExactMatrix.from_rows([[1, 0], [0, -1]])

    def test_yy_antidiagonal(self):
        assert realization(w("YY")) == ExactMatrix.from_rows(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        )

    def test_negative_identity(self):
        m = realization(PauliString(("I", "I"), 2))
        assert m == ExactMatrix.identity(4).scale(-1)

    def test_hermitian_iff_real_phase(self):
        assert realization(PauliString(("X", "Y"), 0)).is_hermitian()
        assert realization(PauliString(("X", "Y"), 2)).is_hermitian()
        assert not realization(PauliString(("X", "Y"), 1)).is_hermitian()

    def test_squares_to_identity(self):
        for word in ("XX", "YZ", "ZI"):
            m = realization(w(word))
            assert m @ m == ExactMatrix.identity(4)

    def test_homomorphism_exhaustive_two_sites(self):
        for a, b in itertools.product(WITH_PHASE_I, repeat=2):
            assert realization(multiply(a, b)) == realization(a) @ realization(b)


class TestSerialProduct:
    def test_ghzm_product_is_minus_identity(self):
        words = [w("XXX"), w("XYY"), w("YXY"), w("YYX")]
        p = serial_product(words)
        assert p == PauliString(("I", "I", "I"), 2)

    def test_bipartite_product_is_minus_identity(self):
        p = serial_product([w("YY"), w("XX"), w("ZZ")])
        assert p == PauliString(("I", "I"), 2)

    def test_singleton(self):
        assert serial_product([w("ZX")]) == w("ZX")

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            serial_product([])

    def test_fold_direction_irrelevant(self):
        words = [w("XXX"), w("XYY"), w("YXY"), w("YYX")]
        acc = words[-1]
        for prev in reversed(words[:-1]):
            acc = multiply(prev, acc)
        assert serial_product(words) == acc

    def test_fold_direction_random_words(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            words = [
                PauliString(
                    tuple(rng.choice("IXYZ") for _ in range(3)), rng.randrange(4)
                )
                for _ in range(rng.randint(2, 6))
            ]
            left = serial_product(words)
            acc = words[-1]
            for prev in reversed(words[:-1]):
                acc = multiply(prev, acc)
            assert left == acc


class TestTextForm:
    def test_parse_bare(self):
        assert parse_pauli("ZX") == PauliString(("Z", "X"), 0)

    def test_parse_phase(self):
        assert parse_pauli("-1 XYY") == PauliString(("X", "Y", "Y"), 2)
        assert parse_pauli("+i Z") == PauliString(("Z",), 1)
        assert parse_pauli("-i Z") == PauliString(("Z",), 3)

    def test_roundtrip(self):
        for word in ALL_2SITE_WORDS:
            for k in range(4):
                p = PauliString(word.letters, k)
                assert parse_pauli(str(p)) == p

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_pauli("+2 ZX")
        with pytest.raises(ValueError):
            parse_pauli("ZQ")
        with pytest.raises(ValueError):
            parse_pauli("ZX", site_count=3)
        with pytest.raises(ValueError, match="malformed Pauli word '-1 Z X'"):
            parse_pauli("-1 Z X")


class TestConstruction:
    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="a Pauli word needs at least one site"):
            PauliString(())

    @pytest.mark.parametrize("k", [0.5, 2.0, Fraction(1, 2), "1"], ids=repr)
    def test_non_integer_phase_power_rejected(self, k):
        # 0.5 % 4 used to survive: str raised KeyError and p * p came out as +i II
        with pytest.raises(ValueError, match=f"phase power {re.escape(repr(k))} is not"):
            PauliString(("X", "Y"), k)

    def test_numpy_integer_phase_power_accepted(self):
        p = PauliString(("X", "Y"), np.int64(6))
        assert p == PauliString(("X", "Y"), 2)
        assert type(p.phase_power) is int
        assert str(p) == "-1 XY"
