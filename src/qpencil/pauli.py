"""Symbolic n-qubit Pauli words with exact phase tracking.

A word is a letter per site from {I, X, Y, Z} with a unit phase i**k. Its one
working form is the bit-mask pair (x, z) of Aaronson & Gottesman (Phys. Rev. A
70, 052328, 2004): site s is bit n-1-s, x marks X and Y, z marks Y and Z, and
as Y = -i*Z*X the word is i**(k + 3|x&z|) * Z^z * X^x. Products, commutation
and the matrix all read these masks through one phase rule: X^x Z^z =
(-1)**|x&z| Z^z X^x.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .exact import I_POWERS, ExactMatrix

LETTERS = "IXYZ"

# phase exponent k -> text of i**k, as written before a word
PHASE_TEXT = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}
_TEXT_PHASE = {text: k for k, text in PHASE_TEXT.items()}


@dataclass(frozen=True)
class PauliString:
    """A tensor word of single-qubit operators with a unit phase i**phase_power."""

    letters: tuple[str, ...]
    phase_power: int = 0

    def __post_init__(self):
        if not self.letters:
            raise ValueError("a Pauli word needs at least one site")
        bad = [l for l in self.letters if l not in LETTERS]
        if bad:
            word = "".join(map(str, self.letters))
            raise ValueError(f"unknown letter {bad[0]!r} in {word!r}")
        try:
            k = operator.index(self.phase_power)
        except TypeError:
            raise ValueError(f"phase power {self.phase_power!r} is not an integer") from None
        object.__setattr__(self, "phase_power", k % 4)

    @staticmethod
    def from_word(word: str, phase_power: int = 0) -> "PauliString":
        return PauliString(tuple(word), phase_power)

    @property
    def site_count(self) -> int:
        return len(self.letters)

    def is_hermitian(self) -> bool:
        return self.phase_power % 2 == 0

    def is_identity_word(self) -> bool:
        return all(l == "I" for l in self.letters)

    def masks(self) -> tuple[int, int]:
        """(x, z): site s is bit n-1-s; x marks X and Y, z marks Y and Z."""
        x = z = 0
        for letter in self.letters:
            x, z = 2 * x + (letter in "XY"), 2 * z + (letter in "YZ")
        return x, z

    def __str__(self) -> str:
        word = "".join(self.letters)
        return word if self.phase_power == 0 else f"{PHASE_TEXT[self.phase_power]} {word}"

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product with exact phase: Z^za X^xa Z^zb X^xb = (-1)**|xa&zb| Z^z X^x."""
    if a.site_count != b.site_count:
        raise ValueError(f"site-count mismatch: {a.site_count} vs {b.site_count}")
    (xa, za), (xb, zb) = a.masks(), b.masks()
    x, z = xa ^ xb, za ^ zb
    ys = (xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
    k = a.phase_power + b.phase_power + 3 * ys + 2 * (xa & zb).bit_count()
    bits = range(a.site_count - 1, -1, -1)
    return PauliString(tuple("IXZY"[(x >> s & 1) + 2 * (z >> s & 1)] for s in bits), k)


def commutes(a: PauliString, b: PauliString) -> bool:
    """Symplectic criterion: commuting iff |xa&zb| + |za&xb| is even."""
    if a.site_count != b.site_count:
        raise ValueError(f"site-count mismatch: {a.site_count} vs {b.site_count}")
    (xa, za), (xb, zb) = a.masks(), b.masks()
    return ((xa & zb).bit_count() + (za & xb).bit_count()) % 2 == 0


def realization(w: PauliString) -> ExactMatrix:
    """The 2^n x 2^n matrix of the word in the standard single-qubit encoding.

    A signed permutation: X^x moves column r XOR x to row r and Z^z scales row
    r by (-1)**|r&z|, so row r holds i**(k + 3|x&z| + 2|r&z|) in column r XOR x.
    """
    n = w.site_count
    flip, sign = w.masks()
    k = w.phase_power + 3 * (flip & sign).bit_count()
    rows = tuple(
        ((r ^ flip, *I_POWERS[(k + 2 * (r & sign).bit_count()) % 4]),)
        for r in range(1 << n)
    )
    return ExactMatrix(1 << n, 1 << n, rows)


def serial_product(ws: Sequence[PauliString]) -> PauliString:
    """Left-to-right product of a nonempty list of words."""
    if not ws:
        raise ValueError("serial product of an empty list")
    acc = ws[0]
    for w in ws[1:]:
        acc = multiply(acc, w)
    return acc


def parse_pauli(text: str, site_count: int | None = None) -> PauliString:
    """Parse the text form: optional phase prefix (+1, -1, +i, -i), then one
    letter per site, e.g. ``-1 XYY`` or bare ``ZX``."""
    parts = text.split()
    if len(parts) == 2:
        phase_text, word = parts
        if phase_text not in _TEXT_PHASE:
            raise ValueError(f"malformed phase prefix {phase_text!r}")
        k = _TEXT_PHASE[phase_text]
    elif len(parts) == 1:
        k, word = 0, parts[0]
    else:
        raise ValueError(f"malformed Pauli word {text!r}")
    if site_count is not None and len(word) != site_count:
        raise ValueError(
            f"word {word!r} has {len(word)} letters, expected {site_count}"
        )
    return PauliString.from_word(word, k)
