"""Symbolic n-qubit Pauli words with exact phase tracking.

A word is a letter per site from {I, X, Y, Z} together with a unit phase
i**k. Products accumulate phases through the fixed structure constants
X*Y = iZ, Y*Z = iX, Z*X = iY (reversals carry -i), so the symbolic algebra
agrees entry-for-entry with the exact matrix realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exact import ExactMatrix, GaussianRational, tensor

LETTERS = "IXYZ"

# (a, b) -> (phase exponent k of i**k, resulting letter)
_SINGLE_SITE_PRODUCTS = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("Y", "I"): (0, "Y"), ("Z", "I"): (0, "Z"),
    ("X", "X"): (0, "I"), ("Y", "Y"): (0, "I"), ("Z", "Z"): (0, "I"),
    ("X", "Y"): (1, "Z"), ("Y", "Z"): (1, "X"), ("Z", "X"): (1, "Y"),
    ("Y", "X"): (3, "Z"), ("Z", "Y"): (3, "X"), ("X", "Z"): (3, "Y"),
}

# phase exponent k -> text of i**k, as written before a word
PHASE_TEXT = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}
_TEXT_PHASE = {text: k for k, text in PHASE_TEXT.items()}

_SINGLE_SITE_MATRICES = {
    "I": ExactMatrix.from_rows([[1, 0], [0, 1]]),
    "X": ExactMatrix.from_rows([[0, 1], [1, 0]]),
    "Y": ExactMatrix.from_rows(
        [[0, GaussianRational(0, -1)], [GaussianRational(0, 1), 0]]
    ),
    "Z": ExactMatrix.from_rows([[1, 0], [0, -1]]),
}

_PHASE_SCALARS = {
    0: GaussianRational(1),
    1: GaussianRational(0, 1),
    2: GaussianRational(-1),
    3: GaussianRational(0, -1),
}


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
            raise ValueError(
                f"unknown letter {bad[0]!r} in {''.join(map(str, self.letters))!r}"
            )
        object.__setattr__(self, "phase_power", self.phase_power % 4)

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

    @property
    def phase_text(self) -> str:
        return PHASE_TEXT[self.phase_power]

    def __str__(self) -> str:
        word = "".join(self.letters)
        return word if self.phase_power == 0 else f"{self.phase_text} {word}"

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Sitewise product with exact phase accumulation."""
    if a.site_count != b.site_count:
        raise ValueError(
            f"site-count mismatch: {a.site_count} vs {b.site_count}"
        )
    k = a.phase_power + b.phase_power
    letters = []
    for la, lb in zip(a.letters, b.letters):
        dk, l = _SINGLE_SITE_PRODUCTS[(la, lb)]
        k += dk
        letters.append(l)
    return PauliString(tuple(letters), k)


def commutes(a: PauliString, b: PauliString) -> bool:
    """Symplectic criterion: commuting iff the letters differ, with neither
    being I, at an even number of sites."""
    if a.site_count != b.site_count:
        raise ValueError(
            f"site-count mismatch: {a.site_count} vs {b.site_count}"
        )
    clashes = sum(
        1
        for la, lb in zip(a.letters, b.letters)
        if la != lb and la != "I" and lb != "I"
    )
    return clashes % 2 == 0


def realization(w: PauliString) -> ExactMatrix:
    """The 2^n x 2^n matrix of the word in the standard single-qubit encoding."""
    m = _SINGLE_SITE_MATRICES[w.letters[0]]
    for l in w.letters[1:]:
        m = tensor(m, _SINGLE_SITE_MATRICES[l])
    if w.phase_power:
        m = m.scale(_PHASE_SCALARS[w.phase_power])
    return m


def serial_product(ws: Sequence[PauliString]) -> PauliString:
    """Left-to-right product of a nonempty list of words."""
    if not ws:
        raise ValueError("serial product of an empty list")
    acc = ws[0]
    for w in ws[1:]:
        acc = multiply(acc, w)
    return acc


def identity(site_count: int) -> PauliString:
    return PauliString(("I",) * site_count)


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
