"""Parity contradictions: quantum serial products versus classical assignments.

A scenario is a list of commuting dichotomic observables, each given as a
product of Pauli-word factors. Classically, assigning one fixed value of +1
or -1 to every distinct (site, letter) pair forces the product of all
observables to +1 whenever every pair occurs an even number of times. The
quantum side multiplies the operators instead: when the serial product is
minus the identity, the two predictions contradict for every state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .pauli import PHASE_TEXT, PauliString, commutes, realization, serial_product
from .pencil import Context, eigen_sign

BRUTEFORCE_PAIR_CAP = 20


class ParityError(Exception):
    """The scenario does not close into a forced parity argument."""


ObservableFactors = tuple[PauliString, ...]


def observable_text(factors: ObservableFactors) -> str:
    """Factor text with the summed phase prefix, e.g. ``-1 ZX*XZ``."""
    total_phase = sum(f.phase_power for f in factors) % 4
    body = "*".join("".join(f.letters) for f in factors)
    return (f"{PHASE_TEXT[total_phase]} " if total_phase else "") + body


@dataclass(frozen=True)
class ParityScenario:
    """Commuting observables, each a product of Pauli-word factors.

    Factors are kept separate so the classical side can count occurrences
    of elementary single-site letters; the quantum side composes them.
    """

    observables: tuple[ObservableFactors, ...]
    site_count: int

    def __post_init__(self):
        if not self.observables:
            raise ValueError("a scenario needs at least one observable")
        for factors in self.observables:
            if not factors:
                raise ValueError("an observable needs at least one factor")
            for f in factors:
                if f.site_count != self.site_count:
                    raise ValueError(
                        f"factor {f} has {f.site_count} sites, expected {self.site_count}"
                    )
        composed = self.composed()
        for factors, c in zip(self.observables, composed):
            if not c.is_hermitian():
                raise ValueError(f"{observable_text(factors)} is not Hermitian")
        for (a, u), (b, v) in combinations(zip(self.observables, composed), 2):
            if not commutes(u, v):
                text = f"{observable_text(a)} and {observable_text(b)} do not commute"
                raise ValueError(text)

    def composed(self) -> tuple[PauliString, ...]:
        return tuple(serial_product(factors) for factors in self.observables)

    def flat_factors(self) -> tuple[PauliString, ...]:
        return tuple(f for factors in self.observables for f in factors)

    def letter_occurrences(self) -> dict[tuple[int, str], int]:
        """Counts of each non-identity (site, letter) over all factors."""
        counts: Counter[tuple[int, str]] = Counter()
        for f in self.flat_factors():
            for site, letter in enumerate(f.letters):
                if letter != "I":
                    counts[(site, letter)] += 1
        return dict(sorted(counts.items()))


@dataclass
class ContradictionReport:
    """Quantum versus forced-classical product for one scenario."""

    quantum_value: int
    classical_value: int
    occurrence_parity: dict[tuple[int, str], int]
    contradiction: bool

    def to_json(self) -> dict:
        return {
            "quantum": self.quantum_value,
            "classical": self.classical_value,
            "contradiction": self.contradiction,
            "parity": {
                f"{site + 1}:{letter}": count
                for (site, letter), count in sorted(self.occurrence_parity.items())
            },
        }


def analyze(s: ParityScenario) -> ContradictionReport:
    """Compare the quantum serial product against the forced classical value.

    Requires a closed argument: the full serial product must be the identity
    word (up to phase) and every (site, letter) occurrence count must be
    even, which pins the classical product to +1 for any assignment.
    """
    product = serial_product(s.flat_factors())
    if not product.is_identity_word():
        raise ParityError(
            f"serial product is {product}, not the identity word: "
            "no closed parity argument"
        )
    occurrences = s.letter_occurrences()
    odd = [key for key, count in occurrences.items() if count % 2]
    if odd:
        raise ParityError(
            f"odd occurrence counts for {odd}: the classical value is not forced"
        )
    quantum = 1 if product.phase_power == 0 else -1
    return ContradictionReport(
        quantum_value=quantum,
        classical_value=1,
        occurrence_parity=occurrences,
        contradiction=quantum != 1,
    )


def classical_bruteforce(s: ParityScenario) -> set[int]:
    """All products achievable by any +/-1 assignment to (site, letter) pairs.

    The independent oracle for ``analyze``: enumerates every assignment
    to the distinct non-identity (site, letter) pairs and collects the
    product of the observables' classical values.
    """
    pairs = sorted(s.letter_occurrences())
    if len(pairs) > BRUTEFORCE_PAIR_CAP:
        raise ValueError(
            f"{len(pairs)} distinct (site, letter) pairs exceeds the "
            f"brute-force cap of {BRUTEFORCE_PAIR_CAP}"
        )
    index = {pair: k for k, pair in enumerate(pairs)}
    results = set()
    for bits in range(1 << len(pairs)):
        total = 1
        for factors in s.observables:
            value = 1
            for f in factors:
                for site, letter in enumerate(f.letters):
                    if letter != "I":
                        if (bits >> index[(site, letter)]) & 1:
                            value = -value
            total *= value
        results.add(total)
    return results


def eigenstate_table(context: Context, s: ParityScenario) -> list[tuple[int, ...]]:
    """Co-measured values: the +/-1 eigenvalue of each observable on each ray.

    Every context ray must be an exact eigenvector of every composed
    observable; otherwise the observables do not share the context and the
    table is rejected.
    """
    words = s.composed()
    matrices = [realization(w) for w in words]
    return [
        tuple(
            eigen_sign(m, ray, f"observable {w}") for w, m in zip(words, matrices)
        )
        for ray in context.rays
    ]
