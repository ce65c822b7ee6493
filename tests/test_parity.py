import itertools

import pytest

from qpencil.exact import Ray
from qpencil.parity import (
    ParityError,
    ParityScenario,
    analyze,
    classical_bruteforce,
    eigenstate_table,
)
from qpencil.pauli import parse_pauli, realization
from qpencil.pencil import VerificationError, joint_context

from _fixtures import GHZ_PLUS, GHZM_WORDS


def words(*texts):
    return [parse_pauli(t) for t in texts]


def scenario(*obs_texts, sites):
    observables = tuple(
        tuple(parse_pauli(f) for f in obs.split("*")) for obs in obs_texts
    )
    return ParityScenario(observables, sites)


GHZM = scenario("XXX", "XYY", "YXY", "YYX", sites=3)
BIPARTITE = scenario("ZX*XZ", "XX*ZZ", sites=2)


@pytest.fixture(scope="module")
def bell_context():
    zx, xz, xx, zz = (realization(parse_pauli(t)) for t in ("ZX", "XZ", "XX", "ZZ"))
    return joint_context([zx @ xz, xx, zz], (1, 2, 4))


@pytest.fixture(scope="module")
def ghzm_context():
    return joint_context(
        [realization(w) for w in words(*GHZM_WORDS)], (1, 2, 4, 8)
    )


class TestScenarioValidation:
    def test_noncommuting_observables_rejected(self):
        with pytest.raises(ValueError, match="^ZI and XI do not commute$"):
            scenario("ZI", "XI", sites=2)

    def test_commutation_checked_on_composed_products(self):
        # ZX and XX anticommute, yet (ZX*XZ) and (XX*ZZ) commute
        assert BIPARTITE.composed()[0] == parse_pauli("YY")

    def test_non_hermitian_composition_rejected(self):
        with pytest.raises(ValueError, match=r"^XI\*YI is not Hermitian$"):
            scenario("XI*YI", sites=2)  # (X*Y) = iZ on site 1

    def test_site_count_mismatch(self):
        with pytest.raises(ValueError):
            ParityScenario(((parse_pauli("ZX"),),), 3)

    @pytest.mark.parametrize(
        "observables, message",
        [((), "a scenario needs at least one observable"),
         (((),), "an observable needs at least one factor")],
        ids=["no-observable", "no-factor"],
    )
    def test_empty_scenario_or_observable_rejected(self, observables, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ParityScenario(observables, 2)


class TestAnalyze:
    def test_ghzm_contradiction(self):
        report = analyze(GHZM)
        assert report.quantum_value == -1
        assert report.classical_value == 1
        assert report.contradiction
        assert all(count == 2 for count in report.occurrence_parity.values())
        assert set(report.occurrence_parity) == {
            (site, letter) for site in range(3) for letter in "XY"
        }

    def test_bipartite_contradiction(self):
        report = analyze(BIPARTITE)
        assert report.quantum_value == -1
        assert report.classical_value == 1
        assert report.contradiction
        assert report.occurrence_parity == {
            (0, "X"): 2, (0, "Z"): 2, (1, "X"): 2, (1, "Z"): 2,
        }

    def test_repeated_observable_no_contradiction(self):
        report = analyze(scenario("ZZ", "ZZ", sites=2))
        assert report.quantum_value == 1
        assert not report.contradiction

    def test_non_identity_product_rejected(self):
        with pytest.raises(ParityError, match="identity"):
            analyze(scenario("ZX", sites=2))

    def test_odd_occurrences_rejected(self):
        # (XX*YY) and ZZ commute and multiply to -identity, but X, Y, Z each
        # appear only once per site, so no classical value is forced
        with pytest.raises(ParityError, match="odd"):
            analyze(scenario("XX*YY", "ZZ", sites=2))

    def test_even_composite_cycle_is_consistent(self):
        # doubling the cycle evens out every count and squares away the sign
        report = analyze(scenario("XX*YY", "ZZ", "ZZ", "XX*YY", sites=2))
        assert report.quantum_value == 1
        assert not report.contradiction
        assert all(count % 2 == 0 for count in report.occurrence_parity.values())

    def test_permutation_invariance(self):
        base = analyze(GHZM)
        for perm in itertools.permutations(range(4)):
            shuffled = ParityScenario(
                tuple(GHZM.observables[i] for i in perm), 3
            )
            report = analyze(shuffled)
            assert report.quantum_value == base.quantum_value
            assert report.occurrence_parity == base.occurrence_parity

    def test_yy_yy_appended_changes_nothing_material(self):
        base = analyze(BIPARTITE)
        extended = scenario("ZX*XZ", "XX*ZZ", "YY*YY", sites=2)
        report = analyze(extended)
        assert report.quantum_value == base.quantum_value
        assert report.classical_value == base.classical_value
        assert report.contradiction == base.contradiction
        # the only new occurrence entries are the (even) Y counts
        added = {
            k: v
            for k, v in report.occurrence_parity.items()
            if k not in base.occurrence_parity
        }
        assert added == {(0, "Y"): 2, (1, "Y"): 2}

    def test_report_json_shape(self):
        data = analyze(BIPARTITE).to_json()
        assert data == {
            "quantum": -1,
            "classical": 1,
            "contradiction": True,
            "parity": {"1:X": 2, "1:Z": 2, "2:X": 2, "2:Z": 2},
        }


class TestClassicalBruteforce:
    def test_ghzm_forced(self):
        assert classical_bruteforce(GHZM) == {1}

    def test_bipartite_forced(self):
        assert classical_bruteforce(BIPARTITE) == {1}

    def test_single_observable_unforced(self):
        assert classical_bruteforce(scenario("ZI", sites=2)) == {1, -1}

    def test_agrees_with_analyze(self):
        for s in (GHZM, BIPARTITE):
            assert analyze(s).classical_value in classical_bruteforce(s)

    def test_pair_cap(self):
        s = scenario("X" * 21 + "*" + "X" * 21, sites=21)
        with pytest.raises(ValueError, match="cap"):
            classical_bruteforce(s)


class TestEigenstateTable:
    def test_bell_rows_match_comeasured_values(self, bell_context):
        s = scenario("ZX*XZ", "XX", "ZZ", "XX*ZZ", sites=2)
        rows = eigenstate_table(bell_context, s)
        by_ray = dict(zip(bell_context.rays, rows))
        assert by_ray[Ray([0, 1, 1, 0])] == (1, 1, -1, -1)      # psi plus
        assert by_ray[Ray([1, 0, 0, -1])] == (1, -1, 1, -1)     # phi minus
        assert by_ray[Ray([0, 1, -1, 0])] == (-1, -1, -1, 1)    # psi minus
        assert by_ray[Ray([1, 0, 0, 1])] == (-1, 1, 1, 1)       # phi plus

    def test_bell_row_products_for_closed_scenarios(self, bell_context):
        for s in (BIPARTITE, scenario("ZX*XZ", "XX", "ZZ", sites=2)):
            quantum = analyze(s).quantum_value
            for row in eigenstate_table(bell_context, s):
                product = 1
                for v in row:
                    product *= v
                assert product == quantum == -1

    def test_ghz_plus_row(self, ghzm_context):
        rows = eigenstate_table(ghzm_context, GHZM)
        by_ray = dict(zip(ghzm_context.rays, rows))
        assert by_ray[Ray(GHZ_PLUS)] == (1, -1, -1, -1)

    def test_all_ghzm_rows_multiply_to_quantum_value(self, ghzm_context):
        for row in eigenstate_table(ghzm_context, GHZM):
            product = 1
            for v in row:
                product *= v
            assert product == -1

    def test_non_eigenvector_rejected(self, bell_context):
        with pytest.raises(VerificationError, match="eigenvector"):
            eigenstate_table(bell_context, scenario("ZI", "ZI", sites=2))
