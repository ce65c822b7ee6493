# %%
# Parity contradictions: three qubits, then two
# =============================================
#
# Four commuting three-qubit words whose operator product is minus the
# identity. Classically each single-site letter occurs twice, so any fixed
# +/-1 assignment multiplies to +1. Quantum mechanics says the product of
# the four measured values is -1 in every state.

from qpencil import (
    ContextHypergraph,
    ParityScenario,
    analyze,
    eigenstate_table,
    joint_context,
    parse_pauli,
    realization,
    two_valued_states,
)


def scenario(*texts, sites):
    return ParityScenario(
        tuple(tuple(parse_pauli(f) for f in t.split("*")) for t in texts), sites
    )


ghzm = scenario("XXX", "XYY", "YXY", "YYX", sites=3)
report = analyze(ghzm)
print("three-qubit argument:", report.to_json())

# %%
# The four words share one eigenbasis: eight entangled rays forming a
# single isolated context. That context still has eight two-valued states
# (one per ray), so there is no coloring obstruction; the contradiction
# lives entirely in the parity of the measured values.

terms = [realization(parse_pauli(w)) for w in ("XXX", "XYY", "YXY", "YYX")]
ctx = joint_context(terms, (1, 2, 4, 8))
h = ContextHypergraph.from_ray_groups([ctx.rays])
states = two_valued_states(h)
print(f"\nstates: {len(states)}")

for ray, row in zip(ctx.rays, eigenstate_table(ctx, ghzm)):
    product = 1
    for v in row:
        product *= v
    print(f"  {str(ray.to_json()):<28} {row}  product {product:+d}")

# %%
# Two qubits suffice. The third row and column of the operator square do
# not commute elementwise, but their products do. The two-term pencil is
# degenerate (the products are proportional), so use a three-term variant
# to expose the Bell basis; the parity argument closes the same way. Each
# product is composed symbolically on the Pauli words, as the CLI composes
# a scenario file's '*' observables, and only then realized as a matrix.

table = scenario("ZX*XZ", "XX", "ZZ", "XX*ZZ", sites=2)
zx_xz, xx, zz, xx_zz = (realization(w) for w in table.composed())

try:
    joint_context([zx_xz, xx_zz], (1, 2))
except Exception as e:
    print("\ntwo-term pencil:", e)

bell = joint_context([zx_xz, xx, zz], (1, 2, 4))
bipartite = scenario("ZX*XZ", "XX*ZZ", sites=2)
print("bipartite argument:", analyze(bipartite).to_json())

print("\nco-measured values on the Bell basis:")
for ray, row in zip(bell.rays, eigenstate_table(bell, table)):
    print(f"  {str(ray.to_json()):<16} {row}")
