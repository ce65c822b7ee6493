# %%
# Searching sub-collections for minimal no-state configurations
# =============================================================
#
# The 24-context configuration admits no two-valued state. Which parts of
# it are responsible? Sweeping every nonempty sub-collection of contexts
# finds all no-state subsets; the minimal ("critical") ones are those that
# regain a state as soon as any single context is dropped.
#
# The sweep covers all 2^24 - 1 sub-collections in one pass over the subset
# lattice. On a 2-vCPU machine it takes about 0.1 s, and this whole script
# about 0.3 s (``qpencil subsets --critical`` runs the same sweep from the
# command line). The same sweep covers the paper's GHZ-Mermin star, 40 rays
# in 25 contexts, in about 6 s: ``qpencil subsets --file
# tests/scenarios/mermin_star.scn``.

from qpencil import ContextHypergraph, joint_context, noncolorable_subsets
from qpencil import parse_pauli, realization

lines = [
    ("ZI", "IZ", "ZZ"), ("IX", "XI", "XX"), ("ZX", "XZ", "YY"),
    ("ZI", "IX", "ZX"), ("IZ", "XI", "XZ"), ("ZZ", "XX", "YY"),
]
rays = []
for words in lines:
    ctx = joint_context([realization(parse_pauli(w)) for w in words], (1, 2, 4))
    rays.extend(ctx.rays)
h = ContextHypergraph.completion_of(rays)

result = noncolorable_subsets(h)
print(f"contexts: {len(h.edges)}")
print(f"no-state sub-collections: {result.total}")
print(f"critical sub-collections: {len(result.critical)}")

# %%
# Critical collections tallied by shape: how many contexts each keeps and
# how many rays those contexts cover, smallest shape first. The smallest
# ones keep 9 contexts covering 18 rays.

for (edges, vertices), count in result.critical_shapes(h).items():
    print(f"  {edges} contexts / {vertices} rays: {count}")
