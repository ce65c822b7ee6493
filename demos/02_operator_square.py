# %%
# The 3x3 operator square and its 24-24 completion
# ================================================
#
# Nine two-qubit observables arranged in a square so that every row and
# every column commutes. Each line of the square masks a measurement
# context; the matrix pencil of each line exposes it as an exact eigenbasis.

from qpencil import (
    ContextHypergraph,
    classify_contexts,
    joint_context,
    realization,
    parse_pauli,
    two_valued_states,
)

SQUARE = [
    ["ZI", "IZ", "ZZ"],
    ["IX", "XI", "XX"],
    ["ZX", "XZ", "YY"],
]

lines = SQUARE + [list(col) for col in zip(*SQUARE)]

contexts = []
for words in lines:
    terms = [realization(parse_pauli(w)) for w in words]
    ctx = joint_context(terms, (1, 2, 4))
    contexts.append(ctx)
    print(" + ".join(f"{a}*{w}" for a, w in zip((1, 2, 4), words)))
    for lam, ray, signs in zip(ctx.pencil_eigenvalues, ctx.rays, ctx.eigentable):
        cells = "  ".join(f"{s:+d}" for s in signs)
        print(f"  {lam:+3d}  {str(ray.to_json()):<18} {cells}")

# %%
# The six contexts are pairwise disjoint (24 distinct rays). Completing the
# picture means asking which OTHER orthonormal bases hide inside those rays:
# every 4-clique of the orthogonality graph (4 pairwise-orthogonal rays) is one.

rays = [r for ctx in contexts for r in ctx.rays]
h = ContextHypergraph.completion_of(rays)
print(f"\ncompletion: {len(h.vertices)} rays form {len(h.edges)} contexts")

# %%
# A two-valued state marks exactly one ray per context as true. This
# configuration admits none at all, which is a complete classical/quantum
# contradiction: no noncontextual truth assignment exists.

print("two-valued states:", len(two_valued_states(h)))

# %%
# Separability splits the picture: 16 product rays living in 12 contexts,
# and 8 entangled rays (the third row and column's bases) in 4 contexts.

cls = classify_contexts(h, (2, 2))
print("classification:", cls.counts())
