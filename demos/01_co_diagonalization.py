# %%
# Co-diagonalizing commuting degenerate matrices
# ==============================================
#
# Two Hermitian matrices can commute and still share no eigenvector that a
# per-matrix eigensolver would find: when both spectra are degenerate, each
# matrix leaves a freedom of basis inside its eigenspaces, and the bases
# printed for one matrix generally are not eigenvectors of the other.
#
# The fix is a matrix pencil: an integer combination a*A + b*B is still
# Hermitian, commutes with both terms, and for generic weights has a simple
# spectrum whose eigenbasis diagonalizes A and B simultaneously.

from qpencil import ExactMatrix, commutator_is_zero, joint_context
from qpencil.exact import nullspace
from qpencil.pencil import VerificationError, eigen_sign

first = ExactMatrix.from_rows(
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
)
second = ExactMatrix.from_rows(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
)

print("commute:", commutator_is_zero(first, second))

# %%
# Each matrix on its own: both have eigenvalues +1 and -1 with multiplicity
# two. A canonical exact eigenbasis of the first matrix, one Gaussian-integer
# ray per free column of first - lam*I:

for lam in (1, -1):
    for ray in nullspace(first, lam):
        print(f"eigenvalue {lam:+d}: ", ray.to_json())

# %%
# None of those vectors is an eigenvector of the second matrix: the individual
# eigensystems are useless for joint measurement. The second matrix squares
# to the identity, so ``eigen_sign`` finds its eigenvalue +1 or -1 on an
# eigenvector, comparing the exact image with +v and -v, and raises otherwise.


def is_eigenvector(matrix, ray):
    try:
        eigen_sign(matrix, ray, "second")
    except VerificationError:
        return False
    return True


for lam in (1, -1):
    for ray in nullspace(first, lam):
        print("eigenvector of second matrix?", is_eigenvector(second, ray))

# %%
# The pencil 1*first + 2*second has four distinct eigenvalues; its snapped
# and exactly re-verified eigenbasis diagonalizes both matrices at once.

ctx = joint_context([first, second], (1, 2))
print("\npencil eigenvalues:", ctx.pencil_eigenvalues)
for ray, signs in zip(ctx.rays, ctx.eigentable):
    print(f"  ray {ray.to_json()}  first -> {signs[0]:+d}  second -> {signs[1]:+d}")
