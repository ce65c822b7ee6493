"""Mutants of the exact checks, each of which named deterministic tests must kill.

Each row names a file, a snippet that must occur in it exactly once, a
replacement that weakens a check, and the test ids that must then fail. The
row's test copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the replacement there and runs pytest on those ids in a
subprocess, which must exit 1: some test failed. Exit 0 means the mutant
survived; any other code means the run itself broke.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    pytest.param(
        "src/qpencil/pencil.py",
        "            if m != c:\n",
        "            if False:\n",
        ["tests/test_pencil.py::TestJointContext"
         "::test_shifted_degenerate_eigenvalues_are_rejected",
         "tests/test_pencil.py::TestBlockwiseCertificate::test_a_moved_count_is_rejected"],
        id="proposal-check-never-raises",
    ),
    pytest.param(
        "src/qpencil/pencil.py",
        "settled = s1 == left * lam and s2 == left * lam * lam",
        "settled = s1 == left * lam",
        ["tests/test_pencil.py::TestTraceCertificate"
         "::test_matching_trace_with_another_square_sum_is_ranked"],
        id="settle-rule-without-square-sum",
    ),
    pytest.param(
        "src/qpencil/pencil.py",
        "    if image == {j: (sign * re, sign * im) for j, (re, im) in ray.support}:\n",
        "    if image.get(j) == (sign * first[0], sign * first[1]):\n",
        ["tests/test_pencil.py::TestEigenSign::test_image_leaking_off_the_support_is_rejected"],
        id="eigen-sign-first-entry-only",
    ),
    pytest.param(
        "src/qpencil/logic.py",
        "children.append((r + (v,), later & adjacency[v]))",
        "children.append((r + (v,), p & adjacency[v]))",
        ["tests/test_logic.py::TestEnumerateContexts::test_matches_brute_force_cliques[0]"],
        id="clique-child-keeps-earlier-candidates",
    ),
    pytest.param(
        "src/qpencil/exact.py",
        "        if re != shift or im:",
        "        if True:",
        ["tests/test_exact.py::TestSparseKernelAgainstNaiveReference"
         "::test_a_cancelled_diagonal_entry_is_dropped"],
        id="shift-keeps-a-cancelled-entry",
    ),
    pytest.param(
        "src/qpencil/logic.py",
        "            shared |= holders.get(j, 0)\n",
        "            shared |= holders.get(j, 0) if j == r.support[0][0] else 0\n",
        ["tests/test_logic.py::TestOrthogonalityGraph::test_24_rays_are_9_regular"],
        id="orthogonality-buckets-first-index-only",
    ),
    pytest.param(
        "src/qpencil/exact.py",
        "        if scaled != {i + j: _gmul(p, q) for i, p in column for j, q in row}:",
        "        if any(scaled[i + j] != _gmul(p, q) for i, p in column for j, q in row"
        " if i + j in scaled):",
        ["tests/test_exact.py::TestProductStates::test_singlet_is_entangled"],
        id="product-state-support-indices-only",
    ),
    pytest.param(
        "src/qpencil/logic.py",
        "    for i in range(m):  # keep S only",
        "    for i in range(6, m):  # keep S only",
        ["tests/test_acceptance.py::test_criterion_8_subset_sweep"],
        id="criticality-skips-low-contexts",
    ),
    pytest.param(
        "src/qpencil/logic.py",
        "(lone ^ zero)[private == subsets]",
        "lone[private == subsets]",  # a missed edge counts as met once
        ["tests/test_logic.py::TestNoncolorableSubsets"
         "::test_matches_oracle_on_random_hypergraphs[5]",
         "tests/test_logic.py::TestHalfTables"
         "::test_matches_direct_counts_on_random_hypergraphs[3]"],
        id="once-mask-keeps-missed-edges",
    ),
    pytest.param(
        "src/qpencil/exact.py",
        "        ):  # (AB)_i = sum_k a_ik B_k against (BA)_i = sum_k b_ik A_k\n"
        "            return False\n",
        "        ):  # (AB)_i = sum_k a_ik B_k against (BA)_i = sum_k b_ik A_k\n"
        "            pass\n",
        ["tests/test_exact.py::TestCommutator::test_non_pauli_rows_are_compared_whole"],
        id="commutator-general-rows-never-differ",
    ),
    pytest.param(
        "src/qpencil/pencil.py",
        "values.append(complex(re, im))",
        # the conjugate block: the same spectrum, but conjugated eigenvectors
        "values.append(complex(re, -im))",
        ["tests/test_pencil.py::TestSparseWordOracle::test_random_full_families[2-12]"],
        id="float-stage-conjugate-block",
    ),
    pytest.param(
        "src/qpencil/pencil.py",
        "v.transpose(1, 0, 2)",
        "v.transpose(1, 2, 0)",  # block b's columns on another block's indices
        ["tests/test_pencil.py::TestSnapRays"
         "::test_stacked_blocks_snap_block_by_block_on_their_own_indices",
         "tests/test_pencil.py::TestBlockFloatStage::test_ghz_context_json_is_unchanged[3]"],
        id="snap-columns-paired-with-the-wrong-block",
    ),
    pytest.param(
        "src/qpencil/logic.py",
        "        if len(set(self.vertices)) != len(self.vertices):\n",
        "        if False:\n",
        ["tests/test_logic.py::TestHypergraphConstruction"
         "::test_malformed_json_rejected[ray-listed-twice]",
         "tests/test_logic.py::TestHypergraphConstruction"
         "::test_exported_json_with_a_copied_vertex_is_rejected"],
        id="repeated-vertex-accepted",
    ),
]


@pytest.mark.parametrize("path,snippet,replacement,killers", MUTANTS)
def test_mutant_is_killed(tmp_path, path, snippet, replacement, killers):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    target = tmp_path / path
    source = target.read_text()
    assert source.count(snippet) == 1, f"the snippet must occur exactly once in {path}"
    target.write_text(source.replace(snippet, replacement))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}  # the mutant, not this checkout
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *killers],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout[-3000:] + run.stderr[-3000:]
