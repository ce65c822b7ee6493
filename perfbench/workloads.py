"""The benchmark's four workloads: input generation, operations and checks.

``make(name, seed)`` generates one pass of operations. Generating them is
the workload's set-up; running them is the measured work. Every call into
the package goes through a module attribute (``pencil.joint_context``, not
a local name) so that the traced run's wrappers see it.
"""

from __future__ import annotations

import io
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GOLDEN = BENCH / "golden"
SWEEP_GOLDEN = GOLDEN / "subset-sweep.json"

# Benchmark the checkout's own source tree, never an installed copy.
sys.path.insert(0, str(SRC))
import qpencil  # noqa: E402
from qpencil import cli, logic, pauli, pencil  # noqa: E402

if not Path(qpencil.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"qpencil was imported from {qpencil.__file__}, not from {SRC}")

import oracles  # noqa: E402
from oracles import OracleMismatch  # noqa: E402

SCENARIO_FORMATS = {"json": "json", "text": "txt"}
GHZ_QUBITS = (2, 3, 4, 5)
DEGENERATE_QUBITS = 3
DEGENERATE_PENCILS = 120
SWEEP_EDGES = 20
SWEEP_JOBS = 2
# Measured at the seed commit; critical shapes are (contexts, rays): count.
SWEEP_NO_STATE = 12009
SWEEP_SHAPES = {(9, 18): 4, (11, 20): 24, (13, 22): 4}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``run`` is the timed call into the package. ``check`` raises
    ``OracleMismatch`` on a wrong result and returns layer counters.
    ``units`` is the work ``ops_per_s`` counts: a scenario run, a verified
    context, a certified degenerate outcome, or a swept mask. ``cpus`` is the
    number of processes ``run`` keeps busy at once, the CPUs the reference
    loop is timed on.
    """

    case: str
    run: Callable[[], object]
    check: Callable[[object], dict[str, int]]
    units: int = 1
    cpus: int = 1


def make(name: str, seed: int) -> list[Op]:
    return MAKERS[name](seed)


# ---------------------------------------------------------------------------
# scenarios: the CLI on the four built-ins, compared byte for byte.


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{SCENARIO_FORMATS[fmt]}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_golden(label: str, golden: bytes, result) -> dict[str, int]:
    code, text = result
    if code != 0:
        raise OracleMismatch(f"{label}: exit code {code}")
    if text.encode("utf-8") != golden:
        raise OracleMismatch(f"{label}: output differs from its golden file")
    return {}


def scenarios(seed: int) -> list[Op]:
    ops = []
    for name in cli.BUILTINS:
        for fmt in SCENARIO_FORMATS:
            golden = golden_path(name, fmt).read_bytes()
            ops.append(Op(
                name,
                partial(run_cli, [name, "--format", fmt]),
                partial(_check_golden, f"{name} --format {fmt}", golden),
            ))
    return ops


# ---------------------------------------------------------------------------
# ghz-pencils: stabilizer generators X...X and Z_i Z_{i+1}, one pencil per n.


def ghz_words(n: int) -> list[str]:
    return ["X" * n] + ["I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1)]


def _run_context(terms: list) -> object:
    return pencil.joint_context([pauli.realization(t) for t in terms])


def _check_context(words: list[str], ctx) -> dict[str, int]:
    oracles.check_context(
        words,
        [oracles.ray_vector(r.to_json()) for r in ctx.rays],
        ctx.eigentable,
        ctx.pencil_eigenvalues,
    )
    return {}


def ghz_pencils(seed: int) -> list[Op]:
    ops = []
    for n in GHZ_QUBITS:
        words = ghz_words(n)
        terms = [pauli.PauliString.from_word(w) for w in words]
        ops.append(Op(f"n{n}", partial(_run_context, terms), partial(_check_context, words)))
    return ops


# ---------------------------------------------------------------------------
# degenerate-pencils: k = 1 or 2 independent commuting words on 3 qubits.
# With k < n every joint eigenspace has dimension 2^(n-k) > 1, so every
# pencil must be reported degenerate.


def commuting_family(rng: random.Random, k: int, n: int) -> tuple[list[str], list[int]]:
    """k independent, pairwise-commuting random words with random signs."""
    while True:
        words = ["".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(k)]
        if oracles.gf2_rank(words) == k and all(
            oracles.words_commute(a, b) for a, b in combinations(words, 2)
        ):
            return words, [rng.choice((1, -1)) for _ in words]


def _run_degenerate(terms: list):
    try:
        _run_context(terms)
    except pencil.DegeneratePencilError as e:
        return e.multiplicities
    return None


def _check_degenerate(words: list[str], multiplicities) -> dict[str, int]:
    if multiplicities is None:
        raise OracleMismatch(f"{words}: pencil was not reported degenerate")
    oracles.check_multiplicities(words, multiplicities)
    return {}


def degenerate_pencils(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for i in range(DEGENERATE_PENCILS):
        k = 1 + i % 2
        words, signs = commuting_family(rng, k, DEGENERATE_QUBITS)
        terms = [
            pauli.PauliString.from_word(w, 0 if s > 0 else 2) for w, s in zip(words, signs)
        ]
        ops.append(Op(f"k{k}", partial(_run_degenerate, terms), partial(_check_degenerate, words)))
    return ops


# ---------------------------------------------------------------------------
# subset-sweep: every sub-collection of the first 20 pm-square contexts.


def sweep_hypergraph():
    h, _ = cli.scenario_hypergraph(
        cli.load_builtin("pm-square"), None, pencil.DEFAULT_MAX_SNAP_NORM
    )
    return h.sub_hypergraph(range(SWEEP_EDGES))


def check_sweep(h, golden_critical, verified: set, result) -> dict[str, int]:
    """Counts and shapes as measured at the seed, critical sets as the golden
    file lists them, and each critical set confirmed by the colouring oracle
    (once per distinct answer)."""
    critical = tuple(tuple(c) for c in result.critical)
    if result.total != SWEEP_NO_STATE:
        raise OracleMismatch(f"{result.total} no-state collections, expected {SWEEP_NO_STATE}")
    shapes = Counter(
        (len(c), len(set().union(*(h.edges[i] for i in c)))) for c in critical
    )
    if shapes != SWEEP_SHAPES:
        raise OracleMismatch(f"critical shapes {dict(shapes)}, expected {SWEEP_SHAPES}")
    if critical != golden_critical:
        raise OracleMismatch("critical collections differ from the golden file")
    if critical not in verified:
        oracles.check_critical(h.edges, critical)
        verified.add(critical)
    return {
        "logic.sweep.masks": (1 << len(h.edges)) - 1,
        "logic.sweep.no_state": result.total,
        "logic.sweep.critical": len(critical),
    }


def load_sweep_golden() -> tuple[tuple[int, ...], ...]:
    data = json.loads(SWEEP_GOLDEN.read_text())
    return tuple(tuple(c) for c in data["critical"])


def _run_sweep(h):
    return logic.noncolorable_subsets(h, jobs=SWEEP_JOBS)


def subset_sweep(seed: int) -> list[Op]:
    h = sweep_hypergraph()
    check = partial(check_sweep, h, load_sweep_golden(), set())
    return [Op(
        "sweep", partial(_run_sweep, h), check, units=(1 << len(h.edges)) - 1, cpus=SWEEP_JOBS
    )]


MAKERS = {
    "scenarios": scenarios,
    "ghz-pencils": ghz_pencils,
    "degenerate-pencils": degenerate_pencils,
    "subset-sweep": subset_sweep,
}
