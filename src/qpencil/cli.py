"""Command-line front end: built-in scenarios, a scenario-file parser, exporters.

Scenario files are line-oriented::

    sites 2
    mode parity          # pencil | parity | hypergraph
    group
    ZX*XZ                # one observable per line; * separates product factors
    -1 XYY               # optional phase prefix: +1 -1 +i -i

Products stay factor lists on the classical (parity-counting) side and are
composed into single words wherever an operator matrix is needed. Every
built-in command is backed by a scenario file shipped with the package, so
``analyze --file`` on the shipped file reproduces the built-in output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .logic import (
    ContextHypergraph,
    classify_contexts,
    noncolorable_subsets,
    to_dot,
    two_valued_states,
)
from .parity import (
    ObservableFactors,
    ParityError,
    ParityScenario,
    analyze as parity_analyze,
    observable_text,
)
from .pauli import parse_pauli, realization
from .pencil import (
    DEFAULT_MAX_SNAP_NORM,
    Context,
    DegeneratePencilError,
    PencilError,
    UnresolvedSpectrumError,
    joint_context,
)

MODES = ("pencil", "parity", "hypergraph")
BUILTINS = {
    "pm-square": "pm_square.scn",
    "ghzm": "ghzm.scn",
    "bipartite": "bipartite.scn",
    "intro-pair": "intro_pair.scn",
}
SITE_CAP = 10  # 2^N rays of length 2^N over N sites, printed densely: output grows as 4^N


class ScenarioError(ValueError):
    """A scenario that cannot be analyzed as written."""


class ScenarioParseError(ScenarioError):
    """Malformed scenario text, with a 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario: site count, analysis mode, observable groups."""

    site_count: int
    mode: str
    groups: tuple[tuple[ObservableFactors, ...], ...]


def parse_scenario(text: bytes | str) -> ScenarioFile:
    """Parse the line-oriented scenario grammar; all errors carry line numbers."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8-sig")  # a leading byte-order mark is dropped
        except UnicodeDecodeError as e:
            raise ScenarioError(f"not UTF-8 text: {e}") from None
    text = text.removeprefix("\ufeff")
    site_count: int | None = None
    mode: str | None = None
    groups: list[list[ObservableFactors]] = []
    open_group_line: int | None = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "sites":
            if site_count is not None:
                raise ScenarioParseError(ln, "duplicate sites declaration")
            parts = line.split()
            count = parts[1] if len(parts) == 2 and parts[1].isascii() else ""
            if not count.isdigit() or not 1 <= int(count) <= SITE_CAP:
                raise ScenarioParseError(ln, f"expected 'sites N' with 1 <= N <= {SITE_CAP}")
            site_count = int(count)
        elif head == "mode":
            if mode is not None:
                raise ScenarioParseError(ln, "duplicate mode declaration")
            parts = line.split()
            if len(parts) != 2 or parts[1] not in MODES:
                raise ScenarioParseError(ln, f"expected 'mode {{{'|'.join(MODES)}}}'")
            mode = parts[1]
        elif head == "group":
            if line != "group":
                raise ScenarioParseError(ln, "a group line takes no arguments")
            if open_group_line is not None and not groups[-1]:
                raise ScenarioParseError(open_group_line, "empty group")
            groups.append([])
            open_group_line = ln
        else:
            if site_count is None:
                raise ScenarioParseError(ln, "missing 'sites N' declaration")
            if open_group_line is None:
                raise ScenarioParseError(ln, "observable line outside any group")
            groups[-1].append(_parse_observable(line, ln, site_count))

    if site_count is None:
        raise ScenarioParseError(1, "missing 'sites N' declaration")
    if open_group_line is not None and not groups[-1]:
        raise ScenarioParseError(open_group_line, "empty group")
    if not groups:
        raise ScenarioParseError(1, "no groups declared")
    return ScenarioFile(site_count, mode or "pencil", tuple(tuple(g) for g in groups))


def _parse_observable(line: str, ln: int, site_count: int) -> ObservableFactors:
    """An optional phase prefix, then ``*``-separated words, e.g. ``-1 ZX*XZ``."""
    prefix, _, product = line.rpartition(" ")
    first, *rest = product.split("*")
    try:
        return (
            parse_pauli(f"{prefix} {first}", site_count),
            *(parse_pauli(word, site_count) for word in rest),
        )
    except ValueError as e:
        raise ScenarioParseError(ln, str(e)) from None


def format_scenario(s: ScenarioFile) -> str:
    """Canonical text form; ``parse_scenario`` round-trips it."""
    lines = [f"sites {s.site_count}", f"mode {s.mode}"]
    for group in s.groups:
        lines.append("group")
        lines.extend(observable_text(factors) for factors in group)
    return "\n".join(lines) + "\n"


def load_builtin(name: str) -> ScenarioFile:
    path = resources.files("qpencil").joinpath("scenarios", BUILTINS[name])
    return parse_scenario(path.read_bytes())


# ---------------------------------------------------------------------------
# One pipeline for every mode: a JSON-able report dict the text renderer walks.


def _solve_groups(
    s: ScenarioFile, coeffs: Sequence[int] | None, max_snap_norm: int = DEFAULT_MAX_SNAP_NORM
) -> list[tuple[ParityScenario, Context | dict[int, int]]]:
    """Validate and solve each group in order; a degenerate group keeps its counts."""
    solved = []
    for group in s.groups:
        try:
            scenario = ParityScenario(group, s.site_count)
        except ValueError as e:  # a non-Hermitian or non-commuting observable
            raise ScenarioError(str(e)) from None
        if coeffs is not None and len(coeffs) != len(group):
            raise _UsageError(
                f"--coeffs has {len(coeffs)} entries but the group has {len(group)} terms"
            )
        matrices = [realization(w) for w in scenario.composed()]
        try:
            ctx = joint_context(matrices, coeffs, max_snap_norm=max_snap_norm)
        except (UnresolvedSpectrumError, OverflowError) as e:
            # Pauli words have an integer spectrum, here beyond float64's integers or range
            reason = "the pencil overflows float64" if isinstance(e, OverflowError) else e
            raise _UsageError(f"coefficients beyond the float stage's resolution: {reason}")
        except DegeneratePencilError as e:
            ctx = e.multiplicities
        solved.append((scenario, ctx))
    return solved


def _completion(contexts: list[Context | dict[int, int]]) -> ContextHypergraph:
    """The completion of the contexts' ray union; every group must define a context."""
    for n, ctx in enumerate(contexts, start=1):
        if not isinstance(ctx, Context):
            raise ScenarioError(f"group {n} has a degenerate pencil and defines no context")
    return ContextHypergraph.completion_of([r for ctx in contexts for r in ctx.rays])


def scenario_hypergraph(
    s: ScenarioFile, coeffs=None, max_snap_norm: int = DEFAULT_MAX_SNAP_NORM
) -> tuple[ContextHypergraph, list[Context]]:
    """Contexts of every group, then the completion of their ray union."""
    solved = _solve_groups(s, coeffs, max_snap_norm)
    contexts = [ctx for _, ctx in solved]
    return _completion(contexts), contexts


def _parity_keys(scenario: ParityScenario, ctx: Context | dict[int, int]) -> dict:
    try:
        keys = {"parity": parity_analyze(scenario).to_json()}
    except ParityError as e:
        keys = {"parity": {"skipped": str(e)}}
    if isinstance(ctx, Context):
        # the rays are one certified basis: its states each pick one ray, so
        # there are d of them and they separate every pair of rays
        keys["states"] = {"count": len(ctx.rays), "separating": True}
        keys["eigenstate_table"] = [list(row) for row in ctx.eigentable]
    return keys


def _hypergraph_keys(site_count: int, contexts: list[Context]) -> dict:
    h = _completion(contexts)
    index = {ray: i for i, ray in enumerate(h.vertices)}
    primary = sorted(
        h.edges.index(tuple(sorted(index[r] for r in ctx.rays))) for ctx in contexts
    )
    classification = classify_contexts(h, (2,) * site_count)
    return {
        "hypergraph": h.to_json(),
        "primary_edges": primary,
        "two_valued_states": len(two_valued_states(h)),
        "classification": classification.counts(),
        "separable_edges": list(classification.separable_edges),
        "entangled_edges": list(classification.entangled_edges),
        "mixed_edges": list(classification.mixed_edges),
    }


def run_scenario(s: ScenarioFile, coeffs: Sequence[int] | None = None) -> dict:
    """Each group's context or degenerate spectrum, plus per-group parity keys
    in parity mode and the hypergraph keys in hypergraph mode."""
    solved = _solve_groups(s, coeffs)
    groups = []
    for scenario, ctx in solved:
        if isinstance(ctx, Context):
            result = {"kind": "context", **ctx.to_json()}
        else:
            result = {"kind": "degenerate", "multiplicities": {str(k): v for k, v in ctx.items()}}
        entry = {
            "observables": [observable_text(o) for o in scenario.observables],
            "result": result,
        }
        if s.mode == "parity":
            entry.update(_parity_keys(scenario, ctx))
        groups.append(entry)
    report = {"mode": s.mode, "sites": s.site_count, "groups": groups}
    if s.mode == "hypergraph":
        report.update(_hypergraph_keys(s.site_count, [ctx for _, ctx in solved]))
    return report


# ---------------------------------------------------------------------------
# Text rendering.


def _ray_text(ray_json) -> str:
    return "(" + ", ".join(
        f"{c[0]}{c[1]:+d}i" if isinstance(c, list) else str(c) for c in ray_json
    ) + ")"


def _render_context_table(result: dict, texts: list[str], observables: list[str], out: list[str]):
    if result["kind"] == "degenerate":
        desc = ", ".join(
            f"{lam} (x{mult})" for lam, mult in result["multiplicities"].items()
        )
        out.append(f"  degenerate pencil spectrum: {desc}")
        return
    ray_width = max(len("ray"), max(len(t) for t in texts))
    widths = [max(len(o), 2) for o in observables]
    header = f"  {'eigenvalue':>10}  {'ray':<{ray_width}}  " + "  ".join(
        f"{o:>{w}}" for o, w in zip(observables, widths)
    )
    out.append(header)
    for lam, text, signs in zip(
        result["pencil_eigenvalues"], texts, result["eigentable"]
    ):
        out.append(
            f"  {lam:>10}  {text:<{ray_width}}  "
            + "  ".join(f"{v:>+{w}d}" for v, w in zip(signs, widths))
        )


def render_text(report: dict) -> str:
    out: list[str] = []
    mode = report["mode"]
    out.append(f"mode: {mode} | sites: {report['sites']}")
    for gi, group in enumerate(report["groups"], start=1):
        out.append(f"group {gi}: " + ", ".join(group["observables"]))
        texts = [_ray_text(r) for r in group["result"].get("rays", ())]  # for both tables
        _render_context_table(group["result"], texts, group["observables"], out)
        if "parity" in group:
            p = group["parity"]
            if "skipped" in p:
                out.append(f"  parity argument skipped: {p['skipped']}")
            else:
                counts = ", ".join(f"{k}:{v}" for k, v in p["parity"].items())
                out.append(f"  occurrences per (site:letter): {counts}")
                verdict = "CONTRADICTION" if p["contradiction"] else "consistent"
                out.append(
                    f"  quantum product {p['quantum']:+d} vs classical forced "
                    f"product {p['classical']:+d} -> {verdict}"
                )
        if "states" in group:  # written together with "eigenstate_table"
            out.append(f"  two-valued states: {group['states']['count']} (separating)")
            out.append("  co-measured values per ray:")
            width = max(map(len, texts))
            for text, row in zip(texts, group["eigenstate_table"]):
                vals = "  ".join(f"{v:>+4d}" for v in row)
                out.append(
                    f"    {text:<{width}}  {vals}   "
                    f"(row product {math.prod(row):+d})"
                )
    if "hypergraph" in report:
        h = report["hypergraph"]
        out.append(
            f"hypergraph: {len(h['vertices'])} rays in {len(h['edges'])} contexts "
            f"(dim {h['dim']})"
        )
        out.append(f"primary context edges: {report['primary_edges']}")
        out.append(f"two-valued states: {report['two_valued_states']}")
        c = report["classification"]
        out.append(
            f"separable rays: {c['separable_vertices']} | entangled rays: "
            f"{c['entangled_vertices']}"
        )
        out.append(
            f"all-separable contexts: {c['separable_edges']} | all-entangled "
            f"contexts: {c['entangled_edges']} | mixed contexts: {c['mixed_edges']}"
        )
    return "\n".join(out) + "\n"


def render_subsets_text(report: dict) -> str:
    out = [
        f"swept {report['swept']} nonempty context sub-collections "
        f"of {report['edges']} contexts",
        f"no-state sub-collections: {report['total_no_state']}",
        f"critical (minimal no-state) sub-collections: {report['critical_count']}",
    ]
    for shape in report["critical_shapes"]:
        out.append(
            f"  {shape['contexts']} contexts / {shape['rays']} rays: "
            f"{shape['count']}"
        )
    if "critical" in report:
        for edges in report["critical"]:
            out.append("  critical: contexts " + ",".join(map(str, edges)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Command wiring.


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _add_common(p: argparse.ArgumentParser, formats=("text", "json", "dot")):
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", metavar="PATH", help="write output to a file")
    p.add_argument(
        "--coeffs",
        metavar="a,b,c",
        help="pencil coefficients (default: binary weights 1,2,4,...)",
    )


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="qpencil", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in BUILTINS:
        p = sub.add_parser(name, help=f"run the built-in {name} scenario")
        _add_common(p)
    p = sub.add_parser("analyze", help="run a scenario file")
    p.add_argument("--file", required=True, metavar="F")
    _add_common(p)
    p = sub.add_parser(
        "subsets", help="sweep context sub-collections for no-state configurations"
    )
    p.add_argument("--file", metavar="F", help="scenario file (default: pm-square)")
    p.add_argument("--critical", action="store_true", help="list critical collections")
    _add_common(p, formats=("text", "json"))
    p = sub.add_parser("export", help="export a scenario's context hypergraph")
    p.add_argument("--file", metavar="F", help="scenario file (default: pm-square)")
    _add_common(p, formats=("json", "dot"))
    return parser


def _parse_coeffs(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:  # int() of a string also refuses more than 4,300 digits
        signless = [x[1:] if x[:1] in ("+", "-") else x for x in map(str.strip, text.split(","))]
        if all(x.isdecimal() for x in signless):  # not isdigit, which "²" passes
            raise _UsageError("coefficients beyond the float stage's resolution: "
                              f"a {max(map(len, signless))}-digit coefficient overflows float64")
        raise _UsageError(f"--coeffs expects integers, got {text!r}")


def _load_scenario(args) -> ScenarioFile:
    if getattr(args, "file", None):
        with open(args.file, "rb") as fh:
            return parse_scenario(fh.read())
    return load_builtin(args.command if args.command in BUILTINS else "pm-square")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        coeffs = _parse_coeffs(args.coeffs)
        scenario = _load_scenario(args)

        if args.command == "subsets":
            h, _ = scenario_hypergraph(scenario, coeffs)
            try:
                result = noncolorable_subsets(h)
            except ValueError as e:  # over the sweep's edge or vertex cap
                raise _UsageError(str(e)) from None
            report = {
                "command": "subsets",
                "edges": len(h.edges),
                "swept": (1 << len(h.edges)) - 1,
                "total_no_state": result.total,
                "critical_count": len(result.critical),
                "critical_shapes": [
                    {"contexts": ec, "rays": vc, "count": n}
                    for (ec, vc), n in result.critical_shapes(h).items()
                ],
            }
            if args.critical:
                report["critical"] = [list(e) for e in result.critical]
            render = render_subsets_text
        elif args.command == "export" or args.format == "dot":
            h, _ = scenario_hypergraph(scenario, coeffs)
            report, render = (h.to_json() if args.format == "json" else h), to_dot
        else:
            report = run_scenario(scenario, coeffs)
            render = render_text
        text = json.dumps(report, indent=2) + "\n" if args.format == "json" else render(report)
        _emit(text, args.out)
        return 0

    except (_UsageError, OSError) as e:
        print(f"qpencil: error: {e}", file=sys.stderr)
        return 1
    except ScenarioError as e:
        print(f"qpencil: scenario error: {e}", file=sys.stderr)
        return 1
    except (PencilError, ValueError, ArithmeticError) as e:
        print(f"qpencil: verification failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
