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
import json
import sys
from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from typing import Sequence

from .logic import (
    ContextHypergraph,
    classify_contexts,
    is_separating,
    noncolorable_subsets,
    to_dot,
    two_valued_states,
)
from .parity import ParityError, ParityScenario, analyze as parity_analyze, eigenstate_table
from .pauli import PHASE_TEXT, PauliString, commutes, parse_pauli, realization, serial_product
from .pencil import (
    Context,
    DegeneratePencilError,
    PencilError,
    joint_context,
)

MODES = ("pencil", "parity", "hypergraph")
BUILTINS = {
    "pm-square": "pm_square.scn",
    "ghzm": "ghzm.scn",
    "bipartite": "bipartite.scn",
    "intro-pair": "intro_pair.scn",
}

Observable = tuple[PauliString, ...]


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
    groups: tuple[tuple[Observable, ...], ...]


def parse_scenario(text: bytes | str) -> ScenarioFile:
    """Parse the line-oriented scenario grammar; all errors carry line numbers."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    site_count: int | None = None
    mode: str | None = None
    groups: list[list[Observable]] = []
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
            if not count.isdigit() or int(count) < 1:
                raise ScenarioParseError(ln, "expected 'sites N' with N >= 1")
            site_count = int(count)
        elif head == "mode":
            if mode is not None:
                raise ScenarioParseError(ln, "duplicate mode declaration")
            parts = line.split()
            if len(parts) != 2 or parts[1] not in MODES:
                raise ScenarioParseError(
                    ln, f"expected 'mode {{{'|'.join(MODES)}}}'"
                )
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
    return ScenarioFile(
        site_count, mode or "pencil", tuple(tuple(g) for g in groups)
    )


def _parse_observable(line: str, ln: int, site_count: int) -> Observable:
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


def observable_text(factors: Observable) -> str:
    total_phase = sum(f.phase_power for f in factors) % 4
    body = "*".join("".join(f.letters) for f in factors)
    return (f"{PHASE_TEXT[total_phase]} " if total_phase else "") + body


def format_scenario(s: ScenarioFile) -> str:
    """Canonical text form; ``parse_scenario`` round-trips it."""
    lines = [f"sites {s.site_count}", f"mode {s.mode}"]
    for group in s.groups:
        lines.append("group")
        lines.extend(observable_text(factors) for factors in group)
    return "\n".join(lines) + "\n"


def load_builtin(name: str) -> ScenarioFile:
    data = (
        resources.files("qpencil").joinpath("scenarios", BUILTINS[name]).read_bytes()
    )
    return parse_scenario(data)


# ---------------------------------------------------------------------------
# Pipelines. Each produces a JSON-able report dict; the text renderer walks it.


def _compose(factors: Observable) -> PauliString:
    return serial_product(list(factors))


def _group_context(
    group: Sequence[Observable],
    coeffs: Sequence[int] | None,
    max_snap_norm: int,
) -> tuple[Context | None, dict]:
    """Run the pencil pipeline on a group; degeneracy is a reported outcome."""
    words = [_compose(obs) for obs in group]
    for (a, u), (b, v) in combinations(zip(group, words), 2):
        if not commutes(u, v):
            text = f"{observable_text(a)} and {observable_text(b)} do not commute"
            raise ScenarioError(text)
    matrices = [realization(w) for w in words]
    if coeffs is not None and len(coeffs) != len(words):
        raise _UsageError(
            f"--coeffs has {len(coeffs)} entries but the group has {len(words)} terms"
        )
    try:
        ctx = joint_context(matrices, coeffs, max_snap_norm=max_snap_norm)
    except DegeneratePencilError as e:
        return None, {
            "kind": "degenerate",
            "multiplicities": {str(k): v for k, v in e.multiplicities.items()},
        }
    return ctx, {"kind": "context", **ctx.to_json()}


def run_pencil(s: ScenarioFile, coeffs, max_snap_norm) -> dict:
    out_groups = []
    for group in s.groups:
        _, result = _group_context(group, coeffs, max_snap_norm)
        out_groups.append(
            {
                "observables": [observable_text(o) for o in group],
                "result": result,
            }
        )
    return {"mode": "pencil", "sites": s.site_count, "groups": out_groups}


def run_parity(s: ScenarioFile, coeffs, max_snap_norm) -> dict:
    out_groups = []
    for group in s.groups:
        entry: dict = {"observables": [observable_text(o) for o in group]}
        ctx, result = _group_context(group, coeffs, max_snap_norm)
        entry["result"] = result
        scenario = ParityScenario(tuple(group), s.site_count)
        try:
            report = parity_analyze(scenario)
            entry["parity"] = report.to_json()
        except ParityError as e:
            entry["parity"] = {"skipped": str(e)}
        if ctx is not None:
            h = ContextHypergraph.from_ray_groups([ctx.rays])
            states = two_valued_states(h)
            entry["states"] = {
                "count": len(states),
                "separating": is_separating(states, h),
            }
            entry["eigenstate_table"] = [
                list(row) for row in eigenstate_table(ctx, scenario)
            ]
        out_groups.append(entry)
    return {"mode": "parity", "sites": s.site_count, "groups": out_groups}


def scenario_hypergraph(
    s: ScenarioFile, coeffs, max_snap_norm
) -> tuple[ContextHypergraph, list[Context]]:
    """Contexts of every group, then the completion of their ray union."""
    contexts = []
    for gi, group in enumerate(s.groups):
        ctx, _ = _group_context(group, coeffs, max_snap_norm)
        if ctx is None:
            raise ScenarioError(
                f"group {gi + 1} has a degenerate pencil and defines no context"
            )
        contexts.append(ctx)
    rays = [r for ctx in contexts for r in ctx.rays]
    return ContextHypergraph.completion_of(rays), contexts


def run_hypergraph(s: ScenarioFile, coeffs, max_snap_norm) -> dict:
    h, contexts = scenario_hypergraph(s, coeffs, max_snap_norm)
    index = {ray: i for i, ray in enumerate(h.vertices)}
    primary = sorted(
        h.edges.index(tuple(sorted(index[r] for r in ctx.rays)))
        for ctx in contexts
    )
    states = two_valued_states(h)
    classification = classify_contexts(h, (2,) * s.site_count)
    out_groups = []
    for group, ctx in zip(s.groups, contexts):
        out_groups.append(
            {
                "observables": [observable_text(o) for o in group],
                "result": {"kind": "context", **ctx.to_json()},
            }
        )
    return {
        "mode": "hypergraph",
        "sites": s.site_count,
        "groups": out_groups,
        "hypergraph": h.to_json(),
        "primary_edges": primary,
        "two_valued_states": len(states),
        "classification": classification.counts(),
        "separable_edges": list(classification.separable_edges),
        "entangled_edges": list(classification.entangled_edges),
        "mixed_edges": list(classification.mixed_edges),
    }


def run_scenario(s: ScenarioFile, coeffs, max_snap_norm) -> dict:
    runner = {
        "pencil": run_pencil,
        "parity": run_parity,
        "hypergraph": run_hypergraph,
    }[s.mode]
    return runner(s, coeffs, max_snap_norm)


# ---------------------------------------------------------------------------
# Text rendering.


def _ray_text(ray_json) -> str:
    return "(" + ", ".join(
        f"{c[0]}{c[1]:+d}i" if isinstance(c, list) else str(c) for c in ray_json
    ) + ")"


def _sign(v: int) -> str:
    return f"{v:+d}"


def _render_context_table(result: dict, observables: list[str], out: list[str]):
    if result["kind"] == "degenerate":
        desc = ", ".join(
            f"{lam} (x{mult})" for lam, mult in result["multiplicities"].items()
        )
        out.append(f"  degenerate pencil spectrum: {desc}")
        return
    ray_texts = [_ray_text(r) for r in result["rays"]]
    ray_width = max(len("ray"), max(len(t) for t in ray_texts))
    widths = [max(len(o), 2) for o in observables]
    header = f"  {'eigenvalue':>10}  {'ray':<{ray_width}}  " + "  ".join(
        f"{o:>{w}}" for o, w in zip(observables, widths)
    )
    out.append(header)
    for lam, text, signs in zip(
        result["pencil_eigenvalues"], ray_texts, result["eigentable"]
    ):
        out.append(
            f"  {lam:>10}  {text:<{ray_width}}  "
            + "  ".join(f"{_sign(v):>{w}}" for v, w in zip(signs, widths))
        )


def render_text(report: dict) -> str:
    out: list[str] = []
    mode = report["mode"]
    out.append(f"mode: {mode} | sites: {report['sites']}")
    for gi, group in enumerate(report.get("groups", []), start=1):
        out.append(f"group {gi}: " + ", ".join(group["observables"]))
        _render_context_table(group["result"], group["observables"], out)
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
        if "states" in group:
            st = group["states"]
            sep = "separating" if st["separating"] else "not separating"
            out.append(f"  two-valued states: {st['count']} ({sep})")
        if "eigenstate_table" in group:
            out.append("  co-measured values per ray:")
            rays = group["result"].get("rays", [])
            width = max((len(_ray_text(r)) for r in rays), default=3)
            for ray, row in zip(rays, group["eigenstate_table"]):
                vals = "  ".join(f"{_sign(v):>4}" for v in row)
                prod = 1
                for v in row:
                    prod *= v
                out.append(
                    f"    {_ray_text(ray):<{width}}  {vals}   (row product {_sign(prod)})"
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


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser, formats=("text", "json", "dot")):
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", metavar="PATH", help="write output to a file")
    p.add_argument(
        "--coeffs",
        metavar="a,b,c",
        help="pencil coefficients (default: binary weights 1,2,4,...)",
    )
    p.add_argument(
        "--max-snap-norm",
        type=_positive_int,
        default=4,
        metavar="N",
        help="largest integer multiplier tried when snapping eigenvectors",
    )


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
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="K")
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
    except ValueError:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        coeffs = _parse_coeffs(args.coeffs)

        if args.command == "subsets":
            scenario = _load_scenario(args)
            h, _ = scenario_hypergraph(scenario, coeffs, args.max_snap_norm)
            try:
                result = noncolorable_subsets(h, jobs=args.jobs)
            except ValueError as e:  # the scenario is over the sweep's edge cap
                raise _UsageError(str(e)) from None
            shapes: dict[tuple[int, int], int] = {}
            for ec, vc in result.critical_shapes(h):
                shapes[(ec, vc)] = shapes.get((ec, vc), 0) + 1
            report = {
                "command": "subsets",
                "edges": len(h.edges),
                "swept": (1 << len(h.edges)) - 1,
                "total_no_state": result.total,
                "critical_count": len(result.critical),
                "critical_shapes": [
                    {"contexts": ec, "rays": vc, "count": n}
                    for (ec, vc), n in sorted(shapes.items())
                ],
            }
            if args.critical:
                report["critical"] = [list(e) for e in result.critical]
            text = (
                json.dumps(report, indent=2) + "\n"
                if args.format == "json"
                else render_subsets_text(report)
            )
            _emit(text, args.out)
            return 0

        if args.command == "export":
            scenario = _load_scenario(args)
            h, _ = scenario_hypergraph(scenario, coeffs, args.max_snap_norm)
            if args.format == "dot":
                text = to_dot(h)
            else:
                text = json.dumps(h.to_json(), indent=2) + "\n"
            _emit(text, args.out)
            return 0

        scenario = _load_scenario(args)
        if args.format == "dot":
            h, _ = scenario_hypergraph(scenario, coeffs, args.max_snap_norm)
            _emit(to_dot(h), args.out)
            return 0
        report = run_scenario(scenario, coeffs, args.max_snap_norm)
        text = (
            json.dumps(report, indent=2) + "\n"
            if args.format == "json"
            else render_text(report)
        )
        _emit(text, args.out)
        return 0

    except _UsageError as e:
        print(f"qpencil: error: {e}", file=sys.stderr)
        return 1
    except ScenarioError as e:
        print(f"qpencil: scenario error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"qpencil: error: {e}", file=sys.stderr)
        return 1
    except (PencilError, ParityError, ValueError, ArithmeticError) as e:
        print(f"qpencil: verification failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
