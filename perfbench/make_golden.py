"""Regenerate the golden outputs the benchmark compares against.

Writes the JSON and text CLI output of every built-in scenario and the
critical collections of the 20-context subset sweep into ``golden/``. Run
it only on a commit whose output is known to be right:

    python3 perfbench/make_golden.py
"""

import json

import workloads


def main():
    for name in workloads.cli.BUILTINS:
        for fmt in workloads.SCENARIO_FORMATS:
            code, text = workloads.run_cli([name, "--format", fmt])
            if code != 0:
                raise SystemExit(f"qpencil {name} --format {fmt} exited with {code}")
            workloads.golden_path(name, fmt).write_bytes(text.encode("utf-8"))
    h = workloads.sweep_hypergraph()
    result = workloads.logic.noncolorable_subsets(h, jobs=workloads.SWEEP_JOBS)
    data = {
        "edges": len(h.edges),
        "total": result.total,
        "critical": [list(c) for c in result.critical],
    }
    workloads.SWEEP_GOLDEN.write_text(json.dumps(data) + "\n")


if __name__ == "__main__":
    main()
