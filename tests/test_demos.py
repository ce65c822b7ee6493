"""Every demo script runs to completion, and the README quickstart shows
the values it computes."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_quickstart_values():
    # each `expr  # literal` line of the block documents the value of expr
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        documented = re.fullmatch(r"([^#\s].*?)\s+#\s*(.+)", line)
        if documented:
            expr, literal = documented.groups()
            assert eval(expr, namespace) == ast.literal_eval(literal), line
            checked += 1
    assert checked, "the quickstart documents no value"
