# %%
# Scenario files and exports
# ==========================
#
# User-defined operator sets go through a small line-oriented format:
# ``sites N``, a ``mode`` (pencil, parity, or hypergraph), then ``group``
# blocks with one observable per line. ``*`` builds products whose factors
# stay visible to the classical letter-counting side.

from qpencil.cli import format_scenario, parse_scenario, run_scenario
from qpencil.logic import to_dot

text = """
sites 2
mode parity

group
ZX*XZ
XX*ZZ
"""

scenario = parse_scenario(text)
print("round-trips:", parse_scenario(format_scenario(scenario)) == scenario)

report = run_scenario(scenario, None, 4)
group = report["groups"][0]
print("pencil outcome:", group["result"]["kind"])
print("parity:", group["parity"])

# %%
# The same machinery powers the command line:
#
#   qpencil analyze --file my_scenario.scn --format json
#   qpencil pm-square --format dot --out square.dot
#   qpencil subsets --critical
#
# Graphviz export renders each context as a colored chain of rays.

from qpencil import ContextHypergraph, Ray

h = ContextHypergraph.from_ray_groups(
    [[Ray(v) for v in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))]]
)
print(to_dot(h))
