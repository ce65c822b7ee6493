"""Print one set-up time, measured in this fresh interpreter.

``python3 perfbench/setup_probe.py WORKLOAD SEED`` times a workload's
set-up: the import of qpencil plus the workload's input loading and
generation. ``python3 perfbench/setup_probe.py --reference`` times a fixed
set of standard-library imports instead, the yardstick ``run.py`` divides
the set-up time by.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

if sys.argv[1] == "--reference":
    import argparse, dataclasses, decimal, email.parser, fractions, http.client  # noqa: E401,F401
    import json, random, typing, unittest  # noqa: E401,F401
else:
    import workloads

    workloads.make(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - _START)
