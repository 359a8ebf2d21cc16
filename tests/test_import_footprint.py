"""The serving path loads only the modules it runs.

``scipy.stats`` (EI's pdf, reporting's t quantile), ``networkx`` (no
longer used) and ``scipy.linalg`` (the exact GP, a test reference) are
large, and a replay that never calls them should not pay their memory.
The check runs in a fresh interpreter, so modules this pytest session
has already imported cannot hide an eager import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

UNUSED_BY_SERVING = ("scipy.stats", "networkx", "scipy.linalg")

_CHILD = """
import sys

import repro
from repro import Smartpick, SmartpickProperties
from repro.core.serving import ServingSimulator
from repro.workloads import get_query
from repro.workloads.trace import PoissonTraceGenerator

system = Smartpick(
    SmartpickProperties(error_difference_trigger=1e9),
    max_vm=8, max_sl=8, rng=43,
)
query = get_query("tpcds-q82")
system.bootstrap([query], n_configs_per_query=8, min_workers=3)
trace = PoissonTraceGenerator(
    query_mix={"tpcds-q82": 1.0}, rate_per_minute=6.0, rng=7,
).generate(duration_minutes=3.0)
report = ServingSimulator(
    system, submission="vector", decision_reuse=True,
).replay(trace)
assert report.n_queries > 0
request = system.mfe.build_request(query, system.predictor).request
system.predictor.determine(request, knob=0.3)
print(" ".join(name for name in sys.argv[1:] if name in sys.modules) or "-")
"""


def test_replay_and_determine_skip_unused_modules():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *UNUSED_BY_SERVING],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split()[-1] == "-", (
        f"serving loaded {child.stdout.strip()}"
    )
