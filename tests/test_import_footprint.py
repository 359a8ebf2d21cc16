"""The serving path loads only the modules it runs.

``scipy.stats`` (EI's pdf, reporting's t quantile), ``networkx`` (no
longer used), ``scipy.linalg`` (the exact GP, a test reference) and
``scipy.special`` (``ndtr`` for the Python BO loop) are large, and a
replay that never calls them should not pay their memory:

- a vector replay loads no :mod:`scipy` module at all, on either engine;
- a solo ``determine`` loads none either when the kernel carries
  ``bo_search``, whose PI runs on the kernel's own ``ndtr``;
- without it (``REPRO_DISABLE_NATIVE=1``, or no ``libnpyrandom``),
  ``determine`` runs the Python loop and may load ``scipy.special``,
  but nothing ``import scipy.special`` does not load itself.

Each check runs in a fresh interpreter, so modules this pytest session
has already imported cannot hide an eager import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

UNUSED_BY_SERVING = ("scipy.stats", "networkx", "scipy.linalg")

#: Prints the top-level ``scipy`` and ``networkx`` modules a replay
#: loads, then those a solo ``determine`` adds, as JSON.
_CHILD = """
import json
import sys

def loaded():
    return {name for name in sys.modules
            if name.split(".")[0] in ("scipy", "networkx")}

import repro
from repro import Smartpick, SmartpickProperties
from repro.core.serving import ServingSimulator
from repro.ml import forest_native
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
replay = loaded()
request = system.mfe.build_request(query, system.predictor).request
system.predictor.determine(request, knob=0.3)
kernel = forest_native.load_kernel()
print(json.dumps({
    "native_search": kernel is not None and kernel.bo_search is not None,
    "replay": sorted(replay),
    "determine": sorted(loaded() - replay),
}))
"""


def _run(code: str, disable_native: bool) -> str:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    env.pop("REPRO_DISABLE_NATIVE", None)
    if disable_native:
        env["REPRO_DISABLE_NATIVE"] = "1"
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1]


def _special_alone() -> set[str]:
    """The modules ``import scipy.special`` loads by itself."""
    return set(json.loads(_run(
        "import json, sys, scipy.special\n"
        "print(json.dumps([n for n in sys.modules"
        " if n.split('.')[0] == 'scipy']))",
        disable_native=True,
    )))


@pytest.mark.parametrize("engine", ["native", "numpy"])
def test_replay_and_determine_skip_unused_modules(engine):
    loaded = json.loads(_run(_CHILD, disable_native=engine == "numpy"))
    assert loaded["replay"] == [], f"the replay loaded {loaded['replay']}"
    if engine == "numpy":
        assert not loaded["native_search"]
    determine = set(loaded["determine"])
    if loaded["native_search"]:
        assert not determine, f"determine loaded {sorted(determine)}"
    else:
        unexpected = determine - _special_alone()
        assert not unexpected, f"determine loaded {sorted(unexpected)}"
        assert not determine & set(UNUSED_BY_SERVING)
