"""Shared fixtures and helpers for the benchmark harness.

Every bench reproduces one table or figure of the paper's evaluation and
prints the same rows/series the paper reports.  The expensive parts --
bootstrapped Smartpick systems in all four flavours (AWS/GCP x with/without
relay) -- are trained once per session, exactly like Section 6.1
describes: 20 random configurations for each of the five representational
TPC-DS queries, burst-augmented ~10x to 1000 samples.  Every test gets its
own copy of the freshly bootstrapped system, so a bench's verdict does not
depend on the benches that ran before it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import Smartpick, SmartpickProperties
from repro.core.predictor import PredictionRequest
from repro.workloads import get_query
from repro.workloads.tpcds import TPCDS_TRAINING_QUERY_IDS

TRAINING_IDS = TPCDS_TRAINING_QUERY_IDS
N_RUNS = 10  # "All experimental results are an average of 10 runs."


def build_system(provider: str, relay: bool, seed: int) -> Smartpick:
    """Bootstrap one Smartpick flavour on the five training queries."""
    system = Smartpick(
        SmartpickProperties(provider=provider, relay=relay),
        max_vm=12,
        max_sl=12,
        rng=seed,
    )
    system.bootstrap(
        [get_query(query_id) for query_id in TRAINING_IDS],
        n_configs_per_query=20,
    )
    return system


@pytest.fixture(scope="session")
def _bootstrapped() -> dict[tuple[str, bool], bytes]:
    """Each flavour's freshly bootstrapped system, pickled once per session."""
    return {}


def _fresh_system(
    cache: dict[tuple[str, bool], bytes], provider: str, relay: bool, seed: int
) -> Smartpick:
    """A copy of the flavour as it stood right after bootstrap.

    Submissions grow a system's History Server and advance its logical
    epoch, so a shared instance would make every bench's numbers depend
    on which benches ran before it in the session.
    """
    key = (provider, relay)
    if key not in cache:
        cache[key] = pickle.dumps(
            build_system(provider, relay, seed), pickle.HIGHEST_PROTOCOL
        )
    return pickle.loads(cache[key])


@pytest.fixture
def aws_relay(_bootstrapped) -> Smartpick:
    """Smartpick-r on the simulated AWS."""
    return _fresh_system(_bootstrapped, "AWS", relay=True, seed=101)


@pytest.fixture
def aws_norelay(_bootstrapped) -> Smartpick:
    """Smartpick (no relay) on the simulated AWS."""
    return _fresh_system(_bootstrapped, "AWS", relay=False, seed=102)


@pytest.fixture
def gcp_relay(_bootstrapped) -> Smartpick:
    """Smartpick-r on the simulated GCP."""
    return _fresh_system(_bootstrapped, "GCP", relay=True, seed=103)


@pytest.fixture
def gcp_norelay(_bootstrapped) -> Smartpick:
    """Smartpick (no relay) on the simulated GCP."""
    return _fresh_system(_bootstrapped, "GCP", relay=False, seed=104)


def repeat_submissions(
    system: Smartpick,
    query_id: str,
    n_runs: int = N_RUNS,
    knob: float | None = None,
    mode: str = "hybrid",
):
    """Submit a query ``n_runs`` times; returns (times, costs, outcomes)."""
    times, costs, outcomes = [], [], []
    for _ in range(n_runs):
        outcome = system.submit(get_query(query_id), knob=knob, mode=mode)
        times.append(outcome.actual_seconds)
        costs.append(outcome.result.cost_cents)
        outcomes.append(outcome)
    return np.array(times), np.array(costs), outcomes


def request_for(system: Smartpick, query_id: str) -> PredictionRequest:
    """The WP inputs for a query under a given system."""
    return system.mfe.build_request(
        get_query(query_id), system.predictor
    ).request


def banner(text: str) -> None:
    """Print a section banner so bench output reads like the paper."""
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)
