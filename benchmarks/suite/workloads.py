"""The suite's three replay workloads, each built from one seed.

Every workload is an offline batch replay of a generated multi-tenant
trace through :meth:`ServingSimulator.replay_multi`.  Simulated arrivals
follow the trace schedule however far the simulated pool falls behind
(an open loop), so a simulated backlog may grow; the wall-clock
measurement is the replay's throughput at the stated trace size.

- ``scale-replay``: the million-arrival production path at a fixed size
  (columnar drain, vector submission, streaming report, class-level
  decision reuse, a wide VM-only pool).  Leasing, plan execution and
  stream reporting do nearly all the work and decisions are reuse hits,
  so pool, engine and report changes show here and decision changes
  should not.
- ``fresh-decision``: the same generator, but reuse is off, so every
  arrival is sized alone through the paper's RF+BO path on an
  uncontended pool.  Decisions take nearly all of the wall time, so
  decision and ``ml`` changes show here and pool changes should not.
- ``contended-mt``: four tenants (two interactive with SLOs, two batch
  with quotas) on two small shards under moderate chaos, deadline-aware
  grants with preemption, quota-priced sizing, retries, predictive
  keep-alive and seasonal epoch planning.  Every period's burst
  overloads the shards, so grants queue and quotas defer, steal, revoke
  and retry; the leasing layer's queue path and the planning and fault
  layers work here while the other workloads bypass them.

The seed drives the workload's inputs and chance: the trace, the fault
plan, and the system's generator during the replay (task-duration noise
and the optimizer's draws).  The Smartpick model itself is bootstrapped
from a fixed seed, as a deployment serves with one trained model: with
the tiny bootstrap sample each seed would otherwise train a different
model, sizing every query differently and moving the load (and so every
measurement) more than any input does.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from typing import Callable

import numpy as np

from repro import Smartpick, SmartpickProperties
from repro.cloud.pool import (
    DeadlineAwareGrant,
    FixedKeepAlive,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core.epochs import (
    EpochForecaster,
    FleetPlanner,
    ForecastAwareRouter,
)
from repro.core.forecast import PredictiveKeepAlive
from repro.core.predictor import PredictionRequest
from repro.core.serving import ServingSimulator
from repro.engine.runner import RetryPolicy
from repro.workloads import get_query
from repro.workloads.synthetic import (
    make_chaos_plan,
    make_epoch_trace,
    make_scale_trace,
)

__all__ = ["WORKLOADS", "Prepared", "derive_seeds", "prepare"]

#: Short single-stage classes weighted toward the smallest: per-arrival
#: engine overhead, not query runtime, bounds replay throughput.
SHORT_CLASSES = (
    "uniform-1x1s",
    "uniform-2x1s",
    "uniform-2x2s",
    "uniform-4x1s",
)
SHORT_WEIGHTS = (4.0, 3.0, 2.0, 1.0)
#: Wider classes for the contended pool: enough workers per query that
#: each period's burst saturates two small shards.
WIDE_CLASSES = (
    "uniform-2x1s",
    "uniform-4x1s",
    "uniform-4x2s",
    "uniform-8x1s",
)
INPUT_GB_OCTAVES = (8.0, 16.0, 32.0)
#: Eq. 4 cost knob: short queries gain nothing from extra workers, so
#: the knob settles on small cheap configurations, the realistic
#: operating point for an interactive population.
KNOB = 0.3
#: Seed of the bootstrap that trains the served model.
MODEL_SEED = 1207

#: contended-mt's seasonal shape: one burst per period, the planner
#: closing four epochs per period and forecasting one period back.
PERIOD_S = 600.0
ARRIVALS_PER_PERIOD = 400
EPOCHS_PER_PERIOD = 4
#: contended-mt's tenants and their shares of the arrivals.
TENANT_SHARES = {
    "tenant-00": 0.2,
    "tenant-01": 0.2,
    "tenant-02": 0.3,
    "tenant-03": 0.3,
}

#: ServingSimulator keywords that a later refactor may delete (one
#: replay path); they are passed only while the constructor has them.
#: Every other keyword is required, so a missing one fails loudly.
_OPTIONAL_KWARGS = {"engine": "columnar", "submission": "vector"}


def derive_seeds(seed: int) -> dict[str, int]:
    """Independent trace, replay and fault-plan seeds from one seed."""
    trace, replay, fault = np.random.SeedSequence(seed).generate_state(3)
    return {"trace": int(trace), "replay": int(replay), "fault": int(fault)}


def _scale_trace(seed: int, n_arrivals: int) -> list:
    return make_scale_trace(
        n_arrivals,
        query_classes=SHORT_CLASSES,
        class_weights=SHORT_WEIGHTS,
        input_gb_octaves=INPUT_GB_OCTAVES,
        rng=seed,
    )


def _seasonal_trace(seed: int, n_arrivals: int) -> list:
    """Per-tenant seasonal traces whose bursts coincide every period."""
    n_periods = max(round(n_arrivals / ARRIVALS_PER_PERIOD), 1)
    tenant_seeds = np.random.SeedSequence(seed).generate_state(
        len(TENANT_SHARES)
    )
    return [
        (
            tenant,
            make_epoch_trace(
                max(round(n_arrivals * share), 1),
                period_s=PERIOD_S,
                n_periods=n_periods,
                query_classes=WIDE_CLASSES,
                input_gb_octaves=INPUT_GB_OCTAVES,
                rng=int(tenant_seed),
            ),
        )
        for (tenant, share), tenant_seed in zip(
            TENANT_SHARES.items(), tenant_seeds
        )
    ]


def _scale_kwargs(seeds: dict) -> dict:
    return {
        "slo_seconds": 300.0,
        "pool_config": PoolConfig(max_vms=4096, max_sls=0),
        "autoscaler": FixedKeepAlive(30.0, 7.5),
        "keep_queries": False,
    }


def _fresh_kwargs(seeds: dict) -> dict:
    return {
        "slo_seconds": 300.0,
        "pool_config": PoolConfig(max_vms=4096, max_sls=4096),
        "keep_queries": False,
        "decision_reuse": False,
    }


def _contended_kwargs(seeds: dict) -> dict:
    planner = FleetPlanner(
        epoch_s=PERIOD_S / EPOCHS_PER_PERIOD,
        forecaster=EpochForecaster(season_length=EPOCHS_PER_PERIOD),
    )
    return {
        "slo_seconds": 300.0,
        "shards": {
            "a": PoolConfig(max_vms=24, max_sls=48),
            "b": PoolConfig(max_vms=24, max_sls=48),
        },
        "tenants": TenantRegistry([
            TenantSpec("tenant-00", slo_latency_s=120.0, tier="interactive"),
            TenantSpec("tenant-01", slo_latency_s=180.0, tier="interactive"),
            TenantSpec("tenant-02", max_leased_vms=24, tier="batch"),
            TenantSpec(
                "tenant-03", max_leased_vms=24, max_leased_sls=48,
                tier="batch",
            ),
        ]),
        "grant_policy": DeadlineAwareGrant(
            preempt=True, preempt_slack_s=150.0
        ),
        "quota_priced_sizing": True,
        "fault_plan": make_chaos_plan("moderate", seed=seeds["fault"]),
        # A budget the moderate chaos never exhausts: every arrival
        # completes, so no seed reports failed work.
        "retry_policy": RetryPolicy(8, backoff_base_s=3.0),
        "autoscaler": PredictiveKeepAlive(headroom=3.0),
        "planner": planner,
        "router": ForecastAwareRouter(planner),
        "batch_window_s": 2.0,
        "keep_queries": False,
    }


@dataclasses.dataclass(frozen=True)
class Workload:
    arrivals: int
    classes: tuple[str, ...]
    mode: str
    make_trace: Callable[[int, int], list]
    make_kwargs: Callable[[dict], dict]


#: Each size keeps one replay at about two seconds on a 2-vCPU x86
#: host, so a measured run holds several repeats.
WORKLOAD_SPECS = {
    "scale-replay": Workload(
        15_000, SHORT_CLASSES, "vm-only", _scale_trace, _scale_kwargs
    ),
    "fresh-decision": Workload(
        600, SHORT_CLASSES, "hybrid", _scale_trace, _fresh_kwargs
    ),
    "contended-mt": Workload(
        6_400, WIDE_CLASSES, "hybrid", _seasonal_trace, _contended_kwargs
    ),
}
WORKLOADS = tuple(WORKLOAD_SPECS)


@dataclasses.dataclass
class Prepared:
    """A built workload, ready for exactly one replay."""

    simulator: ServingSimulator
    pairs: list
    n_arrivals: int
    mode: str
    #: Keywords the simulator was actually built with (objects by type).
    applied: dict
    #: ``perf_counter_ns`` at set-up start and after trace generation,
    #: bootstrap and simulator construction.
    marks: tuple[int, int, int, int]

    def replay(self):
        return self.simulator.replay_multi(
            self.pairs, knob=KNOB, mode=self.mode
        )


def _system(
    query_classes: tuple[str, ...], mode: str, replay_seed: int
) -> Smartpick:
    """The served Smartpick: a fixed model, a per-seed generator.

    Retraining is damped (the suite measures serving, not model churn)
    and the history window keeps the History Server bounded.  One grid
    sizing during set-up builds the model's lazily compiled decision
    engine, which every later sizing call under this model reuses, so
    decision latency is measured in steady state and the one-off build
    counts as set-up.  Grid sizing draws no random numbers and its memo
    only ever returns what it would have computed, so the replay's
    outcomes are unchanged.
    """
    system = Smartpick(
        SmartpickProperties(
            provider="AWS",
            relay=True,
            error_difference_trigger=1e9,
            history_window=256,
        ),
        max_vm=8,
        max_sl=8,
        rng=MODEL_SEED,
    )
    system.bootstrap(
        [get_query(query_id, input_gb=16.0) for query_id in query_classes],
        n_configs_per_query=4,
    )
    system.predictor.determine_batch(
        [PredictionRequest(query_classes[0], 16.0, 0.0, 1.0)],
        knob=KNOB,
        mode=mode,
    )
    # Every component shares this generator, so reseeding it in place
    # gives the replay its own stream without retraining.
    system.rng.bit_generator.state = (
        np.random.default_rng(replay_seed).bit_generator.state
    )
    return system


def _simulator(
    system: Smartpick, kwargs: dict
) -> tuple[ServingSimulator, dict]:
    parameters = inspect.signature(ServingSimulator).parameters
    for name, value in _OPTIONAL_KWARGS.items():
        if name in parameters:
            kwargs[name] = value
    simulator = ServingSimulator(system, **kwargs)
    applied = {
        name: (
            value
            if value is None or isinstance(value, (bool, int, float, str))
            else type(value).__name__
        )
        for name, value in sorted(kwargs.items())
    }
    return simulator, applied


def prepare(name: str, seed: int, n_arrivals: int | None = None) -> Prepared:
    """Generate the trace, bootstrap the system and build the simulator,
    marking the time after each step (together they are the set-up)."""
    if name not in WORKLOAD_SPECS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    spec = WORKLOAD_SPECS[name]
    seeds = derive_seeds(seed)
    start = time.perf_counter_ns()
    pairs = spec.make_trace(seeds["trace"], n_arrivals or spec.arrivals)
    generated = time.perf_counter_ns()
    system = _system(spec.classes, spec.mode, seeds["replay"])
    bootstrapped = time.perf_counter_ns()
    simulator, applied = _simulator(system, spec.make_kwargs(seeds))
    built = time.perf_counter_ns()
    return Prepared(
        simulator=simulator,
        pairs=pairs,
        n_arrivals=sum(len(trace) for _, trace in pairs),
        mode=spec.mode,
        applied=applied,
        marks=(start, generated, bootstrapped, built),
    )
