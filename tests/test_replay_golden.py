"""Golden digests of a small contended multi-tenant replay.

The replay exercises every queue path of the shared pool at once: two
small shards, per-tenant quotas, :class:`DeadlineAwareGrant` with
cooperative preemption, work stealing, moderate chaos with retries and
an epoch :class:`FleetPlanner`.  Each :class:`ServingReport` field is
hashed on its own -- per-query records, drops, pool counters, ledgers
and the stream's simulated aggregates -- so a failure names the field
that moved.  Host wall-clock timings (decision latency) are excluded;
everything hashed is simulated, so the digests must hold on the native
and the numpy-fallback inference engines alike.

The digests were produced before the pool's grant queue became
incremental (memoized candidate order, one enqueue/dequeue mutation
point); grant order and every quota-interval side effect must replay
bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.cloud.pool import (
    DeadlineAwareGrant,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core.epochs import EpochForecaster, FleetPlanner
from repro.core.forecast import PredictiveKeepAlive
from repro.core.serving import ServingSimulator
from repro.engine.runner import RetryPolicy
from repro.workloads.synthetic import make_chaos_plan, make_epoch_trace

from conftest import build_small_system

QUERIES = ("uniform-2x1s", "uniform-4x1s")
PERIOD_S = 600.0

#: :func:`report_digest` goldens of the serving scenarios in
#: ``test_scale_serving.py`` and ``test_serving_faults.py``, pinned on
#: the per-arrival event drain the columnar drain replaced (plus
#: instance-counter digests of the plan-runner fault test), keyed by
#: file section and scenario name.
DRAIN_GOLDENS: dict[str, dict] = json.loads(
    (pathlib.Path(__file__).parent / "drain_goldens.json").read_text()
)

#: Per-field SHA-256 digests of :func:`report_digest`, keyed by
#: ``(submission, decision_reuse)``.
GOLDEN_REPORT_DIGESTS: dict[tuple[str, bool], dict[str, str]] = {
    ("vector", True): {
        "served": (
            "cbfb0a7c8d0c75f2c2f5831336cbf9b303daea9bb5d0b2739ee532c05fef9a66"
        ),
        "slo_seconds": (
            "a970559125d5ccd0dbbbb7685636bbcae5ce7cac4e8d1c6954d2467616a9db8c"
        ),
        "pool_stats": (
            "bf79c08e2d6567144854552b3a7411cd0719b0df719950cab66018b539950233"
        ),
        "keepalive_cost_dollars": (
            "5a3bbf0778c3e3686a6b10c56dd15344183835a993d4572c60ba447ad54d098d"
        ),
        "keepalive_cost_by_shard": (
            "79652d68fcef4c28203180429ad1ca5409c922a04a0b17420c1768edd09fe98d"
        ),
        "tenant_weights": (
            "7c727732f460f6b94b048f31b14718e41b1e3a750b8741dfea719f635b44f605"
        ),
        "tenant_peaks": (
            "34c34eb6cee5e8863b8483f9210c0b31d20a195f24c9dec8fa000878f7ed56e6"
        ),
        "dropped": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "wasted_cost_dollars": (
            "22fe2c6316dcdf9656a4c3a70d3c8bc0bbbae9bb691deebf0922f0e1502cb982"
        ),
        "wasted_cost_by_shard": (
            "24db372a21026f21f27ae0176de9e731223b372a415cf9b8de0a84e959cb1858"
        ),
        "epochs_planned": (
            "4fc82b26aecb47d2868c4efbe3581732a3e7cbcc6c2efb32062c08170a05eeb8"
        ),
        "prewarm_cost_dollars": (
            "b4f3937bee1d1882a38414508b7acbc269c1feec09c261b7f92e1edea1795610"
        ),
        "tenant_in_flight_peaks": (
            "3cf9a2ba9890e4159f16f06011fcdaa28c8cdea58f82bfe5c5ca02b72824679e"
        ),
        "tenant_slos": (
            "1dceebf9d5a6a16dad1cb140acad2b86bfd129de59709c75ff0de45072636a5c"
        ),
        "stream": (
            "2078aee0c06ce8dc613cde9e918d6688f6e44e3a7fecad456a5a5fbcd11d8254"
        ),
    },
    ("object", False): {
        "served": (
            "b4de46852142d9ca3bcc3f4258969fbfa6f216e3443338f62b5df33c002d549e"
        ),
        "slo_seconds": (
            "a970559125d5ccd0dbbbb7685636bbcae5ce7cac4e8d1c6954d2467616a9db8c"
        ),
        "pool_stats": (
            "087a7d9002800f30eaef090c686e0cdecb2755d413763519e8ca84883261bc31"
        ),
        "keepalive_cost_dollars": (
            "e82a58bc702100c4f45a62eb77a092ada9827a822ebe97cfb08687ab3fbca6b2"
        ),
        "keepalive_cost_by_shard": (
            "1f03387f3736e8dd0ddd712a4739d2c2e0b87b4e03c397db0cf6e144aade4caf"
        ),
        "tenant_weights": (
            "7c727732f460f6b94b048f31b14718e41b1e3a750b8741dfea719f635b44f605"
        ),
        "tenant_peaks": (
            "d8812c751d3c867385f1c7e6a17aa7d6d3bf642e646c104ff06c8dd208a244b3"
        ),
        "dropped": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "wasted_cost_dollars": (
            "1d731b761e6b7363ee85cf210e4ca3579010b89552be182ee452b656f6fbe4ee"
        ),
        "wasted_cost_by_shard": (
            "43b63b50b1f5555d58913cd43265c56f85d1fa28f254453eb306fa0a7a89a8f5"
        ),
        "epochs_planned": (
            "4fc82b26aecb47d2868c4efbe3581732a3e7cbcc6c2efb32062c08170a05eeb8"
        ),
        "prewarm_cost_dollars": (
            "a0ae22a8c19bf0104645896b6de625e7763bbb22ec269cdd7bfb12b7d313b5ec"
        ),
        "tenant_in_flight_peaks": (
            "aaf6c05cd4679156d74e77360602a87a21a48208c7e9d6549a44121cd787fd23"
        ),
        "tenant_slos": (
            "1dceebf9d5a6a16dad1cb140acad2b86bfd129de59709c75ff0de45072636a5c"
        ),
        "stream": (
            "7ca280164042de92c6dfa1c56f155245487ff2bd8054f03dc1a8872fd13fe5c5"
        ),
    },
}


def contended_simulator(
    submission: str, decision_reuse: bool
) -> ServingSimulator:
    planner = FleetPlanner(
        epoch_s=PERIOD_S / 4, forecaster=EpochForecaster(season_length=4)
    )
    return ServingSimulator(
        build_small_system(
            seed=61, queries=QUERIES, error_difference_trigger=1e9
        ),
        slo_seconds=300.0,
        shards={
            "a": PoolConfig(max_vms=6, max_sls=10),
            "b": PoolConfig(max_vms=6, max_sls=10),
        },
        tenants=TenantRegistry([
            TenantSpec("tenant-00", slo_latency_s=90.0, tier="interactive"),
            TenantSpec("tenant-01", slo_latency_s=150.0, tier="interactive"),
            TenantSpec("tenant-02", max_leased_vms=5, tier="batch"),
            TenantSpec(
                "tenant-03", max_leased_vms=4, max_leased_sls=6, tier="batch"
            ),
        ]),
        grant_policy=DeadlineAwareGrant(preempt=True, preempt_slack_s=60.0),
        quota_priced_sizing=True,
        fault_plan=make_chaos_plan("moderate", seed=5),
        retry_policy=RetryPolicy(8, backoff_base_s=3.0),
        autoscaler=PredictiveKeepAlive(headroom=3.0),
        planner=planner,
        batch_window_s=2.0,
        submission=submission,
        decision_reuse=decision_reuse,
    )


def contended_traces() -> list:
    return [
        (
            tenant,
            make_epoch_trace(
                n,
                period_s=PERIOD_S,
                n_periods=3,
                query_classes=QUERIES,
                input_gb_octaves=(8.0, 16.0),
                rng=seed,
            ),
        )
        for tenant, n, seed in (
            ("tenant-00", 24, 1),
            ("tenant-01", 24, 2),
            ("tenant-02", 36, 3),
            ("tenant-03", 36, 4),
        )
    ]


def _served(query) -> tuple:
    result = query.outcome.result
    return (
        query.arrival_s,
        query.tenant,
        query.outcome.query_id,
        query.waiting_apps_at_submit,
        query.queueing_delay_s,
        query.decision_batch_size,
        query.batching_delay_s,
        query.admission_delay_s,
        query.quota_delay_s,
        query.n_retries,
        query.retry_delay_s,
        query.wasted_cost_dollars,
        query.outcome.decision.config,
        query.outcome.cost_dollars,
        query.outcome.actual_seconds,
        result.n_vm,
        result.n_sl,
        result.completion_seconds,
        result.warm_acquisitions,
        result.cold_acquisitions,
        query.latency_s,
    )


def _stream(stream) -> tuple:
    """The stream's simulated aggregates (decision timings excluded)."""
    sketches = (
        stream.latency, stream.queueing, stream.admission,
        stream.quota_throttle,
    )
    return (
        stream.n, stream.n_slo_hits, stream.n_batched, stream.n_aliens,
        stream.n_retrains, stream.n_failed, stream.n_shed, stream.n_retries,
        stream.query_cost.value, stream.wasted_cost.value,
        tuple(
            sketch.percentile(q) if sketch.count else None
            for sketch in sketches
            for q in (0, 50, 90, 99, 100)
        ),
        tuple(
            (tenant, _stream(sub))
            for tenant, sub in (stream.tenant_streams or {}).items()
        ),
    )


def report_digest(report) -> dict[str, str]:
    """SHA-256 of each report field's simulated content."""
    projections = {
        "served": lambda served: [_served(query) for query in served],
        "dropped": lambda dropped: [
            dataclasses.astuple(drop) for drop in dropped
        ],
        "pool_stats": dataclasses.astuple,
        "stream": _stream,
    }
    digests = {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        project = projections.get(field.name)
        if project is None:
            content = sorted(value.items()) if isinstance(value, dict) else value
        else:
            content = project(value)
        digests[field.name] = hashlib.sha256(
            repr(content).encode()
        ).hexdigest()
    return digests


@pytest.mark.parametrize(
    "submission, decision_reuse",
    [
        pytest.param("vector", True, id="columnar-vector"),
        pytest.param("object", False, id="columnar-object"),
    ],
)
def test_contended_replay_matches_golden(submission, decision_reuse):
    report = contended_simulator(submission, decision_reuse).replay_multi(
        contended_traces()
    )
    stats = report.pool_stats
    # The scenario must keep exercising the paths the digest pins.
    assert stats.leases_queued > 0
    assert stats.quota_deferrals > 0
    assert stats.work_steals > 0
    assert stats.leases_revoked > 0
    assert report.epochs_planned > 0
    if submission == "object":
        assert stats.coop_preemptions > 0
    assert (
        report_digest(report)
        == GOLDEN_REPORT_DIGESTS[submission, decision_reuse]
    )
