"""Exact pins of four serving-policy payoffs.

Each payoff is the verdict of a deterministic simulation that pits a
policy against its baselines on identically seeded systems (retraining
damped, so the arms differ only in the policy under test):

- **chaos** -- retry-with-backoff vs naive-fail under a ``moderate``
  fault plan, against a fault-free baseline;
- **slo** -- :class:`DeadlineAwareGrant` with cooperative preemption and
  quota-priced sizing vs weighted-fair shares on a noisy-neighbour
  trace;
- **autoscaler** -- :class:`PredictiveKeepAlive` vs a fixed keep-alive
  sweep and the demand autoscaler on two affinity-pinned VM shards;
- **planner** -- an epoch :class:`FleetPlanner` on the widest fixed
  window vs every reactive keep-alive policy on a seasonal trace.

Every scenario is replayed at a ``quick`` and a ``full`` size.  For each
one the module asserts the acceptance shape with its thresholds,
including the chargeback and ledger identities, and pins every arm
exactly: the headline ratios with ``==`` and each report field through
:func:`test_replay_golden.report_digest` against
``payoff_goldens.json``.  Everything pinned is simulated, so the pins
hold on the native and the numpy-fallback inference engines alike, and a
replay that drifts between processes cannot match them.

Regenerate the goldens only for an intended behaviour change::

    PYTHONPATH=src python tests/test_payoffs.py
"""

from __future__ import annotations

import functools
import json
import math
import pathlib

import pytest

from repro.cloud.pool import (
    DeadlineAwareGrant,
    DemandAutoscaler,
    FixedKeepAlive,
    PoolConfig,
    TenantAffinityRouter,
    TenantRegistry,
    TenantSpec,
)
from repro.core.epochs import EpochForecaster, FleetPlanner
from repro.core.forecast import PredictiveKeepAlive
from repro.core.serving import ServingSimulator
from repro.engine import RetryPolicy
from repro.workloads import make_chaos_plan
from repro.workloads.synthetic import make_epoch_trace
from repro.workloads.trace import TraceEvent, WorkloadTrace

from conftest import build_small_system
from test_replay_golden import report_digest

GOLDENS_PATH = pathlib.Path(__file__).parent / "payoff_goldens.json"
SIZES = ("quick", "full")


def _system(seed: int, queries: tuple[str, ...], n_configs: int):
    return build_small_system(
        seed,
        queries=queries,
        n_configs_per_query=n_configs,
        min_workers=4,
        error_difference_trigger=1e9,
    )


def _cents(report) -> float:
    return 100.0 * report.total_cost_dollars


# ----------------------------------------------------------------------
# Scenarios: one fresh replay per arm
# ----------------------------------------------------------------------

#: Plan seed chosen so the moderate fault rates land failures on both
#: sizes (a plan that never fires would pin nothing).
CHAOS_PLAN_SEED = 1


def chaos_arms(quick: bool, submission: str) -> dict:
    n = 6 if quick else 16
    trace = WorkloadTrace(events=tuple(
        TraceEvent(45.0 * i, "tpcds-q82", input_gb=100.0) for i in range(n)
    ))
    plan = make_chaos_plan("moderate", seed=CHAOS_PLAN_SEED)

    def replay(**faults):
        return ServingSimulator(
            _system(77, ("tpcds-q82",), 6 if quick else 8),
            slo_seconds=300.0,
            pool_config=PoolConfig(max_vms=16, max_sls=32),
            decision_reuse=False,
            submission=submission,
            **faults,
        ).replay(trace)

    return {
        "baseline": replay(),
        "naive": replay(fault_plan=plan),
        "retry": replay(
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=4, backoff_base_s=3.0),
        ),
    }


class ReferenceSortGrant(DeadlineAwareGrant):
    """Deadline-aware grants re-sorted by slack on every call (no memo)."""

    def candidates(self, shard, pool):
        now = pool.simulator.now
        return sorted(
            shard.queue, key=lambda lease: (lease.slack_s(now), lease.seq)
        )


def slo_arms(quick: bool, submission: str) -> dict:
    n_bg, n_inter = (5, 3) if quick else (8, 4)
    traces = {
        "bg": WorkloadTrace(events=tuple(
            TraceEvent(3.0 * i, "tpcds-q68", input_gb=150.0)
            for i in range(n_bg)
        )),
        "inter": WorkloadTrace(events=tuple(
            TraceEvent(5.0 + 30.0 * i, "tpcds-q82", input_gb=100.0)
            for i in range(n_inter)
        )),
    }

    def replay(grant_policy=None):
        return ServingSimulator(
            _system(77, ("tpcds-q82", "tpcds-q68"), 6),
            pool_config=PoolConfig(max_vms=6, max_sls=8),
            tenants=TenantRegistry([
                TenantSpec("inter", slo_latency_s=180.0, tier="interactive"),
                TenantSpec("bg", max_leased_vms=4, tier="batch"),
            ]),
            grant_policy=grant_policy,
            quota_priced_sizing=grant_policy is not None,
            decision_reuse=False,
            submission=submission,
        ).replay_multi(traces)

    return {
        "fair": replay(),
        "slo": replay(DeadlineAwareGrant(preempt=True, preempt_slack_s=120.0)),
        "slo-resort": replay(
            ReferenceSortGrant(preempt=True, preempt_slack_s=120.0)
        ),
    }


AUTOSCALER_FIXED_SWEEP = (0.0, 30.0, 120.0, 300.0)
#: ``crc32("quiet") % 2 == 0``: the affinity router pins the sparse
#: tenant to the first declared shard.
QUIET_SHARD = "m5"


def autoscaler_arms(quick: bool, submission: str) -> dict:
    traces = {
        "hot": WorkloadTrace(events=tuple(
            TraceEvent(10.0 * i, "tpcds-q82")
            for i in range(12 if quick else 24)
        )),
        "quiet": WorkloadTrace(events=tuple(
            TraceEvent(15.0 + 150.0 * i, "tpcds-q68")
            for i in range(2 if quick else 3)
        )),
    }

    def replay(autoscaler):
        return ServingSimulator(
            _system(105, ("tpcds-q82", "tpcds-q68"), 6 if quick else 8),
            slo_seconds=300.0,
            shards={
                "m5": PoolConfig(max_vms=10, max_sls=0),
                "c5": PoolConfig(max_vms=10, max_sls=0),
            },
            router=TenantAffinityRouter(),
            autoscaler=autoscaler,
            decision_reuse=False,
            submission=submission,
        ).replay_multi(traces, mode="vm-only")

    arms = {
        f"fixed-{window:g}": replay(FixedKeepAlive(window, window / 4.0))
        for window in AUTOSCALER_FIXED_SWEEP
    }
    arms["demand"] = replay(DemandAutoscaler(
        window_s=120.0, headroom=2.0, max_keep_alive_s=300.0
    ))
    arms["predictive"] = replay(PredictiveKeepAlive(headroom=3.0))
    return arms


PLANNER_FIXED_SWEEP = (0.0, 60.0, 300.0)
PLANNER_QUERIES = ("uniform-2x1s", "uniform-4x1s")
#: The quiet phase serves one query at a time on the baseline shard
#: while each burst wants the whole pool at once; the planner may grow
#: the shard toward the limit ahead of a burst and must shrink back.
BASELINE_VMS = 16
CAPACITY_LIMIT = 24
PERIOD_S = 1_800.0
EPOCH_S = 300.0


def planner_arms(quick: bool, submission: str) -> dict:
    trace = make_epoch_trace(
        160 if quick else 240,
        period_s=PERIOD_S,
        n_periods=4 if quick else 6,
        burst_phase=0.6,
        burst_width_fraction=0.06,
        burst_factor=20.0,
        query_classes=PLANNER_QUERIES,
        input_gb_octaves=(4.0,),
        rng=17,
    )

    def replay(autoscaler, planner=None):
        # One grid at both sizes: the sizes differ in periods only.
        return ServingSimulator(
            _system(131, PLANNER_QUERIES, 6),
            slo_seconds=120.0,
            pool_config=PoolConfig(max_vms=BASELINE_VMS, max_sls=0),
            autoscaler=autoscaler,
            planner=planner,
            submission=submission,
        ).replay(trace, mode="vm-only")

    arms = {
        f"fixed-{window:g}": replay(FixedKeepAlive(window, window / 4.0))
        for window in PLANNER_FIXED_SWEEP
    }
    arms["predictive"] = replay(PredictiveKeepAlive(headroom=3.0))
    # The planner rides on the widest fixed window, so planner against
    # the best reactive arm is a pure ablation: same keep-alive, add
    # planning.
    widest = max(PLANNER_FIXED_SWEEP)
    arms["planner"] = replay(
        FixedKeepAlive(widest, widest / 4.0),
        FleetPlanner(
            epoch_s=EPOCH_S,
            forecaster=EpochForecaster(
                alpha=0.5,
                season_length=int(PERIOD_S / EPOCH_S),
                seasonal_weight=0.7,
            ),
            headroom=3.0,
            max_prewarm_vms=BASELINE_VMS,
            max_prewarm_sls=0,
            capacity_limits={"default": (CAPACITY_LIMIT, 0)},
            keep_alive_margin=6.0,
            max_keep_alive_s=widest,
        ),
    )
    return arms


SCENARIOS = {
    "chaos": chaos_arms,
    "slo": slo_arms,
    "autoscaler": autoscaler_arms,
    "planner": planner_arms,
}


@functools.cache
def arms(scenario: str, size: str, submission: str = "object") -> dict:
    """Every arm's report, replayed once per session."""
    return SCENARIOS[scenario](size == "quick", submission)


# ----------------------------------------------------------------------
# Identities and the headline ratios
# ----------------------------------------------------------------------


def assert_chargeback(name: str, report) -> None:
    """query + keep-alive + wasted == total; every wasted dollar is
    attributed to an arrival."""
    decomposed = (
        report.query_cost_dollars
        + report.keepalive_cost_dollars
        + report.wasted_cost_dollars
    )
    assert abs(report.total_cost_dollars - decomposed) <= 1e-12 * max(
        report.total_cost_dollars, 1.0
    ), name
    attributed = math.fsum(
        [q.wasted_cost_dollars for q in report.served]
        + [d.wasted_cost_dollars for d in report.dropped]
    )
    assert abs(attributed - report.wasted_cost_dollars) <= 1e-9 * max(
        report.wasted_cost_dollars, 1.0
    ), name


def assert_time_ledger(name: str, report) -> None:
    """Instance seconds == leased + idle seconds."""
    stats = report.pool_stats
    assert abs(
        stats.instance_seconds - (stats.leased_seconds + stats.idle_seconds)
    ) <= 1e-6 + 1e-9 * stats.instance_seconds, name


def best_reactive(reports: dict) -> str:
    """The reactive arm with the highest warm-start rate (tie: the lower
    p99 queueing delay)."""
    return max(
        (name for name in reports if name != "planner"),
        key=lambda name: (
            reports[name].warm_start_rate,
            -reports[name].queueing_delay_percentile(99),
        ),
    )


def best_fixed(reports: dict) -> str:
    """The cheapest fixed keep-alive window."""
    return min(
        (name for name in reports if name.startswith("fixed-")),
        key=lambda name: _cents(reports[name]),
    )


def headline(scenario: str, reports: dict) -> dict[str, float]:
    """The scenario's headline ratios, keyed by their dotted path."""
    if scenario == "chaos":
        return {
            "arms.baseline.availability": reports["baseline"].availability,
            "arms.naive.availability": reports["naive"].availability,
            "arms.retry.availability": reports["retry"].availability,
            "retry_vs_naive.availability": reports["retry"].availability,
            "retry_vs_naive.cost_efficiency": (
                _cents(reports["baseline"]) / _cents(reports["retry"])
            ),
        }
    if scenario == "slo":
        attainment = {
            name: reports[name].tenant_slo_attainment()["inter"]
            for name in ("fair", "slo")
        }
        return {
            "arms.fair.interactive_attainment": attainment["fair"],
            "arms.slo.interactive_attainment": attainment["slo"],
            "slo_vs_fair.cost_efficiency": (
                _cents(reports["fair"]) / _cents(reports["slo"])
            ),
            "slo_vs_fair.interactive_attainment": attainment["slo"],
        }
    if scenario == "autoscaler":
        predictive = _cents(reports["predictive"])
        return {
            "predictive_vs_best_fixed.speedup": (
                _cents(reports[best_fixed(reports)]) / predictive
            ),
            "predictive_vs_demand.speedup": (
                _cents(reports["demand"]) / predictive
            ),
        }
    best, planner = reports[best_reactive(reports)], reports["planner"]
    return {
        "planner_vs_best_reactive.cost_efficiency": (
            _cents(best) / _cents(planner)
        ),
        "planner_vs_best_reactive.warm_start_uplift": (
            planner.warm_start_rate / max(best.warm_start_rate, 1e-9)
        ),
        # Clamped: a planner p99 of (near) zero would otherwise make the
        # ratio unbounded.
        "planner_vs_best_reactive.queueing_improvement": min(
            best.queueing_delay_percentile(99)
            / max(planner.queueing_delay_percentile(99), 1e-3),
            20.0,
        ),
    }


#: Every headline ratio, exactly, at both sizes.
HEADLINES: dict[tuple[str, str], dict[str, float]] = {
    ("chaos", "quick"): {
        "arms.baseline.availability": 1.0,
        "arms.naive.availability": 0.6666666666666666,
        "arms.retry.availability": 1.0,
        "retry_vs_naive.availability": 1.0,
        "retry_vs_naive.cost_efficiency": 1.0076220823187036,
    },
    ("chaos", "full"): {
        "arms.baseline.availability": 1.0,
        "arms.naive.availability": 0.75,
        "arms.retry.availability": 1.0,
        "retry_vs_naive.availability": 1.0,
        "retry_vs_naive.cost_efficiency": 0.8820007419298983,
    },
    ("slo", "quick"): {
        "arms.fair.interactive_attainment": 0.6666666666666666,
        "arms.slo.interactive_attainment": 1.0,
        "slo_vs_fair.cost_efficiency": 0.9674209168526432,
        "slo_vs_fair.interactive_attainment": 1.0,
    },
    ("slo", "full"): {
        "arms.fair.interactive_attainment": 0.25,
        "arms.slo.interactive_attainment": 0.75,
        "slo_vs_fair.cost_efficiency": 0.9133110686763173,
        "slo_vs_fair.interactive_attainment": 0.75,
    },
    ("autoscaler", "quick"): {
        "predictive_vs_best_fixed.speedup": 1.12371697567186,
        "predictive_vs_demand.speedup": 1.20290930458281,
    },
    ("autoscaler", "full"): {
        "predictive_vs_best_fixed.speedup": 1.093721341221196,
        "predictive_vs_demand.speedup": 1.0658823968750721,
    },
    ("planner", "quick"): {
        "planner_vs_best_reactive.cost_efficiency": 0.9718291915353304,
        "planner_vs_best_reactive.warm_start_uplift": 1.023281596452328,
        "planner_vs_best_reactive.queueing_improvement": 2.5151572834100935,
    },
    ("planner", "full"): {
        "planner_vs_best_reactive.cost_efficiency": 0.9564194906870622,
        "planner_vs_best_reactive.warm_start_uplift": 1.0169321106821108,
        "planner_vs_best_reactive.queueing_improvement": 20.0,
    },
}


# ----------------------------------------------------------------------
# Acceptance shapes
# ----------------------------------------------------------------------

sizes = pytest.mark.parametrize("size", SIZES)


@sizes
def test_chaos_retry_restores_availability(size):
    reports = arms("chaos", size)
    for name, report in reports.items():
        assert_chargeback(name, report)
    baseline, naive, retry = (
        reports["baseline"], reports["naive"], reports["retry"]
    )
    assert baseline.wasted_cost_dollars == 0.0
    assert baseline.availability == 1.0
    # The plan genuinely bites, and retries absorb it.
    assert naive.n_failed > 0
    assert retry.availability >= 0.99
    assert retry.availability > naive.availability
    assert retry.n_retries_total > 0
    assert _cents(retry) / _cents(baseline) - 1.0 < 0.15


@sizes
def test_slo_first_grants_improve_interactive_attainment(size):
    reports = arms("slo", size)
    n_arrivals = 8 if size == "quick" else 12
    for name, report in reports.items():
        assert report.n_queries == n_arrivals, name
        assert_chargeback(name, report)
    fair, slo = reports["fair"], reports["slo"]
    assert fair.wasted_cost_dollars == 0.0
    assert fair.pool_stats.coop_preemptions == 0
    assert (
        slo.tenant_slo_attainment()["inter"]
        > fair.tenant_slo_attainment()["inter"]
    )
    assert _cents(slo) / _cents(fair) - 1.0 < 0.15
    # The pool's memoized deadline order changes no grant.
    assert report_digest(reports["slo-resort"]) == report_digest(slo)


@sizes
def test_predictive_keep_alive_undercuts_every_fixed_window(size):
    reports = arms("autoscaler", size)
    for name, report in reports.items():
        by_shard = math.fsum(report.keepalive_cost_by_shard.values())
        assert abs(by_shard - report.keepalive_cost_dollars) <= 1e-12 * max(
            report.keepalive_cost_dollars, 1.0
        ), name
        assert_time_ledger(name, report)
    predictive = reports["predictive"]
    cheapest = reports[best_fixed(reports)]
    assert _cents(predictive) < _cents(cheapest)
    assert predictive.warm_start_rate >= cheapest.warm_start_rate
    # The sparse tenant's shard drains below every non-zero window.
    for window in AUTOSCALER_FIXED_SWEEP:
        if window == 0.0:
            continue
        assert (
            predictive.keepalive_cost_by_shard[QUIET_SHARD]
            < reports[f"fixed-{window:g}"].keepalive_cost_by_shard[QUIET_SHARD]
        ), window
    # Idle time is what keep-alive spend buys: the cost win is not luck.
    widest = reports[f"fixed-{max(AUTOSCALER_FIXED_SWEEP):g}"]
    assert (
        predictive.pool_stats.idle_fraction
        <= widest.pool_stats.idle_fraction
    )


@sizes
def test_epoch_planner_beats_best_reactive(size):
    reports = arms("planner", size)
    for name, report in reports.items():
        assert_time_ledger(name, report)
        assert report.total_cost_dollars == pytest.approx(
            report.query_cost_dollars
            + report.keepalive_cost_dollars
            + report.wasted_cost_dollars,
            rel=1e-9,
            abs=1e-12,
        ), name
        assert (
            report.prewarm_cost_dollars <= report.keepalive_cost_dollars
        ), name
    best, planner = reports[best_reactive(reports)], reports["planner"]
    assert planner.warm_start_rate > best.warm_start_rate
    assert (
        planner.queueing_delay_percentile(99)
        < best.queueing_delay_percentile(99)
    )
    assert _cents(planner) <= 1.10 * _cents(best)
    assert planner.epochs_planned > 0
    assert planner.pool_stats.prewarms > 0


# ----------------------------------------------------------------------
# Exact pins
# ----------------------------------------------------------------------

scenarios = pytest.mark.parametrize("scenario", list(SCENARIOS))


@sizes
@scenarios
def test_headline_ratios_are_exact(scenario, size):
    assert headline(scenario, arms(scenario, size)) == HEADLINES[
        scenario, size
    ]


@sizes
@scenarios
def test_arm_reports_match_goldens(scenario, size):
    goldens = json.loads(GOLDENS_PATH.read_text())[scenario][size]
    digests = {
        name: report_digest(report)
        for name, report in arms(scenario, size).items()
    }
    assert digests.keys() == goldens.keys()
    for name, digest in digests.items():
        assert digest == goldens[name], name


#: The payoff arms a plan runner does not yet replay bit for bit: plan
#: runners cannot be cooperatively preempted, so these arms' preempting
#: grants play out differently under ``submission="vector"``.
PREEMPTING_ARMS = frozenset({("slo", "slo"), ("slo", "slo-resort")})


@sizes
@scenarios
def test_vector_substrate_matches_object(scenario, size):
    """Both substrates draw each query's noise at submit, so wherever a
    plan runner can run an arm it reproduces the per-task arm exactly."""
    objects = arms(scenario, size)
    vectors = arms(scenario, size, "vector")
    assert vectors.keys() == objects.keys()
    for name in objects:
        same = report_digest(vectors[name]) == report_digest(objects[name])
        assert same == ((scenario, name) not in PREEMPTING_ARMS), name


if __name__ == "__main__":
    GOLDENS_PATH.write_text(json.dumps(
        {
            scenario: {
                size: {
                    name: report_digest(report)
                    for name, report in arms(scenario, size).items()
                }
                for size in SIZES
            }
            for scenario in SCENARIOS
        },
        indent=1,
        sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDENS_PATH}")
