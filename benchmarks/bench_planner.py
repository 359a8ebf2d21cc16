"""Planner benchmark: epoch-level proactive provisioning vs reactive.

A seasonal trace (:func:`make_epoch_trace`: the same burst at the same
phase every period) is replayed under every reactive keep-alive policy
-- a fixed-window sweep and the forecast-driven
:class:`PredictiveKeepAlive` -- and then once more with the strongest
fixed window plus a :class:`FleetPlanner`, so the planner run is a pure
ablation (same keep-alive, add planning): a seasonal-naive epoch
forecaster whose plans grow shard capacity toward the predicted
concurrent demand ahead of the remembered burst, pre-warm workers into
the new headroom, shrink back to baseline between bursts, and price the
park window from the forecast (``keep_alive_margin`` predicted
inter-arrival gaps instead of the fixed window, so the grown fleet is
not parked on a stale window after the burst drains).  Every run uses a
fresh identically-seeded system with retraining damped, so runs differ
only in the provisioning policy.

Serving runs ``vm-only`` (relay bridges SL cold boots, so VM-heavy
serving is where warm-start economics are undiluted), with the
simulator's default class-level decision reuse.

Acceptance shape (asserted, deterministic in simulation):

- the planner run achieves a **higher warm-start rate** AND a **lower
  p99 queueing delay** than the best reactive baseline (the reactive
  row with the highest warm-start rate, tie-broken by queueing);
- at **<= 10% total-cost overhead** over that baseline;
- two planner replays are **bit-identical** (epoch ticks are ordinary
  simulator events; no wall-clock leaks into the plan);
- pre-warm spend stays inside the keep-alive ledger (chargeback
  conservation) and the instance-second ledger balances.

Results merge into ``BENCH_planner.json`` (schema v2, one slot per
``(engine, mode)``); ``warm_start_uplift`` and ``queueing_improvement``
are higher-is-better ratios (planner over best reactive) that
``benchmarks/check_bench_regression.py`` bands in CI, alongside
``cost_efficiency`` (best reactive cost over planner cost, >= 0.9 by
the acceptance bound).

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_planner.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import Smartpick, SmartpickProperties  # noqa: E402
from repro.cloud.pool import FixedKeepAlive, PoolConfig  # noqa: E402
from repro.core.epochs import EpochForecaster, FleetPlanner  # noqa: E402
from repro.core.forecast import PredictiveKeepAlive  # noqa: E402
from repro.core.serving import ServingSimulator  # noqa: E402
from repro.ml.forest_native import kernel_name  # noqa: E402
from repro.workloads import get_query  # noqa: E402
from repro.workloads.synthetic import make_epoch_trace  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_planner.json"
)

SLO_SECONDS = 120.0
FIXED_SWEEP = (0.0, 60.0, 300.0)
QUERIES = ("uniform-2x1s", "uniform-4x1s")

#: One VM-only shard: sized so the quiet phase serves one query at a
#: time while the burst wants the whole pool at once -- moderate load,
#: so queueing and cold starts concentrate at each burst onset instead
#: of a runaway backlog keeping every worker busy (and therefore warm).
#: The planner may grow the shard toward CAPACITY_LIMIT ahead of a
#: burst (pre-warming into the new headroom) and must shrink back.
BASELINE_VMS = 16
CAPACITY_LIMIT = 24

PERIOD_S = 1_800.0
EPOCH_S = 300.0  # 6 epochs per period -> season_length=6


def build_trace(quick: bool):
    return make_epoch_trace(
        160 if quick else 240,
        period_s=PERIOD_S,
        n_periods=4 if quick else 6,
        burst_phase=0.6,
        burst_width_fraction=0.06,
        burst_factor=20.0,
        query_classes=QUERIES,
        input_gb_octaves=(4.0,),
        rng=17,
    )


def build_system(seed: int, quick: bool) -> Smartpick:
    system = Smartpick(
        SmartpickProperties(
            provider="AWS", relay=True, error_difference_trigger=1e9
        ),
        max_vm=8,
        max_sl=8,
        rng=seed,
    )
    # The same reduced grid in both modes: --quick scales the number of
    # periods, not the per-query physics, so quick acceptance predicts
    # full acceptance.
    system.bootstrap(
        [get_query(query_id) for query_id in QUERIES],
        n_configs_per_query=6,
    )
    return system


def make_planner() -> FleetPlanner:
    return FleetPlanner(
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
        max_keep_alive_s=max(FIXED_SWEEP),
    )


def replay(autoscaler, planner, trace, quick: bool, seed: int = 131):
    simulator = ServingSimulator(
        build_system(seed, quick),
        slo_seconds=SLO_SECONDS,
        pool_config=PoolConfig(max_vms=BASELINE_VMS, max_sls=0),
        autoscaler=autoscaler,
        planner=planner,
    )
    return simulator.replay(trace, mode="vm-only")


def row(report) -> dict:
    stats = report.pool_stats
    return {
        "total_cents": 100.0 * report.total_cost_dollars,
        "query_cents": 100.0 * report.query_cost_dollars,
        "keepalive_cents": 100.0 * report.keepalive_cost_dollars,
        "prewarm_cents": 100.0 * report.prewarm_cost_dollars,
        "warm_start_rate": report.warm_start_rate,
        "p99_queueing_s": report.queueing_delay_percentile(99),
        "p99_latency_s": report.latency_percentile(99),
        "epochs_planned": report.epochs_planned,
        "prewarms": stats.prewarms,
        "idle_fraction": stats.idle_fraction,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller trace for the CI smoke job (asserts still run)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    trace = build_trace(args.quick)
    engine = kernel_name()
    print(
        f"planner bench (engine={engine}, quick={args.quick}): "
        f"{len(trace)} arrivals, {PERIOD_S:g}s period, "
        f"{BASELINE_VMS} baseline VMs (limit {CAPACITY_LIMIT}, vm-only)"
    )

    reports = {}
    for window in FIXED_SWEEP:
        reports[f"fixed-{window:g}"] = replay(
            FixedKeepAlive(window, window / 4.0), None, trace, args.quick
        )
    reports["predictive"] = replay(
        PredictiveKeepAlive(headroom=3.0), None, trace, args.quick
    )
    # The planner rides on the strongest fixed window from the sweep, so
    # planner-vs-best is a pure ablation: same keep-alive, add planning.
    planner_base = max(FIXED_SWEEP)
    reports["planner"] = replay(
        FixedKeepAlive(planner_base, planner_base / 4.0),
        make_planner(), trace, args.quick,
    )

    rows = {name: row(report) for name, report in reports.items()}
    for name, metrics in rows.items():
        print(
            f"  {name:12s} total {metrics['total_cents']:7.2f}c "
            f"(query {metrics['query_cents']:.2f} + "
            f"keep-alive {metrics['keepalive_cents']:.2f}, "
            f"prewarm {metrics['prewarm_cents']:.2f}) "
            f"warm {100 * metrics['warm_start_rate']:5.1f}%  "
            f"p99 queue {metrics['p99_queueing_s']:7.2f}s  "
            f"p99 latency {metrics['p99_latency_s']:7.1f}s  "
            f"epochs {metrics['epochs_planned']}"
        )

    # Conservation invariants hold for every run.
    for name, report in reports.items():
        stats = report.pool_stats
        assert abs(
            stats.instance_seconds
            - (stats.leased_seconds + stats.idle_seconds)
        ) <= 1e-6 + 1e-9 * stats.instance_seconds, name
        assert report.total_cost_dollars == pytest_approx(
            report.query_cost_dollars
            + report.keepalive_cost_dollars
            + report.wasted_cost_dollars
        ), name
        assert (
            report.prewarm_cost_dollars <= report.keepalive_cost_dollars
        ), name

    # Determinism: a second planner replay must be bit-identical (epoch
    # ticks are simulator events; nothing host-timed feeds the plan).
    rerun = row(replay(
        FixedKeepAlive(planner_base, planner_base / 4.0),
        make_planner(), trace, args.quick,
    ))
    assert rerun == rows["planner"], (
        "acceptance: planner replays must be deterministic "
        f"({rerun} vs {rows['planner']})"
    )

    # Acceptance: the planner beats the strongest reactive baseline --
    # the row with the highest warm-start rate (tie: lowest queueing) --
    # on BOTH warmth and tail queueing, at <= 10% cost overhead.
    reactive = {name: r for name, r in rows.items() if name != "planner"}
    best_name = max(
        reactive,
        key=lambda name: (
            reactive[name]["warm_start_rate"],
            -reactive[name]["p99_queueing_s"],
        ),
    )
    best = reactive[best_name]
    planner_row = rows["planner"]
    assert planner_row["warm_start_rate"] > best["warm_start_rate"], (
        f"acceptance: planner warm-start rate "
        f"({100 * planner_row['warm_start_rate']:.1f}%) must beat the best "
        f"reactive baseline {best_name} "
        f"({100 * best['warm_start_rate']:.1f}%)"
    )
    assert planner_row["p99_queueing_s"] < best["p99_queueing_s"], (
        f"acceptance: planner p99 queueing "
        f"({planner_row['p99_queueing_s']:.2f}s) must undercut "
        f"{best_name} ({best['p99_queueing_s']:.2f}s)"
    )
    assert planner_row["total_cents"] <= 1.10 * best["total_cents"], (
        f"acceptance: planner cost ({planner_row['total_cents']:.2f}c) "
        f"must stay within 10% of {best_name} "
        f"({best['total_cents']:.2f}c)"
    )
    assert planner_row["epochs_planned"] > 0
    assert planner_row["prewarms"] > 0

    warm_uplift = (
        planner_row["warm_start_rate"] / max(best["warm_start_rate"], 1e-9)
    )
    # Clamped: a planner p99 of (near) zero would otherwise produce an
    # unboundedly large ratio, and a committed baseline that volatile
    # makes the CI regression band meaningless.
    queueing_improvement = min(
        best["p99_queueing_s"] / max(planner_row["p99_queueing_s"], 1e-3),
        20.0,
    )
    cost_efficiency = best["total_cents"] / planner_row["total_cents"]
    print(
        f"acceptance ok: planner warm "
        f"{100 * planner_row['warm_start_rate']:.1f}% vs {best_name} "
        f"{100 * best['warm_start_rate']:.1f}% ({warm_uplift:.2f}x), "
        f"p99 queueing {planner_row['p99_queueing_s']:.2f}s vs "
        f"{best['p99_queueing_s']:.2f}s ({queueing_improvement:.2f}x) at "
        f"{planner_row['total_cents'] / best['total_cents']:.3f}x cost"
    )

    results = {
        "policies": rows,
        "planner_vs_best_reactive": {
            "best_reactive": best_name,
            # Ratios are simulation-deterministic and transfer across
            # machines; the regression gate bands these.
            "warm_start_uplift": warm_uplift,
            "queueing_improvement": queueing_improvement,
            "cost_efficiency": cost_efficiency,
        },
    }

    output = os.path.abspath(args.output)
    try:
        with open(output, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, json.JSONDecodeError):
        existing = None
    engines = (
        dict(existing.get("engines", {}))
        if existing and existing.get("schema_version", 1) >= 2
        else {}
    )
    engines.setdefault(engine, {})["quick" if args.quick else "full"] = {
        "config": {
            "n_arrivals": len(trace),
            "period_s": PERIOD_S,
            "epoch_s": EPOCH_S,
            "baseline_vms": BASELINE_VMS,
            "capacity_limit": CAPACITY_LIMIT,
            "fixed_sweep_s": list(FIXED_SWEEP),
            "mode": "vm-only",
        },
        "results": results,
    }
    payload = {
        "schema_version": 2,
        "bench": "planner",
        "engines": engines,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


def pytest_approx(value: float, rel: float = 1e-9):
    """Tiny stand-in for pytest.approx (benchmarks avoid the test dep)."""
    class _Approx:
        def __eq__(self, other: object) -> bool:
            if not isinstance(other, (int, float)):
                return NotImplemented
            return math.isclose(other, value, rel_tol=rel, abs_tol=1e-12)

    return _Approx()


if __name__ == "__main__":
    raise SystemExit(main())
