"""One workload's measured repeats, in one fresh process.

``run.py`` starts one worker per workload.  Each repeat builds the
workload afresh from the seed (the set-up: trace generation, Smartpick
bootstrap, simulator construction), replays it once and checks the
report's invariants, so repeats are independent and, for one seed,
identical in every simulated number.  Repeats continue while another
one fits in ``--seconds`` (at least :data:`MIN_REPEATS` of them), or
until exactly ``--repeats`` are done.  The last output line is one JSON
object.

Untraced repeats time the set-up, the replay and every sizing call (the
decision-latency samples) under a :class:`speed.Speedometer`, which
gives each timing in reference seconds next to its wall seconds.  With
``--trace`` traced repeats alternate with untraced ones: they wrap every
layer entry point in a span (``spans.py``), with speed sampling paused,
and report per-name aggregates; the first raw spans of the last traced
repeat are included.

``--prepare`` only loads (building if needed) the native inference
kernel and reports the environment, so no timer includes the compile.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
import time

import numpy as np

from repro.ml.forest_native import kernel_name

import spans
import workloads
from speed import Speedometer

#: The sizing entry points timed in untraced repeats.  Every arrival a
#: call sizes waits for the whole call, so a call yields one latency
#: sample per arrival it sized.
DECISION_TARGETS = tuple(
    target for target in spans.TARGETS
    if target[0] in ("core.job.decide", "core.job.decide_many")
)
#: Raw spans kept from a traced repeat.
MAX_SPANS = 20_000
#: Fewest repeats of each kind, however short ``--seconds`` is.
MIN_REPEATS = 3


def environment() -> dict:
    return {
        "engine": kernel_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def check_report(report, prepared) -> list[str]:
    """The replay invariants; returns one message per violation."""
    errors = []
    # Every arrival terminates exactly once: per tenant, completions plus
    # drops equal the tenant's trace length.
    for tenant, trace in prepared.pairs:
        piece = report.for_tenant(tenant)
        terminated = piece.n_queries + piece.n_failed + piece.n_shed
        if terminated != len(trace):
            errors.append(
                f"{tenant}: {terminated} terminations for {len(trace)} "
                "arrivals"
            )
    if report.n_arrivals != prepared.n_arrivals:
        errors.append(
            f"{report.n_arrivals} terminations for "
            f"{prepared.n_arrivals} arrivals"
        )
    total = report.total_cost_dollars
    billed = math.fsum(report.chargeback().values())
    if abs(billed - total) > 1e-9 * max(total, 1.0):
        errors.append(f"chargeback {billed!r} != total bill {total!r}")
    stats = report.pool_stats
    ledger = stats.leased_seconds + stats.idle_seconds
    if abs(stats.instance_seconds - ledger) > (
        1e-6 + 1e-9 * stats.instance_seconds
    ):
        errors.append(
            f"instance-seconds {stats.instance_seconds!r} != leased + idle "
            f"{ledger!r}"
        )
    return errors


def sim_metrics(report, n_arrivals: int) -> dict:
    """Simulated outcomes; a seed fixes every one of them exactly."""
    # Each tenant is held to its own SLO; an arrival that never
    # completed misses it.
    hits = math.fsum(
        attainment * report.for_tenant(tenant).n_queries
        for tenant, attainment in report.tenant_slo_attainment().items()
    )
    return {
        "cost_usd_per_1k": 1000.0 * report.total_cost_dollars / n_arrivals,
        "latency_p99_s": report.latency_percentile(99),
        "slo_attainment": hits / n_arrivals,
    }


def counters(report, n_arrivals: int) -> dict:
    """Per-layer counters the report already carries."""
    stats = report.pool_stats
    dropped = report.n_failed + report.n_shed
    return {
        "failed_share": dropped / n_arrivals,
        "n_dropped": dropped,
        "n_shed": report.n_shed,
        "n_retries": report.n_retries_total,
        "wasted_cost_share": report.wasted_cost_share,
        "queueing_p50_s": report.queueing_delay_percentile(50),
        "queueing_p99_s": report.queueing_delay_percentile(99),
        "epochs_planned": report.epochs_planned,
        "pool": {
            "leases_granted": stats.leases_granted,
            "leases_queued": stats.leases_queued,
            "quota_deferrals": stats.quota_deferrals,
            "work_steals": stats.work_steals,
            "cold_starts": stats.cold_starts,
            "prewarms": stats.prewarms,
            "coop_preemptions": stats.coop_preemptions,
            "warm_start_rate": stats.warm_start_rate,
            "idle_fraction": stats.idle_fraction,
            "sl_faults": stats.sl_faults,
            "boot_failures": stats.boot_failures,
            "preemptions": stats.preemptions,
            "leases_revoked": stats.leases_revoked,
        },
    }


def repeat(name: str, seed: int, arrivals: int | None, traced: bool):
    """Set up and replay once; returns the record and raw timings."""
    prepared = workloads.prepare(name, seed, arrivals)
    tracer = spans.Tracer(
        targets=spans.TARGETS if traced else DECISION_TARGETS,
        max_spans=MAX_SPANS if traced else sys.maxsize,
    )
    with tracer:
        started = time.perf_counter_ns()
        report = prepared.replay()
        ended = time.perf_counter_ns()
    record = {
        "traced": traced,
        "n_arrivals": prepared.n_arrivals,
        "sim": sim_metrics(report, prepared.n_arrivals),
        "counters": counters(report, prepared.n_arrivals),
        "errors": check_report(report, prepared),
    }
    if traced:
        simulator = tracer.simulator
        record["trace"] = {
            "stats": tracer.stats,
            "missing": tracer.missing,
            "spans_recorded": len(tracer.spans),
            "events_processed": (
                simulator.events_processed if simulator is not None else 0
            ),
        }
    return record, prepared, (started, ended), tracer.spans


def measure(args) -> dict:
    env = environment()  # loads the native kernel before any timer
    kinds = (False, True) if args.trace else (False,)
    minimum = args.repeats or MIN_REPEATS
    records = []
    timings = []
    last_spans: list = []
    started = time.monotonic()
    with Speedometer() as meter:
        while True:
            done = len(records) // len(kinds)
            elapsed = time.monotonic() - started
            # Stop before a round that would overrun the time budget.
            if done >= minimum and (
                args.repeats is not None
                or elapsed + elapsed / done > args.seconds
            ):
                break
            for traced in kinds:
                if traced:
                    meter.pause()
                record, prepared, replay, raw = repeat(
                    args.workload, args.seed, args.arrivals, traced
                )
                if traced:
                    meter.resume()
                    last_spans = raw
                records.append(record)
                timings.append(
                    (prepared.marks, replay, None if traced else raw)
                )
                applied = prepared.applied
                del prepared
    # Convert to reference seconds once every sample is in.
    for record, (marks, (start, end), decisions) in zip(records, timings):
        wall = [(b - a) / 1e9 for a, b in zip(marks, marks[1:])]
        record["setup"] = {
            "trace_gen_s": wall[0],
            "bootstrap_s": wall[1],
            "simulator_s": wall[2],
            "setup_s": (marks[3] - marks[0]) / 1e9,
        }
        record["replay_s"] = (end - start) / 1e9
        if decisions is None:
            continue
        record["setup_ref_s"] = meter.seconds(marks[0], marks[3])
        record["replay_net_s"] = (
            end - start - meter.probe_ns(start, end)
        ) / 1e9
        record["replay_ref_s"] = meter.seconds(start, end)
        record["decision_ms"] = [
            1e3 * meter.seconds(span_start, span_end)
            for _, _, span_start, span_end, _, work in decisions
            for _ in range(max(work, 1))
        ]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "applied": applied,
        "env": env,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "probe": {
            "samples": len(meter.durations),
            "median_ns": (
                float(np.median(meter.durations)) if meter.durations else None
            ),
        },
        "repeats": records,
        "spans": last_spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--arrivals", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.prepare:
        print(json.dumps(environment()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
