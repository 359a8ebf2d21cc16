"""Million-arrival trace replay: columnar drain + streaming reports.

A day-long multi-tenant trace at population scale (one million arrivals
in full mode) is generated in columns by
:func:`repro.workloads.synthetic.make_scale_trace` and replayed through
the :class:`ServingSimulator`'s columnar drain with streaming reports
(``keep_queries=False``) and class-level decision reuse -- the serving
stack for traces that would drown per-arrival bookkeeping in Python
objects.

Measured (and merged into ``BENCH_scale.json``, schema v2, one slot per
``(engine, mode)`` like the other bench files):

- **vectorized submission core rate** (arrivals per wall second) over
  the full trace -- columnar drain + compiled :class:`StagePlan`
  execution + ``acquire_many`` batch leasing + batched stream folds --
  plus the peak RSS sampled right after the replay;
- the **per-query columnar reference** (one ``TaskScheduler`` object
  and one heap event per task) on the same full trace; its rate is what
  ``vector_vs_columnar.vector_speedup`` is banded against;
- an **adaptive-window leg** (``batch_window_s="auto"``) on a
  10x-baseline prefix, banded as ``adaptive_speedup`` against the
  per-query baseline;
- a **per-query baseline** (the paper's serving model: every arrival
  sized alone with ``decision_reuse=False``, per-query scheduler
  objects, ``keep_queries=True``) on a short prefix of the same trace.
  The prefix rate flatters the baseline -- a kept per-query list only
  grows with the trace -- so ``columnar_vs_per_query.speedup`` is a
  conservative floor, and it is a same-machine ratio that transfers
  across hardware for ``benchmarks/check_bench_regression.py`` to band;
- **streaming report merge** time (sharded replays fold their
  accumulators together with :meth:`ServingReport.merge`);
- with ``--profile``: a per-layer self-time breakdown of a vectorized
  prefix replay (decision / leasing / execution / reporting).

Asserted in every mode (CI runs ``--quick`` on both inference engines):

- the vector core reproduces the per-query reference report field for
  field on the FULL trace, and the per-query baseline (decision reuse
  off) on its prefix;
- peak RSS stays under a mode-sized ceiling -- unchanged from the
  per-query columnar replay: the streaming report and the bounded
  history window keep replay memory flat in trace length;
- the streaming report's multi-tenant invariants hold at scale:
  chargeback partitions the total bill, the Jain index is in (0, 1],
  and the pool's instance-second ledger balances;
- full mode only: the columnar rate is >= 10x the per-query baseline,
  and the vector core never loses to the per-query columnar rate.

Run standalone (the CI smoke job uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick] [--profile]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import Smartpick, SmartpickProperties  # noqa: E402
from repro.cloud.pool import FixedKeepAlive, PoolConfig  # noqa: E402
from repro.core.serving import ServingReport, ServingSimulator  # noqa: E402
from repro.ml.forest_native import kernel_name  # noqa: E402
from repro.workloads import get_query  # noqa: E402
from repro.workloads.synthetic import make_scale_trace  # noqa: E402
from repro.workloads.trace import ColumnarTrace  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_scale.json"
)

SLO_SECONDS = 300.0
#: Eq. 4 cost knob: short single-stage queries gain nothing from extra
#: workers, so the knob settles on small cheap configurations -- the
#: realistic operating point for an interactive population, and one
#: that keeps the simulated pool (not the decision path) light.
KNOB = 0.3
#: Short interactive queries, weighted toward the smallest -- the
#: population-scale regime where per-arrival serving overhead (not query
#: runtime) bounds replay throughput.
QUERY_CLASSES = (
    "uniform-1x1s",
    "uniform-2x1s",
    "uniform-2x2s",
    "uniform-4x1s",
)
CLASS_WEIGHTS = (4.0, 3.0, 2.0, 1.0)
INPUT_GB_OCTAVES = (8.0, 16.0, 32.0)
#: Arrivals in the per-query baseline prefix; large enough that the
#: per-arrival rate stabilises, small enough that per-query sizing
#: finishes in seconds.
BASELINE_ARRIVALS = {"quick": 1_000, "full": 5_000}
#: Peak-RSS ceilings (MB).  The numpy fallback descends trees in Python
#: with bigger transients; full mode carries a 1M-arrival trace.  The
#: streaming report itself is O(sketch capacity), so these are flat in
#: trace length -- a leak back to per-query lists blows straight
#: through them.
RSS_CEILING_MB = {
    ("native-c", "quick"): 900.0,
    ("native-c", "full"): 1400.0,
    ("numpy", "quick"): 900.0,
    ("numpy", "full"): 1400.0,
}


def peak_rss_mb() -> float:
    """High-water RSS of this process in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_system(seed: int = 1207) -> Smartpick:
    """A Smartpick bootstrapped on the synthetic query classes.

    Retraining is damped (the scale run measures serving throughput,
    not model churn) and the history window bounds the History Server:
    without it a million completions would accumulate a million records.
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
        rng=seed,
    )
    system.bootstrap(
        [get_query(query_id, input_gb=16.0) for query_id in QUERY_CLASSES],
        n_configs_per_query=4,
    )
    return system


def build_simulator(
    keep_queries: bool,
    decision_reuse: bool = True,
    submission: str = "object",
    batch_window_s: float | None | str = 0.0,
) -> ServingSimulator:
    return ServingSimulator(
        build_system(),
        slo_seconds=SLO_SECONDS,
        # Sized for the trace's burst peaks: the bench measures replay
        # throughput, not capacity queueing (vm-only serving keeps the
        # warm-start economics simple: no relay-bridged SL cold boots).
        pool_config=PoolConfig(max_vms=4096, max_sls=0),
        autoscaler=FixedKeepAlive(30.0, 7.5),
        submission=submission,
        keep_queries=keep_queries,
        decision_reuse=decision_reuse,
        batch_window_s=batch_window_s,
    )


#: ``--profile`` buckets: module-path fragments -> serving layer.  Self
#: time is attributed per function file, so the four layers plus
#: "other" partition the profiled wall time exactly.
_PROFILE_LAYERS = (
    ("decision", ("core/job", "core/tradeoff", "repro/ml", "core/predictor",
                  "core/history", "core/monitor")),
    ("leasing", ("cloud/pool", "cloud/faults", "cloud/pricing")),
    ("execution", ("engine/plan", "engine/simulator", "engine/scheduler",
                   "engine/runner", "engine/task", "engine/dag",
                   "engine/listener")),
    ("reporting", ("analysis/sketches",)),
)


def profile_layers(pairs, n_profile: int) -> dict[str, float]:
    """Per-layer self-time breakdown of a vectorized prefix replay.

    Runs the vector submission core under cProfile on the first
    ``n_profile`` arrivals and buckets each function's *self* time by
    the serving layer its module belongs to, so the rows sum to the
    profiled wall time (pstats keys carry the file path).
    """
    import cProfile
    import pstats

    prefix = prefix_pairs(pairs, n_profile)
    simulator = build_simulator(keep_queries=False, submission="vector")
    profiler = cProfile.Profile()
    profiler.enable()
    simulator.replay_multi(prefix, knob=KNOB, mode="vm-only")
    profiler.disable()
    stats = pstats.Stats(profiler)
    layers = {name: 0.0 for name, _ in _PROFILE_LAYERS}
    layers["other"] = 0.0
    total = 0.0
    for (filename, _line, _func), row in stats.stats.items():
        self_time = row[2]
        total += self_time
        path = filename.replace(os.sep, "/")
        for name, fragments in _PROFILE_LAYERS:
            if any(fragment in path for fragment in fragments):
                layers[name] += self_time
                break
        else:
            layers["other"] += self_time
    layers["total"] = total
    return layers


def prefix_pairs(
    pairs: list[tuple[str, ColumnarTrace]], n_arrivals: int
) -> list[tuple[str, ColumnarTrace]]:
    """The first ``n_arrivals`` of the merged trace, split per tenant."""
    cutoffs = sorted(
        arrival
        for _, trace in pairs
        for arrival in trace.arrival_s.tolist()
    )[:n_arrivals]
    cutoff = cutoffs[-1]
    prefixed = []
    for tenant, trace in pairs:
        keep = int((trace.arrival_s <= cutoff).sum())
        if keep:
            prefixed.append((tenant, trace.head(keep)))
    return prefixed


def check_invariants(report: ServingReport, label: str) -> None:
    """Multi-tenant and ledger properties, on the *streaming* report."""
    bills = report.chargeback()
    total = report.total_cost_dollars
    partitioned = math.fsum(bills.values())
    assert abs(partitioned - total) <= 1e-9 * max(total, 1.0), (
        f"{label}: chargeback does not partition the bill "
        f"({partitioned} vs {total})"
    )
    jain = report.jain_fairness_index
    assert 0.0 < jain <= 1.0 + 1e-12, f"{label}: Jain index {jain} out of range"
    stats = report.pool_stats
    assert abs(
        stats.instance_seconds - (stats.leased_seconds + stats.idle_seconds)
    ) <= 1e-6 + 1e-9 * stats.instance_seconds, (
        f"{label}: instance-second ledger does not balance"
    )
    assert 0.0 <= stats.idle_fraction <= 1.0, label
    assert report.n_queries == sum(
        report.for_tenant(tenant).n_queries for tenant in report.tenants
    ), f"{label}: tenant slices do not partition the query count"


def report_signature(report: ServingReport) -> dict:
    """Simulated report fields (wall-clock timings excluded)."""
    return {
        "n_queries": report.n_queries,
        "query_cost_dollars": report.query_cost_dollars,
        "latency_p50": report.latency_percentile(50),
        "latency_p99": report.latency_percentile(99),
        "queueing_p50": report.queueing_delay_percentile(50),
        "slo_attainment": report.slo_attainment,
        "batched_rate": report.batched_decision_rate,
        "n_aliens": report.n_aliens,
        "n_retrains": report.n_retrains,
        "warm_start_rate": report.warm_start_rate,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="50k arrivals and no 10x assertion (CI smoke mode); "
        "correctness and RSS-ceiling assertions still run",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also profile a vectorized prefix replay and print the "
        "per-layer (decision/leasing/execution/reporting) time split",
    )
    parser.add_argument(
        "--expect-engine",
        choices=("native-c", "numpy"),
        help="fail unless inference runs on this engine",
    )
    args = parser.parse_args(argv)

    engine = kernel_name()
    if args.expect_engine is not None and engine != args.expect_engine:
        print(
            f"expected engine {args.expect_engine!r} but inference would "
            f"run on {engine!r} (native kernel build failed?)"
        )
        return 1
    mode = "quick" if args.quick else "full"
    n_arrivals = 50_000 if args.quick else 1_000_000
    n_baseline = BASELINE_ARRIVALS[mode]

    started = time.perf_counter()
    pairs = make_scale_trace(
        n_arrivals,
        query_classes=QUERY_CLASSES,
        class_weights=CLASS_WEIGHTS,
        input_gb_octaves=INPUT_GB_OCTAVES,
        rng=97,
    )
    generate_s = time.perf_counter() - started
    print(
        f"scale bench (engine={engine}, quick={args.quick}): "
        f"{n_arrivals} arrivals / {len(pairs)} tenants generated "
        f"in {generate_s:.2f}s"
    )

    # Vectorized submission core first: ru_maxrss is a high-water mark,
    # so its peak must be sampled before any other leg allocates -- the
    # RSS ceilings are unchanged from the object-submission columnar
    # replay, pinning that compiled plans and batch leasing add no
    # per-arrival memory.
    simulator = build_simulator(keep_queries=False, submission="vector")
    started = time.perf_counter()
    vector_report = simulator.replay_multi(pairs, knob=KNOB, mode="vm-only")
    vector_s = time.perf_counter() - started
    rss_mb = peak_rss_mb()
    assert not vector_report.served
    assert vector_report.n_queries == n_arrivals
    check_invariants(vector_report, "vector streaming report")
    vector_rate = n_arrivals / vector_s
    print(
        f"  vector core: {n_arrivals} arrivals in {vector_s:.2f}s "
        f"({vector_rate:,.0f} arrivals/s), peak RSS {rss_mb:.0f} MB"
    )
    print(f"  {vector_report.summary()}")

    ceiling = RSS_CEILING_MB[(engine, mode)]
    assert rss_mb <= ceiling, (
        f"acceptance: peak RSS {rss_mb:.0f} MB exceeds the "
        f"{ceiling:.0f} MB ceiling for {engine}/{mode} -- streaming "
        "replay memory must stay flat in trace length"
    )

    # Reference leg: the pre-PR per-query path (one TaskScheduler
    # object and one heap event per task), rate-representative of the
    # committed columnar slot and the basis the vector core's speedup
    # is banded against (same trace, same machine, same run).  Both
    # substrates draw each query's noise in one block at submit, so its
    # report is *bitwise* comparable to the vector leg's even when
    # queries overlap.
    simulator = build_simulator(keep_queries=False)
    started = time.perf_counter()
    streaming = simulator.replay_multi(pairs, knob=KNOB, mode="vm-only")
    columnar_s = time.perf_counter() - started
    assert not streaming.served
    assert streaming.n_queries == n_arrivals
    check_invariants(streaming, "columnar streaming report")
    columnar_rate = n_arrivals / columnar_s
    vector_speedup = vector_rate / columnar_rate
    print(
        f"  columnar (per-query submission): {n_arrivals} arrivals in "
        f"{columnar_s:.2f}s ({columnar_rate:,.0f} arrivals/s) -> vector "
        f"core speedup {vector_speedup:.1f}x"
    )

    # Same trace, same rng convention: the vector core must reproduce
    # the per-query reference report field for field at full scale
    # (measured decision wall time excluded by the signature).
    assert report_signature(vector_report) == report_signature(streaming), (
        "vectorized submission diverged from per-query submission"
    )
    print("  equivalence ok: vector == per-query submission at scale")

    if not args.quick:
        # The >= 4x acceptance claim is measured against the *committed*
        # columnar slot (check_bench_regression bands the recorded
        # rates); this fresh-run ratio only sanity-checks that the
        # vector path never loses to per-query submission.  The in-run
        # ratio understates the win because the per-query reference leg
        # shares the batch-leasing pool optimizations.
        assert vector_speedup >= 1.0, (
            "sanity: the vectorized submission core must not be slower "
            f"than per-query submission, measured {vector_speedup:.1f}x"
        )

    # Streaming report merge: sharded replays fold partial reports into
    # one; fold this report into itself repeatedly and time the folds.
    merges = 64
    merged = streaming
    started = time.perf_counter()
    for _ in range(merges):
        merged = merged.merge(streaming)
    merge_s = time.perf_counter() - started
    assert merged.n_queries == (merges + 1) * n_arrivals
    merge_ms = merge_s / merges * 1e3
    print(f"  report merge: {merge_ms:.2f} ms per fold ({merges} folds)")

    # Per-query baseline on a prefix: the paper's serving model, every
    # arrival sized alone (no decision reuse) with one scheduler object
    # per query and the full per-query report list kept.
    baseline_pairs = prefix_pairs(pairs, n_baseline)
    n_prefix = sum(len(trace) for _, trace in baseline_pairs)
    simulator = build_simulator(keep_queries=True, decision_reuse=False)
    started = time.perf_counter()
    per_query = simulator.replay_multi(
        baseline_pairs, knob=KNOB, mode="vm-only"
    )
    per_query_s = time.perf_counter() - started
    per_query_rate = n_prefix / per_query_s
    speedup = columnar_rate / per_query_rate
    print(
        f"  per-query baseline: {n_prefix} arrivals in {per_query_s:.2f}s "
        f"({per_query_rate:,.0f} arrivals/s) -> columnar speedup "
        f"{speedup:.1f}x (floor: prefix rate flatters the baseline)"
    )

    # Equivalence: with reuse off, the full vectorized stack (compiled
    # plans + batch leasing) must reproduce the per-query baseline on the
    # same prefix, field for field.
    vector_exact = build_simulator(
        keep_queries=True, decision_reuse=False, submission="vector"
    ).replay_multi(baseline_pairs, knob=KNOB, mode="vm-only")
    assert report_signature(vector_exact) == report_signature(per_query), (
        "vector core diverged from per-query submission on the prefix"
    )
    print("  equivalence ok: vector == object on the baseline prefix")

    if not args.quick:
        assert speedup >= 10.0, (
            "acceptance: the columnar streaming replay must be >= 10x "
            f"the per-query baseline rate, measured {speedup:.1f}x"
        )

    # Adaptive-window leg: the "auto" tuner mixes measured decision wall
    # time into its window, so only the rate is recorded (banded vs the
    # per-query baseline).
    adaptive_pairs = prefix_pairs(pairs, min(n_arrivals, 10 * n_baseline))
    n_adaptive = sum(len(trace) for _, trace in adaptive_pairs)
    simulator = build_simulator(
        keep_queries=False, submission="vector", batch_window_s="auto"
    )
    started = time.perf_counter()
    adaptive_report = simulator.replay_multi(
        adaptive_pairs, knob=KNOB, mode="vm-only"
    )
    adaptive_s = time.perf_counter() - started
    assert adaptive_report.n_queries == n_adaptive
    adaptive_rate = n_adaptive / adaptive_s
    adaptive_speedup = adaptive_rate / per_query_rate
    print(
        f"  adaptive columnar (auto window, vector core): {n_adaptive} "
        f"arrivals in {adaptive_s:.2f}s ({adaptive_rate:,.0f} arrivals/s, "
        f"{adaptive_speedup:.1f}x the per-query baseline)"
    )

    profile = None
    if args.profile:
        profile = profile_layers(pairs, n_baseline * 4)
        total = profile["total"]
        print("  --profile per-layer self time (vectorized prefix replay):")
        for layer in ("decision", "leasing", "execution", "reporting",
                      "other"):
            share = profile[layer] / total if total else 0.0
            print(
                f"    {layer:<10} {profile[layer]:7.2f}s  ({share:5.1%})"
            )

    results = {
        "vector_core": {
            "n_arrivals": n_arrivals,
            "n_tenants": len(pairs),
            "generate_s": generate_s,
            "wall_s": vector_s,
            "arrivals_per_sec": vector_rate,
            "peak_rss_mb": rss_mb,
            "rss_ceiling_mb": ceiling,
        },
        "columnar": {
            "n_arrivals": n_arrivals,
            "n_tenants": len(pairs),
            "submission": "object",
            "wall_s": columnar_s,
            "arrivals_per_sec": columnar_rate,
        },
        "vector_vs_columnar": {
            "vector_speedup": vector_speedup,
            "equivalent_at_scale": True,
        },
        "adaptive_columnar": {
            "n_arrivals": n_adaptive,
            "wall_s": adaptive_s,
            "arrivals_per_sec": adaptive_rate,
            "adaptive_speedup": adaptive_speedup,
        },
        "per_query_baseline": {
            "n_arrivals": n_prefix,
            "wall_s": per_query_s,
            "arrivals_per_sec": per_query_rate,
        },
        "columnar_vs_per_query": {
            "speedup": speedup,
        },
        "report_merge": {
            "merges": merges,
            "ms_per_merge": merge_ms,
        },
    }
    if profile is not None:
        results["profile"] = {
            layer: seconds for layer, seconds in profile.items()
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
    engines.setdefault(engine, {})[mode] = {
        "config": {
            "n_arrivals": n_arrivals,
            "query_classes": list(QUERY_CLASSES),
            "baseline_arrivals": n_baseline,
            "slo_seconds": SLO_SECONDS,
            "history_window": 256,
        },
        "results": results,
    }
    payload = {
        "schema_version": 2,
        "bench": "scale",
        "engines": engines,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
