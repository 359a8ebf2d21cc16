"""Smartpick serving benchmark: replay workloads, end-to-end and per-layer.

Runs each workload (see ``workloads.py``) in its own fresh worker
process, one after another, each single-threaded.  The worker repeats
set-up and replay while another repeat fits in ``--seconds``
(``worker.py``) and checks every report; end-to-end metrics are medians over the untraced
repeats, in reference seconds (``speed.py``).  With ``--trace`` the
worker alternates untraced and traced repeats: the traced ones wrap
every layer entry point in a span (``spans.py``) and give the per-layer
metrics, and the two kinds together give the tracing overhead.

Usage (from the repository root)::

    python benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--repeats K | --seconds S] [--trace [0|1]] [--out FILE]

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; ``--out`` (default ``.bench_build/suite-result.json``)
receives the full result with quartiles, counters and environment, and
a traced run also writes the first raw spans of its last traced repeat
per workload to ``<out>.spans.json``.  The exit code is non-zero when a
replay breaks an invariant (an arrival not terminating exactly once,
chargeback not equal to the total bill, an unbalanced instance-second
ledger), a seed's simulated outcomes differ between repeats, or traced
self times miss the traced replay's wall time by more than 1%.  Outside
a checkout of the repository it prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"
WORKER = SUITE / "worker.py"
#: ``workloads.WORKLOADS``, named here so this process needs no import
#: of ``src/``.
WORKLOADS = ("scale-replay", "fresh-decision", "contended-mt")

#: A worker still running this long after its measuring time is killed.
WORKER_GRACE_S = 120

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("arrivals_per_s", "arrivals/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decision_p50_ms", "ms"),
    ("decision_mean_ms", "ms"),
    ("sim_cost_usd_per_1k", "USD/1k"),
    ("sim_latency_p99_s", "s"),
    ("slo_attainment", "fraction"),
)

#: Per-layer span statistics: span name -> the stats reported for it.
#: ``calls`` counts calls, ``self_us`` is the mean self time per call,
#: ``share`` the self time as a fraction of replay wall time, and any
#: other stat is the span's work count (arrivals, leases, rows).
SPAN_STATS = {
    "core.job.decide": ("calls", "self_us", "share"),
    "core.job.decide_many": ("calls", "arrivals", "self_us", "share"),
    "core.job.finalize": ("calls", "self_us", "share"),
    "core.predictor.determine": ("self_us",),
    "core.predictor.determine_batch": ("self_us",),
    "ml.random_forest.predict": ("calls", "self_us", "share"),
    "cloud.pool.acquire_many": ("calls", "leases", "self_us", "share"),
    "cloud.pool.acquire": ("calls", "self_us"),
    "cloud.pool.release": ("calls", "self_us", "share"),
    "cloud.pool.release_instance": ("calls", "self_us", "share"),
    "cloud.pool.apply_plan": ("calls", "self_us"),
    "engine.plan.begin": ("calls", "self_us"),
    "engine.plan.on_granted": ("calls", "self_us", "share"),
    "engine.runner.launch_query": ("calls",),
    "core.serving.stream.observe_columns": (
        "calls", "rows", "self_us", "share"
    ),
    "core.serving.stream.observe": ("calls",),
    "core.epochs.on_epoch_end": ("calls", "self_us"),
    "core.epochs.observe_arrival": ("calls", "self_us"),
    "core.forecast.keep_alive": ("calls", "self_us"),
    "core.forecast.observe_arrival": ("calls", "self_us"),
}
_STAT_UNITS = {"self_us": "us", "share": "fraction"}

#: Report counters: per-layer name -> (worker counter path, unit).
COUNTERS = {
    **{
        f"cloud.pool.{name}": (("pool", name), "count")
        for name in (
            "leases_granted", "leases_queued", "quota_deferrals",
            "work_steals", "cold_starts", "prewarms", "coop_preemptions",
        )
    },
    "cloud.pool.warm_start_rate": (("pool", "warm_start_rate"), "fraction"),
    "cloud.pool.idle_fraction": (("pool", "idle_fraction"), "fraction"),
    "cloud.pool.queueing_p50_s": (("queueing_p50_s",), "s"),
    "cloud.pool.queueing_p99_s": (("queueing_p99_s",), "s"),
    **{
        f"cloud.faults.{name}": (("pool", name), "count")
        for name in (
            "sl_faults", "boot_failures", "preemptions", "leases_revoked",
        )
    },
    "core.serving.retries": (("n_retries",), "count"),
    "core.serving.wasted_cost_share": (("wasted_cost_share",), "fraction"),
    "core.serving.failed_share": (("failed_share",), "fraction"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = _STAT_UNITS.get(stat, "count")
    units.update({
        "engine.simulator.drain_self_us_per_arrival": "us",
        "engine.simulator.events_processed": "count",
        "engine.simulator.share": "fraction",
        "engine.plan.path_ratio": "fraction",
        "core.serving.replay.self_s": "s",
        "core.serving.replay.share": "fraction",
        "core.serving.decision_reuse_hit_ratio": "fraction",
    })
    units.update({name: unit for name, (_, unit) in COUNTERS.items()})
    units.update({
        "workloads.trace_gen_s": "s",
        "core.smartpick.bootstrap_s": "s",
        "trace.overhead_pct": "%",
        "trace.spans_recorded": "count",
    })
    return units


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default) of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values: list[float], unit: str) -> dict:
    """Median and quartiles of one metric over a run's repeats."""
    return {
        "value": statistics.median(values),
        "q1": _percentile(values, 25),
        "q3": _percentile(values, 75),
        "n": len(values),
        "unit": unit,
    }


def end_to_end(worker: dict, untraced: list[dict]) -> dict:
    """End-to-end metrics over one workload's untraced repeats.

    Timings are in reference seconds (see ``speed.py``) and are medians
    over repeats.  Decision latency has one sample per freshly sized
    arrival (reuse hits are not sized): the repeats of one seed size the
    same arrivals in the same order, so each arrival's latency is its
    median over the repeats.  The reuse workloads size only a few dozen
    to a few hundred arrivals per replay, too few for a steady tail
    percentile, so the mean stands for the tail (which it weighs) and
    the p90 and p99 are recorded alongside.
    """
    units = dict(END_TO_END)
    metrics = {
        "arrivals_per_s": summarize(
            [r["n_arrivals"] / r["replay_ref_s"] for r in untraced],
            units["arrivals_per_s"],
        ),
        "setup_s": summarize(
            [r["setup_ref_s"] for r in untraced], units["setup_s"]
        ),
        "peak_rss_mb": summarize(
            [worker["peak_rss_mb"]], units["peak_rss_mb"]
        ),
    }
    decisions = [
        statistics.median(samples)
        for samples in zip(*(r["decision_ms"] for r in untraced))
    ] or [0.0]
    metrics["decision_p50_ms"] = {
        "value": _percentile(decisions, 50),
        "p90": _percentile(decisions, 90),
        "p99": _percentile(decisions, 99),
        "samples": len(decisions),
        "unit": units["decision_p50_ms"],
    }
    metrics["decision_mean_ms"] = {
        "value": statistics.fmean(decisions),
        "samples": len(decisions),
        "unit": units["decision_mean_ms"],
    }
    # Identical across repeats (checked), so any repeat's values stand.
    sim = untraced[0]["sim"]
    for name, key in (
        ("sim_cost_usd_per_1k", "cost_usd_per_1k"),
        ("sim_latency_p99_s", "latency_p99_s"),
        ("slo_attainment", "slo_attainment"),
    ):
        metrics[name] = {"value": sim[key], "unit": units[name]}
    # Wall-clock figures, for reference next to the reference-second ones.
    metrics["arrivals_per_s"]["wall"] = statistics.median(
        r["n_arrivals"] / r["replay_s"] for r in untraced
    )
    metrics["setup_s"]["wall"] = statistics.median(
        r["setup"]["setup_s"] for r in untraced
    )
    return {name: metrics[name] for name, _ in END_TO_END}


def _layer_values(result: dict) -> dict[str, float]:
    """Per-layer values of one traced repeat."""
    trace = result["trace"]
    stats = trace["stats"]
    zero = [0, 0, 0, 0]
    wall_ns = stats["core.serving.replay"][1]
    values = {}
    for span, wanted in SPAN_STATS.items():
        calls, _total_ns, self_ns, work = stats.get(span, zero)
        for stat in wanted:
            if stat == "calls":
                value = calls
            elif stat == "self_us":
                value = self_ns / calls / 1e3 if calls else 0.0
            elif stat == "share":
                value = self_ns / wall_ns
            else:
                value = work
            values[f"{span}.{stat}"] = value
    drain = stats.get("engine.simulator.drain", zero)
    values["engine.simulator.drain_self_us_per_arrival"] = (
        drain[2] / result["n_arrivals"] / 1e3
    )
    values["engine.simulator.events_processed"] = trace["events_processed"]
    values["engine.simulator.share"] = drain[2] / wall_ns
    plan_launches = stats.get("engine.plan.begin", zero)[0]
    fallbacks = stats.get("engine.runner.launch_query", zero)[0]
    values["engine.plan.path_ratio"] = (
        plan_launches / (plan_launches + fallbacks)
        if plan_launches + fallbacks else 0.0
    )
    replay = stats["core.serving.replay"]
    values["core.serving.replay.self_s"] = replay[2] / 1e9
    values["core.serving.replay.share"] = replay[2] / wall_ns
    counters = result["counters"]
    # Sizing attempts: every admitted arrival once, plus every retry.
    attempts = (
        result["n_arrivals"] - counters["n_shed"] + counters["n_retries"]
    )
    sized = (
        stats.get("core.job.decide", zero)[0]
        + stats.get("core.job.decide_many", zero)[3]
    )
    values["core.serving.decision_reuse_hit_ratio"] = (
        1.0 - sized / attempts if attempts else 0.0
    )
    for name, (path, _unit) in COUNTERS.items():
        value = counters
        for key in path:
            value = value[key]
        values[name] = value
    values["workloads.trace_gen_s"] = result["setup"]["trace_gen_s"]
    values["core.smartpick.bootstrap_s"] = result["setup"]["bootstrap_s"]
    values["trace.spans_recorded"] = trace["spans_recorded"]
    return values


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced repeats."""
    units = per_layer_units()
    rows = [_layer_values(result) for result in traced]
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_pct":
            # Untraced repeats run with speed probes; their time is
            # left out, as traced repeats take none.
            traced_s = statistics.median(r["replay_s"] for r in traced)
            untraced_s = statistics.median(r["replay_net_s"] for r in untraced)
            values = [100.0 * (traced_s / untraced_s - 1.0)]
        else:
            values = [row[name] for row in rows]
        metrics[name] = summarize(values, unit)
    return metrics


def trace_partition_error(result: dict) -> float:
    """|sum of self times - traced replay wall| / wall for one repeat."""
    stats = result["trace"]["stats"]
    self_ns = sum(entry[2] for entry in stats.values())
    wall_ns = result["replay_s"] * 1e9
    return abs(self_ns - wall_ns) / wall_ns


class WorkerFailed(RuntimeError):
    pass


def run_worker(arguments: list[str], env: dict, timeout_s: float) -> dict:
    """Run one worker to completion and parse its last output line."""
    try:
        process = subprocess.run(
            [sys.executable, str(WORKER), *arguments],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerFailed(
            f"worker {arguments} exceeded {timeout_s}s"
        ) from error
    if process.returncode != 0:
        raise WorkerFailed(
            f"worker {arguments} exited {process.returncode}:\n"
            f"{process.stderr[-4000:]}"
        )
    return json.loads(process.stdout.strip().splitlines()[-1])


def worker_env() -> dict:
    """Single-threaded, reproducible workers whose files stay in-tree."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src]
    )
    # The native kernel's build cache lives under the checkout.
    env["XDG_CACHE_HOME"] = str(BUILD / "cache")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def collect(workload: str, args, env: dict) -> dict:
    """Run one workload's worker; its repeats carry every measurement."""
    arguments = [
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.repeats is not None:
        arguments += ["--repeats", str(args.repeats)]
    if args.arrivals is not None:
        arguments += ["--arrivals", str(args.arrivals)]
    if args.trace:
        arguments.append("--trace")
    return run_worker(arguments, env, args.seconds + WORKER_GRACE_S)


def check(workload: str, repeats: list[dict]) -> list[str]:
    """Cross-repeat checks: invariants, determinism, trace partition."""
    errors = []
    for result in repeats:
        errors += [f"{workload}: {message}" for message in result["errors"]]
    reference = repeats[0]["sim"]
    for result in repeats[1:]:
        if result["sim"] != reference:
            errors.append(
                f"{workload}: simulated outcomes differ between repeats of "
                f"one seed ({result['sim']} vs {reference})"
            )
    sized = {len(r["decision_ms"]) for r in repeats if not r["traced"]}
    if len(sized) > 1:
        errors.append(
            f"{workload}: repeats of one seed sized {sorted(sized)} arrivals"
        )
    traced = [result for result in repeats if result["traced"]]
    for result in traced:
        error = trace_partition_error(result)
        if error > 0.01:
            errors.append(
                f"{workload}: layer self times miss the traced replay wall "
                f"by {100 * error:.2f}%"
            )
    return errors


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        process = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return process.stdout.strip() or None


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeats per kind (default: fill --seconds)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced repeats; report per-layer "
                        "metrics")
    parser.add_argument("--out", default=str(BUILD / "suite-result.json"))
    parser.add_argument("--arrivals", type=int, default=None,
                        help="override every workload's trace size "
                        "(smoke runs)")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"{ROOT} holds no src/repro: run from a checkout of the "
            "repository", file=sys.stderr,
        )
        return 2

    env = worker_env()
    BUILD.mkdir(exist_ok=True)
    try:
        # Builds (or loads) the native kernel before any timed worker.
        environment = run_worker(["--prepare"], env, WORKER_GRACE_S)
    except WorkerFailed as error:
        print(error, file=sys.stderr)
        return 2
    environment.update({
        "commit": commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    })
    print(
        f"suite: engine={environment['engine']} "
        f"python={environment['python']} numpy={environment['numpy']} "
        f"nproc={environment['nproc']} seed={args.seed}"
    )

    names = [args.workload] if args.workload else list(WORKLOADS)
    output = {"env": environment, "seed": args.seed, "workloads": {}}
    all_spans = {}
    errors: list[str] = []
    attempted = failed = 0
    contract: dict[str, dict] = {}
    for name in names:
        try:
            worker = collect(name, args, env)
        except WorkerFailed as error:
            print(error, file=sys.stderr)
            return 1
        repeats = worker["repeats"]
        untraced = [r for r in repeats if not r["traced"]]
        traced = [r for r in repeats if r["traced"]]
        errors += check(name, repeats)
        attempted += sum(r["n_arrivals"] for r in repeats)
        failed += sum(r["counters"]["n_dropped"] for r in repeats)
        entry = {
            "n_arrivals": untraced[0]["n_arrivals"],
            "applied": worker["applied"],
            "probe": worker["probe"],
            "repeats": len(repeats),
            "failed_share": max(
                r["counters"]["failed_share"] for r in repeats
            ),
            "sim_by_repeat": [r["sim"] for r in repeats],
            "end_to_end": end_to_end(worker, untraced),
        }
        print(
            f"{name}: {entry['n_arrivals']} arrivals, "
            f"{len(untraced)} untraced + {len(traced)} traced repeats"
        )
        for metric, summary in entry["end_to_end"].items():
            print(f"  {metric:<24} {_format(summary['value']):>14} "
                  f"{summary['unit']}")
        reported = entry["end_to_end"]
        if traced:
            entry["per_layer"] = per_layer(traced, untraced)
            entry["trace_stats"] = traced[-1]["trace"]["stats"]
            entry["trace_partition_error"] = max(
                trace_partition_error(r) for r in traced
            )
            # A span whose entry point a refactor removed reads 0.
            entry["missing_spans"] = traced[-1]["trace"]["missing"]
            for target in entry["missing_spans"]:
                print(f"warning: {name}: no entry point {target} to trace",
                      file=sys.stderr)
            all_spans[name] = worker["spans"]
            for metric, summary in entry["per_layer"].items():
                print(f"  {metric:<48} {_format(summary['value']):>14} "
                      f"{summary['unit']}")
            reported = entry["per_layer"]
        prefix = "" if len(names) == 1 else f"{name}."
        contract.update({
            prefix + metric: {"value": s["value"], "unit": s["unit"]}
            for metric, s in reported.items()
        })
        output["workloads"][name] = entry

    output["errors"] = errors
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(output, indent=1) + "\n", encoding="utf-8")
    if all_spans:
        Path(f"{out}.spans.json").write_text(
            json.dumps({
                "fields": ["id", "name", "start_ns", "end_ns", "parent",
                           "work"],
                "workloads": all_spans,
            }),
            encoding="utf-8",
        )
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": contract,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
