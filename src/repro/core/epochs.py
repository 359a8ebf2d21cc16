"""Epoch-level workload planning: forecast the fleet, not the gap.

:class:`~repro.core.forecast.ArrivalForecaster` predicts the *next*
inter-arrival gap, so the pool learns about a diurnal burst only after it
has queued.  Production systems plan capacity per **epoch** instead --
BRAD's ``Workload`` representation (per-epoch query arrival counts,
explicitly designed to be forecasted) and Kassing et al.'s
resource-allocation framing both argue for planning the fleet ahead of
the burst.  This module closes that loop:

- :class:`WorkloadEpoch` summarises one completed serving window:
  per-(tenant, query-class) arrival counts, input-size octaves, the
  observed VM/SL worker mix and per-shard routing counts.  Summaries
  merge associatively, so windows can be coarsened or combined freely.
- :class:`EpochForecaster` predicts the next epoch from a ring of past
  ones: a seasonal-naive term (the epoch one season ago -- yesterday's
  same hour) blended with a per-key EWMA (the recent level), per class
  key and per shard.
- :class:`FleetPlanner` turns the forecast into a :class:`PoolPlan` --
  per-shard capacity targets and pre-warm counts sized by the predicted
  burst against the cold-boot **break-even bound**
  (:func:`repro.core.forecast.break_even_s`): pre-booting a worker ahead
  of a burst pays off exactly when its expected idle wait before the
  first hand-over stays under the bound.
- :class:`ClusterPool.apply_plan` applies the plan at epoch boundaries:
  grow/shrink shard capacity without ever killing leased workers,
  pre-boots billed to the keep-alive ledger.
- :class:`ForecastAwareRouter` feeds the per-shard forecast back into
  routing, co-locating arrivals with *actual* warmth first and predicted
  warmth second -- a cold shard with a hot forecast attracts the
  pre-warm, not the traffic.

The serving loop (``ServingSimulator(planner=...)``) drives the cycle:
arrivals feed the current epoch; at each boundary the epoch is closed
into the forecaster, the next epoch is forecast, and the resulting plan
is applied.  Boundaries are simulator events, so a sizing group due at
a boundary's exact timestamp is sized before the boundary closes.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import Mapping

from repro.cloud.instances import InstanceKind
from repro.cloud.pool import (
    AutoscalerPolicy,
    ClusterPool,
    FixedKeepAlive,
    GrantPolicy,
    PoolShard,
    ShardRouter,
    capable_shards,
)
from repro.core.forecast import DURATION_EWMA_ALPHA, break_even_s

__all__ = [
    "EpochForecast",
    "EpochForecaster",
    "FleetPlanner",
    "ForecastAwareRouter",
    "PoolPlan",
    "WorkloadEpoch",
]

#: Cap on distinct (tenant, class) keys a forecaster tracks; overflow
#: evicts the key with the smallest smoothed count (the least able to
#: ever matter to a plan again).
_MAX_FORECAST_KEYS = 1024

#: Smoothed counts below this are dropped outright -- a key whose EWMA
#: decayed this far contributes nothing to any plan.
_PRUNE_EPSILON = 1e-6


def _input_octave(input_gb: float) -> int:
    """The log2 input-size bucket (matches the predictor's class key)."""
    if input_gb <= 0.0:
        return 0
    return int(math.floor(math.log2(input_gb)))


class WorkloadEpoch:
    """Arrival summary of one serving window (the BRAD ``Workload`` shape).

    Counters only -- no per-arrival state -- so a million-arrival epoch
    costs the same to keep as a ten-arrival one, and summaries
    :meth:`merge` associatively into coarser windows.
    """

    __slots__ = (
        "start_s", "duration_s", "n_arrivals", "counts", "octaves",
        "shard_counts", "vm_workers", "sl_workers",
    )

    def __init__(self, start_s: float = 0.0, duration_s: float = 0.0) -> None:
        if duration_s < 0.0:
            raise ValueError("duration_s must be non-negative")
        self.start_s = start_s
        self.duration_s = duration_s
        self.n_arrivals = 0
        #: (tenant, class_key) -> arrivals this epoch.
        self.counts: dict[tuple[str, object], int] = {}
        #: log2 input-size bucket -> arrivals this epoch.
        self.octaves: dict[int, int] = {}
        #: shard name -> arrivals routed there this epoch.
        self.shard_counts: dict[str, int] = {}
        #: Total workers granted to this epoch's arrivals (observed mix).
        self.vm_workers = 0
        self.sl_workers = 0

    def observe(
        self,
        tenant: str,
        class_key: object,
        input_gb: float = 0.0,
        shard: str | None = None,
        n_vm: int = 0,
        n_sl: int = 0,
    ) -> None:
        """Record one served arrival and its granted worker mix."""
        self.n_arrivals += 1
        key = (tenant, class_key)
        self.counts[key] = self.counts.get(key, 0) + 1
        octave = _input_octave(input_gb)
        self.octaves[octave] = self.octaves.get(octave, 0) + 1
        if shard is not None:
            self.shard_counts[shard] = self.shard_counts.get(shard, 0) + 1
        self.vm_workers += n_vm
        self.sl_workers += n_sl

    def merge(self, other: "WorkloadEpoch") -> "WorkloadEpoch":
        """The combined summary of two windows (associative, commutative
        up to ``start_s`` ordering)."""
        merged = WorkloadEpoch(
            start_s=min(self.start_s, other.start_s),
            duration_s=self.duration_s + other.duration_s,
        )
        merged.n_arrivals = self.n_arrivals + other.n_arrivals
        merged.vm_workers = self.vm_workers + other.vm_workers
        merged.sl_workers = self.sl_workers + other.sl_workers
        for ours, theirs, target in (
            (self.counts, other.counts, merged.counts),
            (self.octaves, other.octaves, merged.octaves),
            (self.shard_counts, other.shard_counts, merged.shard_counts),
        ):
            target.update(ours)
            for key, value in theirs.items():
                target[key] = target.get(key, 0) + value
        return merged

    def describe(self) -> str:
        return (
            f"epoch(start={self.start_s:g}s, dur={self.duration_s:g}s, "
            f"n={self.n_arrivals}, classes={len(self.counts)}, "
            f"mix={self.vm_workers}VM+{self.sl_workers}SL)"
        )


@dataclasses.dataclass(frozen=True)
class EpochForecast:
    """The forecaster's prediction for the next epoch (float counts)."""

    #: Total predicted arrivals.
    arrivals: float
    #: Predicted arrivals per (tenant, class_key).
    by_class: Mapping[tuple[str, object], float]
    #: Predicted arrivals per shard.
    by_shard: Mapping[str, float]
    #: Smoothed granted workers per arrival (None before any data).
    vm_per_arrival: float | None
    sl_per_arrival: float | None


class EpochForecaster:
    """Seasonal-naive + EWMA blend over a ring of past epochs.

    Per key (class or shard) the prediction is::

        seasonal_weight * count[one season ago] + (1 - w) * EWMA(counts)

    The seasonal term captures diurnal structure (the same epoch
    yesterday); the EWMA captures the recent level.  Before a full
    season of history the prediction is the EWMA alone.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor (newest epoch's weight).
    season_length:
        Epochs per season (e.g. 24 for hourly epochs with a daily
        cycle); ``0`` disables the seasonal term.
    seasonal_weight:
        Blend weight of the seasonal-naive term once a full season of
        history exists.
    history:
        Ring size of retained epochs (floored at one season).
    """

    def __init__(
        self,
        alpha: float = 0.5,
        season_length: int = 0,
        seasonal_weight: float = 0.5,
        history: int = 32,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if season_length < 0:
            raise ValueError("season_length must be non-negative")
        if not 0.0 <= seasonal_weight <= 1.0:
            raise ValueError("seasonal_weight must be in [0, 1]")
        if history < 1:
            raise ValueError("history must be at least 1")
        self.alpha = alpha
        self.season_length = season_length
        self.seasonal_weight = seasonal_weight
        self.history = history
        self._ring: collections.deque[WorkloadEpoch] = collections.deque(
            maxlen=max(history, season_length or 1)
        )
        self._class_ewma: dict[tuple[str, object], float] = {}
        self._shard_ewma: dict[str, float] = {}
        self._arrivals_ewma: float | None = None
        self._vm_mix_ewma: float | None = None
        self._sl_mix_ewma: float | None = None
        self.n_observed = 0

    def fresh(self) -> "EpochForecaster":
        """A new forecaster with the same configuration, no state."""
        return EpochForecaster(
            alpha=self.alpha,
            season_length=self.season_length,
            seasonal_weight=self.seasonal_weight,
            history=self.history,
        )

    def observe(self, epoch: WorkloadEpoch) -> None:
        """Fold one completed epoch into the smoothed state and the ring."""
        self.n_observed += 1
        self._ring.append(epoch)
        for ewma, counts in (
            (self._class_ewma, epoch.counts),
            (self._shard_ewma, epoch.shard_counts),
        ):
            for key in list(ewma):
                if key not in counts:
                    decayed = (1.0 - self.alpha) * ewma[key]
                    if decayed < _PRUNE_EPSILON:
                        del ewma[key]
                    else:
                        ewma[key] = decayed
            for key, count in counts.items():
                previous = ewma.get(key)
                if previous is None:
                    if len(ewma) >= _MAX_FORECAST_KEYS:
                        del ewma[min(ewma, key=ewma.get)]
                    ewma[key] = float(count)
                else:
                    ewma[key] = (
                        self.alpha * count + (1.0 - self.alpha) * previous
                    )
        if self._arrivals_ewma is None:
            self._arrivals_ewma = float(epoch.n_arrivals)
        else:
            self._arrivals_ewma = (
                self.alpha * epoch.n_arrivals
                + (1.0 - self.alpha) * self._arrivals_ewma
            )
        if epoch.n_arrivals > 0:
            vm_mix = epoch.vm_workers / epoch.n_arrivals
            sl_mix = epoch.sl_workers / epoch.n_arrivals
            if self._vm_mix_ewma is None:
                self._vm_mix_ewma = vm_mix
                self._sl_mix_ewma = sl_mix
            else:
                self._vm_mix_ewma += self.alpha * (vm_mix - self._vm_mix_ewma)
                self._sl_mix_ewma += self.alpha * (sl_mix - self._sl_mix_ewma)

    def _seasonal(self) -> WorkloadEpoch | None:
        if self.season_length and len(self._ring) >= self.season_length:
            return self._ring[-self.season_length]
        return None

    def forecast(self) -> EpochForecast | None:
        """The next epoch's prediction, or ``None`` before any epoch."""
        if self.n_observed == 0:
            return None
        seasonal = self._seasonal()
        weight = self.seasonal_weight if seasonal is not None else 0.0

        def blend(
            ewma: dict, seasonal_counts: Mapping
        ) -> dict:
            keys = set(ewma)
            keys.update(seasonal_counts)
            out = {}
            for key in keys:
                value = (
                    weight * seasonal_counts.get(key, 0)
                    + (1.0 - weight) * ewma.get(key, 0.0)
                )
                if value >= _PRUNE_EPSILON:
                    out[key] = value
            return out

        seasonal_classes = seasonal.counts if seasonal is not None else {}
        seasonal_shards = (
            seasonal.shard_counts if seasonal is not None else {}
        )
        seasonal_total = seasonal.n_arrivals if seasonal is not None else 0
        arrivals = (
            weight * seasonal_total
            + (1.0 - weight) * (self._arrivals_ewma or 0.0)
        )
        return EpochForecast(
            arrivals=arrivals,
            by_class=blend(self._class_ewma, seasonal_classes),
            by_shard=blend(self._shard_ewma, seasonal_shards),
            vm_per_arrival=self._vm_mix_ewma,
            sl_per_arrival=self._sl_mix_ewma,
        )

    def describe(self) -> str:
        seasonal = (
            f", season={self.season_length}x{self.seasonal_weight:g}"
            if self.season_length
            else ""
        )
        return f"epoch-forecaster(alpha={self.alpha:g}{seasonal})"


def _empty_mapping() -> dict:
    return {}


@dataclasses.dataclass(frozen=True)
class PoolPlan:
    """One epoch's topology decision, applied by
    :meth:`~repro.cloud.pool.ClusterPool.apply_plan`.

    Attributes
    ----------
    shard_capacity:
        shard name -> ``(max_vms, max_sls)`` target.  Clamped by the
        pool so leased workers are never killed and supported worker
        kinds stay servable (see ``apply_plan``).
    prewarm:
        shard name -> ``(n_vm, n_sl)`` workers to pre-boot into the warm
        set, clamped to the shard's free headroom.
    prewarm_keep_alive_s:
        Park window granted to each pre-boot once warm.
    grant_policy:
        Optional pool-wide grant-ordering override.
    shard_autoscalers:
        Optional per-shard keep-alive policy overrides.
    """

    shard_capacity: Mapping[str, tuple[int, int]] = dataclasses.field(
        default_factory=_empty_mapping
    )
    prewarm: Mapping[str, tuple[int, int]] = dataclasses.field(
        default_factory=_empty_mapping
    )
    prewarm_keep_alive_s: float = 300.0
    grant_policy: GrantPolicy | None = None
    shard_autoscalers: Mapping[str, AutoscalerPolicy] | None = None


class FleetPlanner:
    """Forecast-sized proactive provisioning, one decision per epoch.

    The planner accumulates the current epoch's arrivals, and at each
    boundary (driven by the serving loop) closes it into its
    :class:`EpochForecaster` and emits a :class:`PoolPlan`:

    - **Pre-warming.**  For each shard the predicted per-shard arrival
      stream implies an expected inter-arrival gap ``epoch_s /
      arrivals``.  A worker kind is pre-booted only when that gap beats
      its break-even bound (:func:`repro.core.forecast.break_even_s`) --
      the exact condition under which a speculative boot's idle wait
      costs less than the warm-start saving it buys.  The count is the
      predicted concurrent worker demand (``arrivals * duration /
      epoch_s`` times the observed per-arrival mix, with ``headroom``),
      less workers already warm, capped per epoch.
    - **Capacity targets.**  With ``capacity_limits`` set, shard
      capacity grows toward the predicted concurrent demand (never above
      the limit, never below the shard's baseline) and shrinks back to
      baseline as demand fades.  Without limits, capacity is left alone.
    - **Keep-alive windows.**  With ``keep_alive_margin`` set, each plan
      also prices the park window from the forecast: a released worker
      is kept warm for ``margin`` predicted inter-arrival gaps (capped
      at ``max_keep_alive_s``), so the pool parks just long enough to
      bridge the expected gap instead of a fixed window -- long parks in
      quiet epochs where gaps are wide, short parks right after a burst
      where the fleet would otherwise idle on a stale window.

    A planner with ``max_prewarm_vms=0, max_prewarm_sls=0`` and no
    capacity limits emits only empty plans -- serving with such a
    planner is bit-exact with no planner at all (hypothesis-pinned).
    """

    def __init__(
        self,
        epoch_s: float = 300.0,
        forecaster: EpochForecaster | None = None,
        headroom: float = 1.5,
        max_prewarm_vms: int = 4,
        max_prewarm_sls: int = 8,
        prewarm_keep_alive_s: float | None = None,
        capacity_limits: Mapping[str, tuple[int, int]] | None = None,
        grant_policy: GrantPolicy | None = None,
        keep_alive_margin: float | None = None,
        max_keep_alive_s: float = 600.0,
    ) -> None:
        if epoch_s <= 0.0:
            raise ValueError("epoch_s must be positive")
        if headroom <= 0.0:
            raise ValueError("headroom must be positive")
        if max_prewarm_vms < 0 or max_prewarm_sls < 0:
            raise ValueError("pre-warm caps must be non-negative")
        if prewarm_keep_alive_s is not None and prewarm_keep_alive_s <= 0.0:
            raise ValueError("prewarm_keep_alive_s must be positive")
        if keep_alive_margin is not None and keep_alive_margin <= 0.0:
            raise ValueError("keep_alive_margin must be positive")
        if max_keep_alive_s <= 0.0:
            raise ValueError("max_keep_alive_s must be positive")
        self.epoch_s = epoch_s
        self.forecaster = forecaster or EpochForecaster()
        self.headroom = headroom
        self.max_prewarm_vms = max_prewarm_vms
        self.max_prewarm_sls = max_prewarm_sls
        self.prewarm_keep_alive_s = prewarm_keep_alive_s
        self.capacity_limits = dict(capacity_limits or {})
        self.grant_policy = grant_policy
        self.keep_alive_margin = keep_alive_margin
        self.max_keep_alive_s = max_keep_alive_s
        self._epoch: WorkloadEpoch | None = None
        self._duration_ewma: float | None = None
        self._baselines: dict[str, tuple[int, int]] = {}
        self._last_forecast: EpochForecast | None = None
        self.epochs_closed = 0

    def fresh(self) -> "FleetPlanner":
        """A new planner with the same configuration, no learned state.

        The serving layer calls this at the start of every replay so a
        planner instance embedded in a scenario (or reused across
        replays) cannot leak one replay's observations into the next --
        replays stay deterministic and repeatable.
        """
        return FleetPlanner(
            epoch_s=self.epoch_s,
            forecaster=self.forecaster.fresh(),
            headroom=self.headroom,
            max_prewarm_vms=self.max_prewarm_vms,
            max_prewarm_sls=self.max_prewarm_sls,
            prewarm_keep_alive_s=self.prewarm_keep_alive_s,
            capacity_limits=self.capacity_limits,
            grant_policy=self.grant_policy,
            keep_alive_margin=self.keep_alive_margin,
            max_keep_alive_s=self.max_keep_alive_s,
        )

    # ------------------------------------------------------------------
    # Observation (the serving layer feeds this)
    # ------------------------------------------------------------------

    def begin(self, now: float) -> None:
        """Open the first epoch at the replay's start time."""
        self._epoch = WorkloadEpoch(start_s=now, duration_s=self.epoch_s)

    def observe_arrival(
        self,
        tenant: str,
        class_key: object,
        input_gb: float = 0.0,
        shard: str | None = None,
        n_vm: int = 0,
        n_sl: int = 0,
    ) -> None:
        """Record one served arrival into the current epoch."""
        if self._epoch is None:
            self._epoch = WorkloadEpoch(duration_s=self.epoch_s)
        self._epoch.observe(
            tenant, class_key, input_gb, shard=shard, n_vm=n_vm, n_sl=n_sl
        )

    def observe_duration(self, seconds: float) -> None:
        """Feed one completed query's duration (sizes concurrent demand)."""
        seconds = float(seconds)
        if seconds <= 0.0:
            return
        if self._duration_ewma is None:
            self._duration_ewma = seconds
        else:
            self._duration_ewma += DURATION_EWMA_ALPHA * (
                seconds - self._duration_ewma
            )

    # ------------------------------------------------------------------
    # Planning (the serving loop drives this at epoch boundaries)
    # ------------------------------------------------------------------

    def on_epoch_end(self, pool: ClusterPool, now: float) -> PoolPlan:
        """Close the current epoch, forecast the next, emit its plan."""
        epoch = self._epoch or WorkloadEpoch(duration_s=self.epoch_s)
        epoch.duration_s = max(now - epoch.start_s, 0.0) or self.epoch_s
        self._epoch = WorkloadEpoch(start_s=now, duration_s=self.epoch_s)
        self.forecaster.observe(epoch)
        self.epochs_closed += 1
        return self.plan(pool)

    def shard_forecast(self, name: str) -> float:
        """Predicted arrivals on one shard next epoch (0 before data)."""
        if self._last_forecast is None:
            return 0.0
        return self._last_forecast.by_shard.get(name, 0.0)

    def plan(self, pool: ClusterPool) -> PoolPlan:
        """The next epoch's :class:`PoolPlan` from the current forecast."""
        forecast = self.forecaster.forecast()
        self._last_forecast = forecast
        for shard in pool.shards:
            self._baselines.setdefault(
                shard.name, (shard.config.max_vms, shard.config.max_sls)
            )
        if forecast is None or forecast.arrivals <= 0.0:
            # Nothing predicted: no pre-warming, capacity back to baseline.
            capacity = {
                name: self._baselines[name] for name in self.capacity_limits
                if name in self._baselines
                and self._baselines[name] != (
                    pool.shard(name).config.max_vms,
                    pool.shard(name).config.max_sls,
                )
            }
            return PoolPlan(
                shard_capacity=capacity, grant_policy=self.grant_policy
            )
        prewarm: dict[str, tuple[int, int]] = {}
        capacity: dict[str, tuple[int, int]] = {}
        autoscalers: dict[str, AutoscalerPolicy] = {}
        for shard in pool.shards:
            predicted = forecast.by_shard.get(shard.name, 0.0)
            wants = self._shard_demand(forecast, predicted)
            n_vm, n_sl = self._prewarm_counts(pool, shard, predicted, wants)
            if n_vm or n_sl:
                prewarm[shard.name] = (n_vm, n_sl)
            target = self._capacity_target(shard, wants)
            if target is not None:
                capacity[shard.name] = target
            window = self._keep_alive_window(predicted)
            if window is not None:
                autoscalers[shard.name] = FixedKeepAlive(window, window / 4.0)
        return PoolPlan(
            shard_capacity=capacity,
            prewarm=prewarm,
            prewarm_keep_alive_s=(
                self.prewarm_keep_alive_s
                if self.prewarm_keep_alive_s is not None
                else self.epoch_s
            ),
            grant_policy=self.grant_policy,
            shard_autoscalers=autoscalers or None,
        )

    def _shard_demand(
        self, forecast: EpochForecast, predicted: float
    ) -> tuple[float, float]:
        """Expected concurrent (vm, sl) worker demand on one shard."""
        if predicted <= 0.0:
            return (0.0, 0.0)
        vm_mix = forecast.vm_per_arrival
        sl_mix = forecast.sl_per_arrival
        if vm_mix is None or sl_mix is None:
            return (0.0, 0.0)  # no mix observed yet: nothing to size
        if self._duration_ewma is not None:
            concurrency = min(
                predicted * self._duration_ewma / self.epoch_s, predicted
            )
            concurrency = max(concurrency, 1.0)
        else:
            concurrency = 1.0  # no durations yet: one arrival in flight
        return (
            self.headroom * concurrency * vm_mix,
            self.headroom * concurrency * sl_mix,
        )

    def _prewarm_counts(
        self,
        pool: ClusterPool,
        shard: PoolShard,
        predicted: float,
        wants: tuple[float, float],
    ) -> tuple[int, int]:
        if predicted <= 0.0:
            return (0, 0)
        expected_gap = self.epoch_s / predicted
        counts = []
        for kind, want, cap, warm in (
            (InstanceKind.VM, wants[0], self.max_prewarm_vms,
             shard.warm_vms),
            (InstanceKind.SERVERLESS, wants[1], self.max_prewarm_sls,
             shard.warm_sls),
        ):
            if cap <= 0 or expected_gap > break_even_s(kind, pool, shard):
                counts.append(0)
                continue
            counts.append(max(min(math.ceil(want), cap) - warm, 0))
        return (counts[0], counts[1])

    def _keep_alive_window(self, predicted: float) -> float | None:
        """The forecast-priced park window for next epoch (None: no
        override planned)."""
        if self.keep_alive_margin is None or predicted <= 0.0:
            return None
        expected_gap = self.epoch_s / predicted
        return min(self.keep_alive_margin * expected_gap, self.max_keep_alive_s)

    def _capacity_target(
        self, shard: PoolShard, wants: tuple[float, float]
    ) -> tuple[int, int] | None:
        limits = self.capacity_limits.get(shard.name)
        if limits is None:
            return None
        base_vms, base_sls = self._baselines[shard.name]
        target_vms = min(max(math.ceil(wants[0]), base_vms), limits[0])
        target_sls = min(max(math.ceil(wants[1]), base_sls), limits[1])
        if (target_vms, target_sls) == (
            shard.config.max_vms, shard.config.max_sls
        ):
            return None  # already there: keep the plan minimal
        return (target_vms, target_sls)

    def describe(self) -> str:
        scaled = (
            f", capacity<=({', '.join(sorted(self.capacity_limits))})"
            if self.capacity_limits
            else ""
        )
        windows = (
            f", keep-alive={self.keep_alive_margin:g}x gap"
            if self.keep_alive_margin is not None
            else ""
        )
        return (
            f"fleet-planner(epoch={self.epoch_s:g}s, "
            f"prewarm<=({self.max_prewarm_vms}VM, {self.max_prewarm_sls}SL), "
            f"headroom={self.headroom:g}, "
            f"{self.forecaster.describe()}{scaled}{windows})"
        )


class ForecastAwareRouter(ShardRouter):
    """Route arrivals to warmth -- actual first, predicted second.

    Among the shards that can serve the most of the request (the same
    capability filter the other routers apply), candidates are ranked by
    how much of the request they could hand over *warm right now*, then
    by the planner's predicted arrivals for the shard next epoch, then
    by free capacity.  Actual warmth dominates: a cold shard with a hot
    forecast receives the planner's pre-warm, not the traffic -- the
    traffic follows once the pre-boots land in its warm set.  The
    forecast tie-break keeps a sustained stream consolidated on the
    shard the planner is heating instead of spraying it across equally
    cold shards.
    """

    def __init__(self, planner: FleetPlanner) -> None:
        self.planner = planner

    def route(
        self, n_vm: int, n_sl: int, tenant: str, pool: ClusterPool
    ) -> str:
        # ``max`` keeps the first of equal keys: declaration order.
        return max(
            capable_shards(pool, n_vm, n_sl),
            key=lambda shard: (
                min(n_vm, shard.warm_vms) + min(n_sl, shard.warm_sls),
                self.planner.shard_forecast(shard.name),
                shard.free_vms + shard.free_sls,
            ),
        ).name

    def describe(self) -> str:
        return "forecast-aware"
