"""Workload forecasting for resource management: arrivals drive warmth.

Smartpick's thesis is that *prediction* should drive resource decisions,
yet the pool's stock autoscalers are rear-view heuristics: a fixed
keep-alive window, or a demand rate measured after the fact.  This module
closes the loop the paper motivates (and ServerMix frames as the
keep-alive-cost vs cold-start-latency tradeoff):

- :class:`ArrivalForecaster` watches the arrival stream per *query class*
  (the key the Workload Predictor derives from its Table 3 feature
  schema, :meth:`~repro.core.predictor.WorkloadPredictor.query_class`)
  and forecasts the gap to the next arrival.  Forecasts are optionally
  *scoped* -- one sub-stream per pool shard -- so a shard that stopped
  receiving arrivals forecasts "nothing coming" even while another shard
  is burning hot.
- :class:`PredictiveKeepAlive` turns those forecasts into keep-alive
  decisions: an instance stays warm only when the forecast gap beats the
  **break-even bound** -- the idle time at which keep-alive spend equals
  the warm-boot discount, derived per :class:`~repro.cloud.instances.InstanceKind`
  from the provider's boot latencies and the price book (see
  :meth:`PredictiveKeepAlive.break_even_s` for the derivation).
- :class:`AdaptiveBatchWindow` tunes the serving layer's arrival
  coalescing window from the observed arrival rate and the measured
  per-pass decision latency (the queueing break-even window from the
  micro-batched serving work).

The feedback path is: serving observes arrivals -> forecaster predicts
the next gap per class and shard -> the pool's autoscaler converts the
gap into a keep-alive window at every release.
"""

from __future__ import annotations

import math

from repro.cloud.instances import InstanceKind
from repro.cloud.pool import AutoscalerPolicy, ClusterPool, PoolShard

__all__ = [
    "ArrivalForecaster",
    "AdaptiveBatchWindow",
    "PredictiveKeepAlive",
    "break_even_s",
]


def break_even_s(
    kind: InstanceKind,
    pool: ClusterPool,
    shard: PoolShard | None = None,
) -> float:
    """Idle seconds at which keep-alive spend equals the warm discount.

    Keeping a worker warm for ``t`` idle seconds costs ``rate * t`` (the
    same per-second rate the pool bills idle time at).  A warm hand-over
    then saves the billed boot gap -- the cold boot is billed inside the
    next lease at the same rate, the warm re-attach at only
    ``warm_boot_s`` -- plus, for serverless workers, the invocation fee a
    cold spawn would pay.  Setting cost equal to saving and dividing by
    the rate:

    - VM:  ``t* = vm_boot_s - warm_vm_boot_s``
    - SL:  ``t* = (sl_boot_s - warm_sl_boot_s) + invocation / sl_rate``

    so a worker is worth keeping warm exactly when the next arrival is
    expected within ``t*``.  The same bound prices *pre-warming*: booting
    a worker ahead of a predicted burst pays off exactly when the
    expected idle wait before its first hand-over stays under ``t*``
    (see :class:`repro.core.epochs.FleetPlanner`).
    """
    config = shard.config if shard is not None else pool.config
    if kind is InstanceKind.VM:
        return max(
            pool.provider.vm_boot_seconds - config.warm_vm_boot_s, 0.0
        )
    boot_gap = max(
        pool.provider.sl_boot_seconds - config.warm_sl_boot_s, 0.0
    )
    return boot_gap + pool.prices.sl_invocation / pool.prices.sl_per_second

#: Smoothing factor of the observed-query-duration EWMA shared by
#: :class:`PredictiveKeepAlive` and :class:`repro.core.epochs.FleetPlanner`:
#: responsive to workload shifts without letting one outlier swing the
#: estimate.
DURATION_EWMA_ALPHA = 0.3

#: Cap on distinct query-class meters kept per forecast scope; overflow
#: evicts the class with the oldest last arrival (the most stale, hence
#: the least able to ever contribute a forecast again).
_MAX_CLASSES_PER_SCOPE = 512


class _ClassMeter:
    """Inter-arrival statistics of one query class on one scope."""

    __slots__ = ("last_arrival", "gap_ewma", "n_arrivals")

    def __init__(self) -> None:
        self.last_arrival: float | None = None
        self.gap_ewma: float | None = None
        self.n_arrivals = 0

    def update(self, time_s: float, alpha: float, min_gap_s: float) -> None:
        self.n_arrivals += 1
        if self.last_arrival is None:
            self.last_arrival = time_s
            return
        if time_s < self.last_arrival:
            # Admission-delayed resubmissions can observe slightly out of
            # order; a backwards step carries no gap information.
            return
        gap = max(time_s - self.last_arrival, min_gap_s)
        if self.gap_ewma is None:
            self.gap_ewma = gap
        else:
            self.gap_ewma = alpha * gap + (1.0 - alpha) * self.gap_ewma
        self.last_arrival = time_s


class ArrivalForecaster:
    """Forecasts the next-arrival gap per query class (and per scope).

    Parameters
    ----------
    alpha:
        EWMA smoothing factor for inter-arrival gaps (newest gap weight).
    stale_after:
        A class whose last arrival is older than ``stale_after`` times its
        smoothed gap is considered *gone* and contributes no forecast --
        this is what lets a drained shard's forecast collapse to "nothing
        coming" instead of parroting its last busy period forever.
    min_gap_s:
        Floor applied to observed gaps so same-tick bursts cannot drive
        the EWMA (and with it the staleness horizon) to zero.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        stale_after: float = 4.0,
        min_gap_s: float = 0.05,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if stale_after <= 0.0 or min_gap_s <= 0.0:
            raise ValueError("stale_after and min_gap_s must be positive")
        self.alpha = alpha
        self.stale_after = stale_after
        self.min_gap_s = min_gap_s
        self._scopes: dict[str | None, dict[object, _ClassMeter]] = {None: {}}

    # ------------------------------------------------------------------
    # Observation (the serving layer feeds this)
    # ------------------------------------------------------------------

    def observe(
        self, class_key: object, time_s: float, scope: str | None = None
    ) -> None:
        """Record one arrival of ``class_key`` at ``time_s``.

        The arrival always feeds the global (``None``) scope; when
        ``scope`` names a shard it additionally feeds that shard's
        sub-stream, so per-shard forecasts reflect only the arrivals
        actually routed there.  Each scope keeps at most
        ``_MAX_CLASSES_PER_SCOPE`` class meters (stalest evicted), so a
        long-lived forecaster's memory -- and the per-release forecast
        scan -- stay bounded however many distinct classes pass through.
        """
        self._feed(self._scopes[None], class_key, time_s)
        if scope is not None:
            self._feed(self._scopes.setdefault(scope, {}), class_key, time_s)

    def _feed(
        self, meters: dict[object, _ClassMeter], class_key: object,
        time_s: float,
    ) -> None:
        meter = meters.get(class_key)
        if meter is None:
            if len(meters) >= _MAX_CLASSES_PER_SCOPE:
                stalest = min(
                    meters,
                    key=lambda key: meters[key].last_arrival or 0.0,
                )
                del meters[stalest]
            meter = meters[class_key] = _ClassMeter()
        meter.update(time_s, self.alpha, self.min_gap_s)

    def ensure_scope(self, scope: str) -> None:
        """Pin a scope so it forecasts on its own stream from the start.

        A scope that exists but has seen no arrivals forecasts ``inf``
        (drained); an *unknown* scope falls back to the global stream.
        Feeders that scope every observation (the serving layer) pin
        their scopes up front so a shard that never receives a routed
        arrival is treated as drained, not as pool-global.
        """
        self._scopes.setdefault(scope, {})

    # ------------------------------------------------------------------
    # Forecasts
    # ------------------------------------------------------------------

    def class_gap(
        self, class_key: object, scope: str | None = None
    ) -> float:
        """The smoothed inter-arrival gap of one class (inf if unknown)."""
        meter = self._scopes.get(scope, {}).get(class_key)
        if meter is None or meter.gap_ewma is None:
            return math.inf
        return meter.gap_ewma

    def forecast_gap(self, now: float, scope: str | None = None) -> float:
        """Expected seconds until the next arrival (``inf`` = none coming).

        Per active class the expected next arrival is ``last + gap_ewma``;
        the forecast is the earliest over classes.  A class overdue by
        less than ``stale_after`` gaps is treated as renewal-memoryless
        (its residual is one smoothed gap); one overdue beyond that is
        stale and contributes nothing.  A scope that has never observed
        an arrival falls back to the global stream -- the caller simply
        is not feeding per-scope observations -- while a scope with
        *stale* data correctly forecasts ``inf`` (drained).
        """
        meters = self._scopes.get(scope)
        if meters is None:  # unknown scope: global behaviour (a *pinned*
            # empty scope instead forecasts inf -- see ensure_scope)
            meters = self._scopes[None]
        best = math.inf
        for meter in meters.values():
            if meter.gap_ewma is None or meter.last_arrival is None:
                continue
            if now - meter.last_arrival > self.stale_after * meter.gap_ewma:
                continue  # the class stopped arriving
            remaining = meter.last_arrival + meter.gap_ewma - now
            if remaining <= 0.0:
                # Mildly overdue: approximate the renewal residual with
                # one smoothed gap rather than forecasting "now".
                remaining = meter.gap_ewma
            best = min(best, remaining)
        return best

    def classes(self, scope: str | None = None) -> tuple[object, ...]:
        """The class keys observed on a scope (diagnostics)."""
        return tuple(self._scopes.get(scope, {}))


class PredictiveKeepAlive(AutoscalerPolicy):
    """Forecast-driven keep-alive gated on the break-even bound.

    At every release the policy asks the forecaster for the expected gap
    to the next arrival -- scoped to the releasing shard, so hot shards
    stay warm while cold shards drain -- and keeps the worker warm only
    when that gap beats :meth:`break_even_s`, the idle time at which the
    keep-alive spend equals what a warm start saves.  The keep-alive
    window is ``headroom`` forecast gaps (absorbing forecast error),
    never exceeding ``headroom`` times the break-even bound nor
    ``max_keep_alive_s``.

    Parameters
    ----------
    forecaster:
        The :class:`ArrivalForecaster` fed by the serving layer; a
        private one is created when omitted (feed it via
        :meth:`observe_arrival`).
    headroom:
        Multiple of the forecast gap an instance stays warm for.
    max_keep_alive_s:
        Absolute cap on any keep-alive window.
    per_shard:
        When true (default), forecasts are scoped to the releasing
        shard; false restores pool-global forecasting.
    duration_fraction:
        Duration-aware break-even: widen the park bound by this fraction
        of the smoothed observed query duration (fed via
        :meth:`observe_duration`).  A long-running workload amortises a
        parked worker's idle spend over far more billed lease time --
        and a cold boot delays a long query's completion just as much as
        a short one's -- so the longer the typical query, the further
        past the raw boot-gap break-even parking stays worthwhile.  The
        default ``0.0`` ignores durations entirely (the original bound,
        bit for bit).
    """

    def __init__(
        self,
        forecaster: ArrivalForecaster | None = None,
        headroom: float = 2.0,
        max_keep_alive_s: float = 600.0,
        per_shard: bool = True,
        duration_fraction: float = 0.0,
    ) -> None:
        if headroom <= 0.0 or max_keep_alive_s < 0.0:
            raise ValueError("headroom must be positive, the cap non-negative")
        if duration_fraction < 0.0:
            raise ValueError("duration_fraction must be non-negative")
        self.forecaster = forecaster or ArrivalForecaster()
        self.headroom = headroom
        self.max_keep_alive_s = max_keep_alive_s
        self.per_shard = per_shard
        self.duration_fraction = duration_fraction
        self._duration_ewma: float | None = None

    def observe_arrival(
        self, class_key: object, time_s: float, scope: str | None = None
    ) -> None:
        """Feed one arrival observation through to the forecaster.

        The serving layer duck-types on this method: any autoscaler that
        exposes it receives ``(query class, arrival time, routed shard)``
        for every arrival it serves.
        """
        self.forecaster.observe(class_key, time_s, scope=scope)

    def observe_duration(self, seconds: float) -> None:
        """Feed one completed query's duration into the smoothed estimate.

        An EWMA (:data:`DURATION_EWMA_ALPHA`) smooths the estimate.
        Non-positive durations are ignored.  Only consulted when
        ``duration_fraction > 0``.
        """
        seconds = float(seconds)
        if seconds <= 0.0:
            return
        if self._duration_ewma is None:
            self._duration_ewma = seconds
        else:
            self._duration_ewma += DURATION_EWMA_ALPHA * (
                seconds - self._duration_ewma
            )

    @property
    def duration_estimate_s(self) -> float | None:
        """The smoothed query duration, or ``None`` before any sample."""
        return self._duration_ewma

    def park_bound_s(
        self,
        kind: InstanceKind,
        pool: ClusterPool,
        shard: PoolShard | None = None,
    ) -> float:
        """The duration-weighted park bound: break-even plus amortisation.

        The raw break-even compares idle spend against the warm-boot
        saving of a *single* hand-over.  When typical queries run long,
        each hand-over also amortises the parked worker's idle bill over
        far more billed lease time (and a cold boot delays a long query's
        completion just as much as a short one's), so parking stays
        worthwhile a little past the raw bound.  The widening is
        ``duration_fraction * duration_ewma``; with the default fraction
        of zero this is exactly :meth:`break_even_s`.
        """
        bound = self.break_even_s(kind, pool, shard)
        if self.duration_fraction > 0.0 and self._duration_ewma is not None:
            bound += self.duration_fraction * self._duration_ewma
        return bound

    def break_even_s(
        self,
        kind: InstanceKind,
        pool: ClusterPool,
        shard: PoolShard | None = None,
    ) -> float:
        """The break-even bound (module-level :func:`break_even_s`)."""
        return break_even_s(kind, pool, shard)

    def keep_alive(
        self,
        kind: InstanceKind,
        pool: ClusterPool,
        shard: PoolShard | None = None,
    ) -> float:
        bound = self.park_bound_s(kind, pool, shard)
        if shard is not None and self._backlog_wants(kind, pool, shard):
            # Queued demand is an arrival that already happened: the
            # released worker is about to be re-granted, so park it
            # within the break-even envelope rather than cold-cycling
            # the backlog.  (No forecast needed -- the gap is ~0.)
            return min(self.headroom * bound, self.max_keep_alive_s)
        scope = shard.name if (shard is not None and self.per_shard) else None
        gap = self.forecaster.forecast_gap(pool.simulator.now, scope=scope)
        if not gap <= bound:  # also catches gap == inf (no forecast)
            return 0.0
        return min(
            self.headroom * gap,
            self.headroom * bound,
            self.max_keep_alive_s,
        )

    @staticmethod
    def _backlog_wants(
        kind: InstanceKind, pool: ClusterPool, shard: PoolShard
    ) -> bool:
        """Whether some grantable queued lease could reuse the worker.

        A queue of quota-blocked leases (or leases needing only the
        other worker kind) is not imminent demand for *this* worker --
        parking for it would bill idle time with no chance of a warm
        hand-over.  With work stealing on, another shard's
        grant-eligible backlog counts too when it fits here: the pump
        that runs right after this decision would steal it onto this
        shard, and terminating the warm worker an instant earlier would
        cold-cycle exactly that request.
        """

        def wants(lease) -> bool:
            needs = lease.n_vm if kind is InstanceKind.VM else lease.n_sl
            return needs > 0 and pool.quota_allows(lease)

        for lease in shard.queue:
            if wants(lease):
                return True
        if pool.work_stealing:
            for other in pool.shards:
                if other is shard:
                    continue
                for lease in pool.grant_policy.candidates(other, pool):
                    if wants(lease) and shard.fits(lease):
                        return True
        return False

    def describe(self) -> str:
        scope = "per-shard" if self.per_shard else "pool-global"
        duration = (
            f", duration-weighted({self.duration_fraction:g})"
            if self.duration_fraction > 0.0
            else ""
        )
        return (
            f"predictive-keep-alive(headroom={self.headroom:g}, "
            f"max={self.max_keep_alive_s:g}s, {scope}{duration})"
        )


class AdaptiveBatchWindow:
    """Auto-tunes the arrival-coalescing window from observed feedback.

    The serving layer's micro-batcher trades *batching delay* (arrivals
    wait for their window to close) against *decision time* (a coalesced
    group shares one vectorized sizing pass).  Queueing theory gives the
    break-even: while one decision pass runs for ``D`` seconds, arrivals
    at rate ``lambda`` accumulate behind it anyway, so delaying arrivals
    up to ``D - 1/lambda`` seconds converts queueing they would suffer
    regardless into a shared pass; beyond that the marginal delay exceeds
    the one pass a coalesced member saves.  The tuner therefore tracks an
    EWMA of the observed inter-arrival gap and of the measured per-pass
    decision latency and yields::

        window = clamp(D_ewma - gap_ewma, 0, max_window_s)

    With cheap decisions or sparse arrivals the window is 0 -- coalescing
    is genuinely not worth a wait, and serving degrades to the solo
    path.  Pass an instance as ``ServingSimulator(batch_window_s=...)``
    (or the string ``"auto"`` for a fresh default-configured tuner per
    replay).
    """

    def __init__(self, max_window_s: float = 2.0, alpha: float = 0.3) -> None:
        if max_window_s < 0.0:
            raise ValueError("max_window_s must be non-negative")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.max_window_s = max_window_s
        self.alpha = alpha
        self._last_arrival: float | None = None
        self._gap_ewma: float | None = None
        self._decision_ewma: float | None = None

    def observe_arrival(self, time_s: float) -> None:
        """Record one arrival (simulated seconds).

        Out-of-order observations are ignored outright -- rewinding the
        reference would inflate the next gap fed to the EWMA.
        """
        if self._last_arrival is not None:
            if time_s < self._last_arrival:
                return
            gap = time_s - self._last_arrival
            if self._gap_ewma is None:
                self._gap_ewma = gap
            else:
                self._gap_ewma = (
                    self.alpha * gap + (1.0 - self.alpha) * self._gap_ewma
                )
        self._last_arrival = time_s

    def observe_decision(self, pass_seconds: float) -> None:
        """Record the measured wall time of one sizing pass."""
        if pass_seconds < 0.0:
            return
        if self._decision_ewma is None:
            self._decision_ewma = pass_seconds
        else:
            self._decision_ewma = (
                self.alpha * pass_seconds
                + (1.0 - self.alpha) * self._decision_ewma
            )

    @property
    def gap_s(self) -> float | None:
        """The smoothed inter-arrival gap (None before two arrivals)."""
        return self._gap_ewma

    def window(self) -> float:
        """The coalescing window for the next group (0 = decide solo)."""
        if self._gap_ewma is None or self._decision_ewma is None:
            return 0.0
        return min(
            max(self._decision_ewma - self._gap_ewma, 0.0),
            self.max_window_s,
        )

    def describe(self) -> str:
        return (
            f"adaptive-batch-window(max={self.max_window_s:g}s, "
            f"alpha={self.alpha:g})"
        )
