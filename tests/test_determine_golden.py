"""Golden digest of solo ``WorkloadPredictor.determine`` decisions.

``determine`` runs the paper's RF + BO loop (Section 3.1) against
precomputed tables: every candidate's forest estimate comes from one
tree-matrix pass and the GP surrogate reads a cached candidate Gram.
Those tables must reproduce the per-probe evaluation they replaced bit
for bit, so this module pins a SHA-256 digest over every decision field
(configuration, estimates, probe count, convergence flag and the
Estimated Time list bytes) across modes, quota bounds and knobs, plus
the predictor generator's end state -- the Eq. 2 noise draws interleave
with the optimizer's tie-break draws, so any change in probe order
shows up there.  The digest was produced by the per-probe
implementation; it must hold on the native and the numpy-fallback
inference engines alike.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json

import numpy as np
import pytest

from repro.cloud.pricing import get_prices
from repro.cloud.providers import get_provider
from repro.core.features import FEATURE_NAMES, FeatureVector
from repro.core.predictor import (
    PredictionRequest,
    WorkloadPredictor,
    _objective_table,
)
from repro.ml.bayesian_optimizer import BayesianOptimizer
from repro.ml.dataset import Dataset
from repro.ml.kernels import Matern52Kernel

AWS_PROFILE = get_provider("aws")
AWS_PRICES = get_prices("aws")

#: SHA-256 of :func:`determine_digest` under the per-probe implementation.
GOLDEN_DETERMINE_DIGEST = (
    "9d701ee055cf47c5a3cff1f781de9f48be34b0a1606a4ce12090dbf601f6ba64"
)

_MODES = ("hybrid", "vm-only", "sl-only")
#: Quota caps per sweep; ``None`` leaves an axis at the predictor bound.
_BOUNDS = ((None, None), (3, 5), (0, 4), (6, 0), (2, 2))
_KNOBS = (0.0, 0.3, 0.7)


def trained_predictor(max_vm: int, max_sl: int, seed: int) -> WorkloadPredictor:
    """A small trained predictor with a varied, noisy training set."""
    predictor = WorkloadPredictor(
        AWS_PROFILE,
        AWS_PRICES,
        max_vm=max_vm,
        max_sl=max_sl,
        n_estimators=30,
        rng=seed,
    )
    rng = np.random.default_rng(seed)
    rows, targets = [], []
    for _ in range(150):
        n_vm = int(rng.integers(0, max_vm + 1))
        n_sl = int(rng.integers(0, max_sl + 1))
        if n_vm + n_sl == 0:
            n_vm = 1
        input_gb = float(rng.choice([8.0, 16.0, 32.0, 100.0]))
        features = FeatureVector.build(
            n_vm=n_vm,
            n_sl=n_sl,
            input_size_gb=input_gb,
            start_time_epoch=1.7e9 + 300.0 * len(rows),
            historical_duration_s=float(rng.uniform(60.0, 400.0)),
            num_waiting_apps=int(rng.integers(0, 6)),
        )
        rows.append(features.as_array())
        targets.append(
            40.0 * input_gb / (n_vm + n_sl)
            + (30.0 if n_vm else 0.0)
            + float(rng.normal(0.0, 5.0))
        )
    predictor.fit(
        Dataset(np.stack(rows), np.array(targets), FEATURE_NAMES),
        query_ids=("golden",),
    )
    return predictor


def golden_requests() -> list[PredictionRequest]:
    return [
        PredictionRequest(
            query_id="golden",
            input_size_gb=input_gb,
            start_time_epoch=1.7e9 + 977.0 * index,
            historical_duration_s=90.0 + 37.0 * index,
            num_waiting_apps=waiting,
        )
        for index, (input_gb, waiting) in enumerate(
            ((8.0, 0), (32.0, 2), (100.0, 5), (16.0, 25))
        )
    ]


def _sweeps():
    """``(mode, max_vm, max_sl)`` cases the per-probe path could size.

    A single-axis mode whose only axis is capped to zero is left out:
    the per-probe implementation raised on it (an empty grid), and the
    fallback to the unconstrained search is pinned in
    ``tests/test_core_predictor.py`` instead.
    """
    for mode in _MODES:
        for max_vm, max_sl in _BOUNDS:
            if mode == "vm-only" and max_vm == 0:
                continue
            if mode == "sl-only" and max_sl == 0:
                continue
            yield mode, max_vm, max_sl


def _decision_bytes(decision) -> bytes:
    header = (
        f"{decision.n_vm},{decision.n_sl},{decision.predicted_seconds!r},"
        f"{decision.estimated_cost!r},{decision.n_evaluations},"
        f"{decision.converged}"
    ).encode()
    grid = decision.grid
    return (
        header
        + grid.candidates.tobytes()
        + grid.seconds.tobytes()
        + grid.costs.tobytes()
    )


def determine_digest() -> str:
    """SHA-256 over every solo decision of the golden sweep."""
    digest = hashlib.sha256()
    for max_vm, max_sl, seed in ((8, 8, 5), (12, 12, 9)):
        predictor = trained_predictor(max_vm, max_sl, seed)
        requests = golden_requests()
        for mode, cap_vm, cap_sl in _sweeps():
            for knob in _KNOBS:
                for request in requests:
                    decision = predictor.determine(
                        request,
                        knob=knob,
                        mode=mode,
                        max_vm=cap_vm,
                        max_sl=cap_sl,
                    )
                    digest.update(_decision_bytes(decision))
        # A tight probe budget stops the loop before convergence.
        for request in requests:
            decision = predictor.determine(request, max_iterations=5)
            digest.update(_decision_bytes(decision))
        state = predictor._rng.bit_generator.state
        digest.update(json.dumps(state, sort_keys=True).encode())
    return digest.hexdigest()


def test_determine_matches_golden_digest():
    assert determine_digest() == GOLDEN_DETERMINE_DIGEST


# ---------------------------------------------------------------------------
# The tables behind the digest, each against the per-probe computation it
# stands in for.
# ---------------------------------------------------------------------------

_GRIDS = (
    ("hybrid", (None, None)),
    ("hybrid", (3, 5)),
    ("vm-only", (None, None)),
    ("sl-only", (2, 2)),
)


@pytest.fixture(scope="module")
def predictor() -> WorkloadPredictor:
    return trained_predictor(8, 8, 5)


@pytest.mark.parametrize("mode, caps", _GRIDS)
def test_candidate_gram_matches_matern_bitwise(mode, caps):
    # The BO posterior reads its prior covariance from this one Gram, so
    # every block of it must be bitwise what a direct Matern build on the
    # candidate rows gives.
    grid = WorkloadPredictor(
        AWS_PROFILE, AWS_PRICES, max_vm=12, max_sl=12
    ).candidate_grid(mode, *caps)
    matern = Matern52Kernel(BayesianOptimizer._default_length_scale(grid))
    gram = BayesianOptimizer.candidate_gram(grid)
    assert gram.tobytes() == matern(grid, grid).tobytes()
    assert gram.diagonal().tobytes() == matern.diagonal(grid).tobytes()
    rng = np.random.default_rng(grid.shape[0])
    n = grid.shape[0]
    for _ in range(40):
        a = rng.choice(n, size=int(rng.integers(1, min(n, 25) + 1)), replace=False)
        b = rng.choice(n, size=int(rng.integers(1, min(n, 25) + 1)), replace=False)
        expected = matern(grid[a], grid[b])
        assert gram[np.ix_(a, b)].tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode, caps", _GRIDS)
def test_objective_table_matches_single_row_predict(predictor, mode, caps):
    eff_vm, eff_sl = predictor._effective_bounds(*caps, mode)
    grid = predictor.candidate_grid(mode, eff_vm, eff_sl)
    for request in golden_requests():
        trees = predictor._grid_tree_matrix(
            [request], mode, grid, eff_vm, eff_sl
        )
        expected = [
            predictor.predict_duration(request.feature_vector(int(v), int(s)))
            for v, s in grid
        ]
        assert np.array(_objective_table(trees)).tobytes() == (
            np.array(expected).tobytes()
        )


@pytest.mark.parametrize("mode", _MODES)
def test_estimated_time_list_matches_batched_predict(predictor, mode):
    # The list's estimates are what one batched predict over the probes
    # plus the winner returns.
    for request in golden_requests():
        decision = predictor.determine(request, mode=mode, max_vm=4)
        best = decision.best_entry
        rows = np.vstack([decision.grid.candidates, [[best.n_vm, best.n_sl]]])
        expected = predictor.predict_durations(request.feature_matrix(rows))
        assert decision.grid.seconds.tobytes() == expected[:-1].tobytes()
        assert best.estimated_seconds == float(expected[-1])


def test_search_tables_memoized_read_only(predictor):
    gram, row_of = predictor._search_tables("hybrid", 8, 8)
    assert predictor._search_tables("hybrid", 8, 8)[0] is gram
    assert not gram.flags.writeable and not row_of.flags.writeable
    grid = predictor.candidate_grid("hybrid")
    assert np.array_equal(
        row_of[grid[:, 0].astype(int), grid[:, 1].astype(int)],
        np.arange(grid.shape[0]),
    )


def test_solo_determine_leaves_no_ctypes_cycles(predictor):
    """Native kernel calls pass raw data pointers, so a solo decision
    leaves no ``c_void_p`` reference cycle for the collector."""
    requests = golden_requests()
    predictor.determine(requests[0])  # builds the lazily compiled tables
    gc.collect()
    gc.disable()
    try:
        predictor.determine(requests[1], knob=0.4, mode="hybrid")
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [
            item for item in gc.garbage if isinstance(item, ctypes.c_void_p)
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


if __name__ == "__main__":
    print(determine_digest())
