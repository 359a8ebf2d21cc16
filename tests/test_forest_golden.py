"""Golden digest of the Random Forest a suite-style bootstrap trains.

The served model is retrained inside ``finalize``, so forest fitting is
tuned for speed, but every split it picks must stay the one the per-
feature CART search picked: any change to a threshold, a leaf value or
the feature sub-sampling draws moves every decision downstream.  This
module bootstraps the two models the repo benchmark serves (short and
wide query classes, fixed model seed) and pins a SHA-256 digest over
every tree's node arrays plus the shared generator's end state.  The
digest was produced by the per-feature split search.
"""

from __future__ import annotations

import hashlib
import json

from repro import Smartpick, SmartpickProperties
from repro.workloads import get_query

#: SHA-256 of :func:`forest_digest` under the per-feature split search.
GOLDEN_FOREST_DIGEST = (
    "74d64f39b4e2a9bb4aa2e5c157d5d2efd22949f0e9816d905e4bf4af8cd23087"
)

SHORT_CLASSES = ("uniform-1x1s", "uniform-2x1s", "uniform-2x2s", "uniform-4x1s")
WIDE_CLASSES = ("uniform-2x1s", "uniform-4x1s", "uniform-4x2s", "uniform-8x1s")
_NODE_ARRAYS = (
    "feature", "threshold", "left", "right", "value", "n_samples", "impurity",
)


def bootstrapped(query_classes: tuple[str, ...]) -> Smartpick:
    """The benchmark's served model: four configurations per class."""
    system = Smartpick(
        SmartpickProperties(
            provider="AWS",
            relay=True,
            error_difference_trigger=1e9,
            history_window=256,
        ),
        max_vm=8,
        max_sl=8,
        rng=1207,
    )
    system.bootstrap(
        [get_query(query_id, input_gb=16.0) for query_id in query_classes],
        n_configs_per_query=4,
    )
    return system


def forest_digest() -> str:
    digest = hashlib.sha256()
    for query_classes in (SHORT_CLASSES, WIDE_CLASSES):
        system = bootstrapped(query_classes)
        for tree in system.predictor.forest.trees_:
            buffers = tree._require_fitted()
            for name in _NODE_ARRAYS:
                array = getattr(buffers, name)
                digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
                digest.update(array.tobytes())
        state = system.rng.bit_generator.state
        digest.update(json.dumps(state, sort_keys=True).encode())
    return digest.hexdigest()


def test_forest_matches_golden_digest():
    assert forest_digest() == GOLDEN_FOREST_DIGEST
