"""The native BO search: its link, its ``ndtr``, its lock, its fallback.

``WorkloadPredictor.determine`` runs its whole PI search in one call of
the kernel's ``bo_search`` (:func:`repro.ml.bayesian_optimizer.search_table`).
The search draws from the predictor's generator through numpy's static
``libnpyrandom`` and scores PI with the kernel's own port of scipy's
``ndtr``, so:

- the kernel's ``ndtr`` must be bitwise ``scipy.special.ndtr`` on every
  branch of the Cephes code, and the linked samplers must leave the bit
  generator where ``Generator``'s own ``normal`` / ``integers`` calls
  leave it;
- the call must hold the bit generator's lock, as the generator's own
  methods do (``core/rpc.py`` serves ``determine`` from threads);
- without the archive or with a failed link, the library still loads
  its other entry points and ``determine`` falls back to
  :meth:`BayesianOptimizer.maximize` with the same decisions (the golden
  digest of ``tests/test_determine_golden.py``);
- a search that fails raises what ``maximize`` raises, after the same
  draws.
"""

from __future__ import annotations

import ctypes
import subprocess
import threading

import numpy as np
import pytest
from scipy.special import ndtr

from repro.ml import forest_native
from repro.ml.acquisition import ProbabilityOfImprovement
from repro.ml.bayesian_optimizer import BayesianOptimizer, search_table

from test_determine_golden import (
    GOLDEN_DETERMINE_DIGEST,
    determine_digest,
    golden_requests,
    trained_predictor,
)

KERNEL = forest_native.load_kernel()
native_only = pytest.mark.skipif(KERNEL is None, reason="native kernel unavailable")
search_only = pytest.mark.skipif(
    KERNEL is None or KERNEL.bo_search is None,
    reason="native BO search unavailable",
)

_ENTRY_POINTS = (
    "forest_tree_matrix",
    "forest_grid_matrix",
    "matern_gram",
    "cart_grow",
    "bo_step",
)


def _reload(monkeypatch, cache_home=None):
    """A fresh :func:`load_kernel`, the memo restored after the test."""
    monkeypatch.setattr(forest_native, "_CACHE", {})
    if cache_home is not None:
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    return forest_native.load_kernel()


def _assert_degrades_to_maximize(kernel, missing):
    assert kernel is not None and getattr(kernel, missing) is None
    for name in _ENTRY_POINTS:
        assert getattr(kernel, name) is not None
    assert determine_digest() == GOLDEN_DETERMINE_DIGEST


@native_only
def test_missing_npyrandom_archive_degrades(monkeypatch, tmp_path):
    monkeypatch.setattr(forest_native, "_npyrandom_archive", lambda: None)
    _assert_degrades_to_maximize(_reload(monkeypatch, tmp_path), "bo_search")


@native_only
def test_failed_npyrandom_link_degrades(monkeypatch, tmp_path):
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(b"not an archive")
    monkeypatch.setattr(forest_native, "_npyrandom_archive", lambda: str(archive))
    _assert_degrades_to_maximize(
        _reload(monkeypatch, tmp_path / "cache"), "bo_search"
    )


def test_library_key_covers_numpy_and_the_archive(monkeypatch, tmp_path):
    # libnpyrandom is linked in statically: a numpy upgrade or another
    # archive must build another library, not load stale draw code.
    base = forest_native._library_path()
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", np.__version__ + "+other")
        assert forest_native._library_path() != base
    with monkeypatch.context() as patch:
        patch.setattr(forest_native, "_npyrandom_archive", lambda: None)
        missing = forest_native._library_path()
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(b"one archive")
    with monkeypatch.context() as patch:
        patch.setattr(forest_native, "_npyrandom_archive", lambda: str(archive))
        one = forest_native._library_path()
        archive.write_bytes(b"another archive")
        another = forest_native._library_path()
    # Where numpy ships no archive, ``base`` is ``missing``.
    assert len({missing, one, another}) == 3


# ---------------------------------------------------------------------------
# The linked samplers and the kernel's ndtr, driven from C.
# ---------------------------------------------------------------------------

_CALLERS = r"""
/* kinds[i] == 0: a normal draw with scale 1 + i % 7; otherwise an
 * integers(kinds[i]) draw, as Generator.integers makes it. */
void draw(bitgen_t *bitgen, const int64_t *kinds, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; ++i) {
        if (kinds[i] == 0) {
            out[i] = random_normal(bitgen, 0.0, 1.0 + (double)(i % 7));
        } else {
            uint64_t value;
            random_bounded_uint64_fill(bitgen, 0, (uint64_t)(kinds[i] - 1),
                                       1, false, &value);
            out[i] = (double)value;
        }
    }
}

void apply(double (*f)(double), const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; ++i) out[i] = f(x[i]);
}
"""


@pytest.fixture(scope="module")
def callers(tmp_path_factory):
    """Two C functions over the kernel's libnpyrandom declarations,
    linked against the same archive."""
    archive = forest_native._npyrandom_archive()
    compiler = forest_native._compiler()
    if KERNEL is None or archive is None or compiler is None:
        pytest.skip("native BO search unavailable")
    workdir = tmp_path_factory.mktemp("callers")
    source = workdir / "callers.c"
    source.write_text(forest_native._NPYRANDOM_API + _CALLERS)
    library = workdir / "callers.so"
    subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", "-o", str(library), str(source),
         archive, "-lm"],
        check=True,
        capture_output=True,
    )
    lib = ctypes.CDLL(str(library))
    for function in (lib.draw, lib.apply):
        function.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64, ctypes.c_void_p]
        function.restype = None
    return lib


def _ndtr_sweep(rng):
    """At least 10M points over every branch of Cephes' ``ndtr``, in
    chunks of at most 1M."""
    sqrt2 = np.sqrt(2.0)
    tiny = np.finfo(np.float64).tiny
    specials = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, tiny, -tiny,
                5e-324, -5e-324, tiny / 3.0, -tiny / 3.0]
    nan_payload = np.array([0x7FF0000000000001, 0xFFF8000000000123],
                           dtype=np.uint64).view(np.float64)
    yield np.concatenate([specials, nan_payload, rng.uniform(-tiny, tiny, 1000)])
    yield from (rng.normal(0.0, 1.0, 10**6) for _ in range(2))
    yield from (rng.normal(0.0, 10.0, 10**6) for _ in range(2))
    yield from (rng.uniform(-40.0, 40.0, 10**6) for _ in range(2))
    # Magnitudes from 1e-20 to 1e2 (erf's tiny-x end and the far tails).
    for _ in range(2):
        sign = rng.choice([-1.0, 1.0], 10**6)
        yield sign * 10.0 ** rng.uniform(-20.0, 2.0, 10**6)
    # ndtr's erf/erfc switch (|a| = 1), erf's and erfc's own switch
    # (|a| = sqrt 2), erfc's P/Q to R/S split (|a| = 8 sqrt 2) and the
    # exp underflow (|a| = sqrt(2 MAXLOG), about 37.7): dense sweeps,
    # and the ulps either side of each edge, on both signs.
    for edge in (1.0, sqrt2, 8.0 * sqrt2, np.sqrt(2.0 * 709.782712893384)):
        sweep = edge + np.linspace(-0.01, 0.01, 500_001)
        ulps = np.nextafter(edge, np.inf) - edge
        sweep = np.concatenate([sweep, edge + ulps * np.arange(-500, 501)])
        yield np.concatenate([sweep, -sweep])


@native_only
def test_kernel_ndtr_is_the_ufunc_bitwise(callers):
    # The library both load_kernel and this handle open: one mapping.
    address = ctypes.cast(
        ctypes.CDLL(forest_native._library_path()).ndtr, ctypes.c_void_p
    ).value
    checked = 0
    for values in _ndtr_sweep(np.random.default_rng(0)):
        out = np.empty_like(values)
        callers.apply(address, values.ctypes.data, values.size, out.ctypes.data)
        expected = ndtr(values)
        mismatched = out.view(np.uint64) != expected.view(np.uint64)
        assert not mismatched.any(), (
            values[mismatched][:5], out[mismatched][:5], expected[mismatched][:5]
        )
        checked += values.size
    assert checked >= 10**7


def test_linked_draws_leave_the_generator_state_of_its_own_calls(callers):
    # Interleaved normal and bounded-integer draws, ranges past 2**32
    # included (the 64-bit Lemire branch) and ranges of 1 (no draw).
    kinds = np.random.default_rng(1).choice(
        [0, 0, 0, 1, 2, 3, 17, 1000, 2**33 + 5], size=200_000
    ).astype(np.int64)
    native, reference = np.random.default_rng(7), np.random.default_rng(7)
    out = np.empty(kinds.size)
    with native.bit_generator.lock:
        callers.draw(
            native.bit_generator.ctypes.bit_generator,
            kinds.ctypes.data,
            kinds.size,
            out.ctypes.data,
        )
    expected = [
        reference.normal(0.0, 1.0 + index % 7)
        if kind == 0
        else float(reference.integers(kind))
        for index, kind in enumerate(kinds.tolist())
    ]
    assert out.tobytes() == np.array(expected).tobytes()
    assert native.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# The generator lock.
# ---------------------------------------------------------------------------


def _signature(decision) -> tuple:
    grid = decision.grid
    return (
        decision.config,
        decision.n_evaluations,
        decision.converged,
        grid.candidates.tobytes() + grid.seconds.tobytes() + grid.costs.tobytes(),
    )


def _held_by_another_thread(lock) -> bool:
    """Whether a fresh thread fails to take ``lock`` (an ``RLock``, so
    its owner could always re-enter it)."""
    taken = []

    def probe():
        taken.append(lock.acquire(blocking=False))
        if taken[0]:
            lock.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return not taken[0]


@search_only
def test_determine_blocks_while_the_generator_lock_is_held(monkeypatch):
    predictor = trained_predictor(8, 8, 5)
    request = golden_requests()[1]
    predictor.determine(request)  # builds the lazily compiled tables
    lock = predictor._rng.bit_generator.lock
    held = []
    bo_search = KERNEL.bo_search

    def observed(*args):
        held.append(_held_by_another_thread(lock))
        return bo_search(*args)

    monkeypatch.setattr(KERNEL, "bo_search", observed)
    state = predictor._rng.bit_generator.state
    expected = _signature(predictor.determine(request))
    predictor._rng.bit_generator.state = state
    decisions = []
    worker = threading.Thread(
        target=lambda: decisions.append(predictor.determine(request))
    )
    with lock:
        worker.start()
        worker.join(0.3)
        assert worker.is_alive() and not decisions
    worker.join(30.0)
    assert [_signature(decision) for decision in decisions] == [expected]
    # The search ran, serially and in the worker, under the lock.
    assert held == [True, True]


# ---------------------------------------------------------------------------
# Errors the search reports as maximize raises them.
# ---------------------------------------------------------------------------


def _maximize_table(table, gram, rng):
    """``maximize`` with the Eq. 2 objective over ``table``."""
    candidates = np.arange(float(table.size))[:, None]

    def objective(point):
        predicted = float(table[int(point[0])])
        return -(predicted + rng.normal(0.0, 0.01 * max(predicted, 1.0)))

    return BayesianOptimizer(
        objective, candidates, n_initial=2, gram=gram, rng=rng
    ).maximize(60)


@search_only
@pytest.mark.parametrize(
    "table, gram, error",
    [
        # The second probe's Schur complement is 1 + noise - 4 / (1 + noise).
        (np.array([100.0, 200.0]), np.array([[1.0, 2.0], [2.0, 1.0]]), ValueError),
        # Eq. 2's noise overflows RF_t to infinity: NaN posterior, NaN
        # PI, and numpy's argmax finds no maximum.
        (np.full(6, 1.7e308), np.eye(6), IndexError),
    ],
)
def test_search_table_raises_as_maximize_does(table, gram, error):
    messages, states = [], []
    for run in (
        lambda rng: search_table(
            table, gram, rng, ProbabilityOfImprovement(), 2, 0.01, 10, 60
        ),
        lambda rng: _maximize_table(table, gram, rng),
    ):
        rng = np.random.default_rng(3)
        with pytest.raises(error) as raised:
            run(rng)
        messages.append(str(raised.value))
        states.append(rng.bit_generator.state)
    assert messages[0] == messages[1]
    assert states[0] == states[1]
