"""Optional compiled descent kernel for :class:`~repro.ml.forest_inference.PackedForest`.

Pure-numpy lock-step descent is bound by gather bandwidth: every depth
level costs several full-width index operations, which caps the speedup
over the per-tree loop at ~2x for large batches.  The actual descent is
a 16-byte-per-node pointer chase that a C compiler turns into a tight
pipelined loop, so when a system C compiler is available this module
builds (once, cached by source hash) a tiny shared library and exposes
it through :mod:`ctypes`.

Everything degrades gracefully: no compiler, a failed build, a read-only
cache directory or ``REPRO_DISABLE_NATIVE=1`` in the environment all
simply mean :func:`load_kernel` returns ``None`` and the packed forest
falls back to its numpy descent.  Both engines route every row through
exactly the same comparisons, so predictions are identical either way.

The node record layout shared with the C side (16 bytes, no padding)::

    struct Node { double threshold; int32 feature; int32 left; }

Children are adjacent after the pack's BFS renumbering (``right ==
left + 1``) and leaves self-loop (``left == self``, ``threshold ==
+inf``), so one branch-free update per level advances a row:
``node = left + (x[feature] > threshold)``.

The library carries a second entry point, ``forest_grid_matrix``, used by
:mod:`repro.ml.grid_inference`: instead of descending row by row it walks
each tree once per request with a *set* of candidate-grid rows encoded as
a bitmask, consuming per-node masks precompiled on the Python side.  See
that module for the compilation scheme; the kernel itself only does mask
intersections, precomputed-branch lookups and an upper-bound binary
search for the one request-scaled column.

A third, ``bo_step``, is one Bayesian-optimisation probe of
:class:`~repro.ml.bayesian_optimizer.BayesianOptimizer` over its fixed
candidate set: it conditions the candidate-set GP posterior on the new
observation (the Schur complement, one GEMV row and the three moment
updates), recomputes the posterior mean and standard deviation, and
computes the unprobed candidates' Probability of Improvement z-scores --
all in one call on buffers the caller allocated once (:data:`BO_STATE`).

A fourth, ``cart_grow``, grows one whole tree of
:class:`~repro.ml.decision_tree.DecisionTreeRegressor` when every split
scores every feature.  It is bitwise the numpy grower's tree because it
repeats numpy's arithmetic rather than approximating it: each feature is
presorted once with a stable merge sort (ties keep row order, as
``argsort(kind="mergesort")`` keeps them) and every split partitions
those orders stably instead of sorting again; node means and variances
use a C copy of numpy's pairwise summation (a plain loop below 8 values,
eight accumulators up to 128, above that a split at ``n/2`` rounded down
to a multiple of 8); and splits are scored in ``_find_split``'s exact
operation order with ``argmax``'s first-maximum-or-first-NaN rule.

A fifth, ``bo_search``, runs a whole PI search of
:func:`~repro.ml.bayesian_optimizer.search_table` in one call: the
initial-design queue, Smartpick's Eq. 2 noise, the improvement and
patience rules, ``bo_step``'s posterior update and z-scores, PI and the
randomised argmax, over buffers it allocates per call.  Its random draws
and its Gaussian cdf are bitwise the Python loop's:

- numpy's static ``numpy/random/lib/libnpyrandom.a`` is linked in, and
  ``random_normal`` / ``random_bounded_uint64_fill`` (the samplers
  behind ``Generator.normal`` and ``Generator.integers``) are called on
  the generator's own ``bitgen_t``, declared by hand
  (:data:`_NPYRANDOM_API`) so no Python header is needed;
- ``ndtr`` is a port of the Cephes code behind
  :func:`scipy.special.ndtr` (``erf``, ``erfc`` and their rational
  approximations, in Cephes' operation order with libm's ``exp``), so a
  search loads no :mod:`scipy` module.  The library exports it, built
  with or without ``bo_search``.

The library's cache key covers numpy's version and the archive's bytes.
Without the archive or when that link fails, ``bo_search`` is ``None``,
the other four entry points still load and searches run in Python.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = [
    "BO_STATE",
    "NODE_DTYPE",
    "GRID_NODE_DTYPE",
    "GRID_MAX_WORDS",
    "load_kernel",
    "kernel_name",
]

#: Mirror of ``struct Node`` -- keep in sync with :data:`_SOURCE`.
NODE_DTYPE = np.dtype(
    [("threshold", "<f8"), ("feature", "<i4"), ("left", "<i4")]
)

#: numpy's ``bitgen_t`` (``numpy/random/bitgen.h``) and the two samplers
#: of ``libnpyrandom`` that ``Generator.normal`` and ``Generator.integers``
#: call, declared by hand so the kernel needs no Python header and every
#: draw is the generator's own.
_NPYRANDOM_API = r"""
#include <stdbool.h>
#include <stdint.h>

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_normal(bitgen_t *bitgen_state, double loc, double scale);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);
"""

_SOURCE = r"""
#include <stdint.h>

typedef struct { double threshold; int32_t feature; int32_t left; } Node;

/* Descend BLOCK rows per tree in lock-step.  The independent per-row
 * chains give the CPU instruction-level parallelism to hide the node
 * load latency; the `changed` accumulator exits as soon as every lane
 * of a block has self-looped at its leaf. */
#define BLOCK 8

void forest_tree_matrix(
    const Node *nodes, const double *value,
    const int64_t *roots, int64_t n_trees, int64_t n_levels,
    const double *x, int64_t n_rows, int64_t n_features,
    double *out)
{
    for (int64_t t = 0; t < n_trees; ++t) {
        const int64_t root = roots[t];
        double *row_out = out + t * n_rows;
        int64_t r = 0;
        for (; r + BLOCK <= n_rows; r += BLOCK) {
            int64_t n[BLOCK];
            for (int b = 0; b < BLOCK; ++b) n[b] = root;
            for (int64_t d = 0; d < n_levels; ++d) {
                int64_t changed = 0;
                for (int b = 0; b < BLOCK; ++b) {
                    const Node nd = nodes[n[b]];
                    const int64_t nxt =
                        (int64_t)nd.left +
                        (x[(r + b) * n_features + nd.feature] > nd.threshold);
                    changed |= nxt ^ n[b];
                    n[b] = nxt;
                }
                if (!changed) break;
            }
            for (int b = 0; b < BLOCK; ++b) row_out[r + b] = value[n[b]];
        }
        for (; r < n_rows; ++r) {
            int64_t node = root;
            for (int64_t d = 0; d < n_levels; ++d) {
                const Node nd = nodes[node];
                const int64_t nxt =
                    (int64_t)nd.left +
                    (x[r * n_features + nd.feature] > nd.threshold);
                if (nxt == node) break;
                node = nxt;
            }
            row_out[r] = value[node];
        }
    }
}

/* ------------------------------------------------------------------ */
/* Grid-compiled descent (repro.ml.grid_inference)                     */
/* ------------------------------------------------------------------ */

/* Candidate-grid rows travel as bitmask sets (64 rows per word).  Each
 * node is one 16-byte record so a visit touches a single cache line
 * besides its mask:
 *
 *     struct GridNode { int32 lk; int32 aux; double thr; }
 *
 * ``lk`` packs the left-child index with the node kind in the low two
 * bits; the right child is always ``left + 1`` after the pack's BFS
 * renumbering.  Kinds, assigned at compile time on the Python side:
 *   0  leaf    -- ``thr`` holds the leaf value; scatter it to the set
 *   1  static  -- grid-varying feature; ``aux`` is the (premultiplied)
 *                 word offset of the precompiled partition mask
 *   2  branch  -- request-constant feature; ``go_left[aux]`` decides
 *                 for the whole set
 *   3  scaled  -- column = base[row] * alpha(request); ``thr`` is upper-
 *                 bound searched in the request's ascending ladder and
 *                 the matching prefix mask partitions the set          */
#define GRID_MAX_WORDS 64

typedef struct { int32_t lk; int32_t aux; double thr; } GridNode;

static int grid_ctz64(uint64_t bits)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(bits);
#else
    int count = 0;
    while (!(bits & 1u)) { bits >>= 1; ++count; }
    return count;
#endif
}

static inline void grid_walk(
    const int64_t n_words, const GridNode *nodes,
    const uint64_t *static_masks, const int64_t *roots, int64_t n_trees,
    int64_t n_rows, const uint64_t *full_set,
    const unsigned char *go_left, int64_t n_branch,
    const double *scaled_vals, int64_t n_scaled_levels,
    const uint64_t *prefix_masks, int64_t n_req,
    int64_t *node_stack, uint64_t *set_stack, double *out)
{
    uint64_t cur[GRID_MAX_WORDS];
    /* Tree-outer: one tree's nodes stay cache-hot across every request,
     * and the per-tree output block is written front to back. */
    for (int64_t t = 0; t < n_trees; ++t) {
        for (int64_t q = 0; q < n_req; ++q) {
            const unsigned char *gl = go_left + q * n_branch;
            const double *vals = scaled_vals + q * n_scaled_levels;
            double *row_out = out + (t * n_req + q) * n_rows;
            int64_t sp = 0;
            int64_t node = roots[t];
            for (int64_t w = 0; w < n_words; ++w) cur[w] = full_set[w];
            for (;;) {
                const GridNode nd = nodes[node];
                const int kind = nd.lk & 3;
                const int64_t child = nd.lk >> 2;
#if defined(__GNUC__) || defined(__clang__)
                /* Both children are adjacent; pulling their line in now
                 * overlaps the fetch with the mask/ladder work below. */
                __builtin_prefetch(&nodes[child]);
#endif
                if (kind == 2) {
                    node = child + !gl[nd.aux];
                    continue;
                }
                if (kind != 0) {
                    const uint64_t *mask;
                    if (kind == 1) {
                        mask = static_masks + nd.aux;
                    } else {
                        /* #{i : vals[i] <= thr} via upper bound. */
                        int64_t lo = 0, hi = n_scaled_levels;
                        while (lo < hi) {
                            const int64_t mid = (lo + hi) >> 1;
                            if (vals[mid] <= nd.thr) lo = mid + 1; else hi = mid;
                        }
                        mask = prefix_masks + lo * n_words;
                    }
                    uint64_t split[GRID_MAX_WORDS];
                    uint64_t any_left = 0, any_right = 0;
                    for (int64_t w = 0; w < n_words; ++w) {
                        const uint64_t l = cur[w] & mask[w];
                        split[w] = l;
                        any_left |= l;
                        any_right |= cur[w] ^ l;
                    }
                    if (!any_right) { node = child; continue; }
                    if (!any_left) { node = child + 1; continue; }
                    uint64_t *spill = set_stack + sp * n_words;
                    for (int64_t w = 0; w < n_words; ++w) {
                        spill[w] = cur[w] ^ split[w];
                        cur[w] = split[w];
                    }
                    node_stack[sp++] = child + 1;
                    node = child;
                    continue;
                }
                /* Leaf: write the shared value to every row still here. */
                const double v = nd.thr;
                for (int64_t w = 0; w < n_words; ++w) {
                    uint64_t bits = cur[w];
                    const int64_t base = w << 6;
                    while (bits) {
                        row_out[base + grid_ctz64(bits)] = v;
                        bits &= bits - 1;
                    }
                }
                if (sp == 0) break;
                --sp;
                node = node_stack[sp];
                const uint64_t *spill = set_stack + sp * n_words;
                for (int64_t w = 0; w < n_words; ++w) cur[w] = spill[w];
            }
        }
    }
}

/* The word count is 3 for the default 13x13 grid; dispatching on small
 * constants lets the compiler clone grid_walk with every set loop fully
 * unrolled and the current set held in registers. */
#define GRID_DISPATCH(NW) \
    grid_walk((NW), nodes, static_masks, roots, n_trees, n_rows, \
              full_set, go_left, n_branch, scaled_vals, n_scaled_levels, \
              prefix_masks, n_req, node_stack, set_stack, out)

void forest_grid_matrix(
    const GridNode *nodes,
    const uint64_t *static_masks,
    const int64_t *roots, int64_t n_trees,
    int64_t n_words, int64_t n_rows,
    const uint64_t *full_set,
    const unsigned char *go_left, int64_t n_branch,
    const double *scaled_vals, int64_t n_scaled_levels,
    const uint64_t *prefix_masks,
    int64_t n_req,
    int64_t *node_stack, uint64_t *set_stack,
    double *out)
{
    switch (n_words) {
    case 1: GRID_DISPATCH(1); break;
    case 2: GRID_DISPATCH(2); break;
    case 3: GRID_DISPATCH(3); break;
    case 4: GRID_DISPATCH(4); break;
    default: GRID_DISPATCH(n_words); break;
    }
}

/* ------------------------------------------------------------------ */
/* Matern 5/2 Gram build (repro.ml.kernels)                            */
/* ------------------------------------------------------------------ */

#include <math.h>

/* One fused pass from the BLAS cross product to the Matern polynomial:
 * squared-distance combination, clamp, sqrt, scaling and the degree-2
 * polynomial, exactly in the numpy fallback's operation order so every
 * intermediate double is bit-identical.  The exp pass stays on the
 * Python side (np.exp and libm exp may disagree in the last ulp), so
 * the kernel emits both the polynomial and the negated scaled distance
 * for numpy to finish with one exp and one multiply. */
void matern_gram(
    const double *cross,   /* (n, m) a @ b.T */
    const double *a_sq,    /* (n,) row norms of a */
    const double *b_sq,    /* (m,) row norms of b */
    double ell,            /* length scale */
    int64_t n, int64_t m,
    double *poly,          /* out: 1 + s + s^2/3 */
    double *neg_s)         /* out: -s, for np.exp */
{
    const double root5 = sqrt(5.0);
    for (int64_t i = 0; i < n; ++i) {
        const double ai = a_sq[i];
        const double *row = cross + i * m;
        double *p = poly + i * m;
        double *g = neg_s + i * m;
        for (int64_t j = 0; j < m; ++j) {
            double d = (ai + b_sq[j]) - row[j] * 2.0;
            if (!(d > 0.0)) d = 0.0;
            const double s = sqrt(d) * root5 / ell;
            p[j] = (1.0 + s) + (s * s) / 3.0;
            g[j] = -s;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Fused BO probe step (repro.ml.bayesian_optimizer)                   */
/* ------------------------------------------------------------------ */

/* The candidate-set GP posterior of CandidatePosterior, in buffers the
 * Python side allocates once per optimizer (see that class for the
 * algebra).  The probe's inputs travel in the state as well: ctypes
 * converts every call argument anew, and setting a field is cheaper.
 * Keep in sync with BO_STATE in this module. */
typedef struct {
    const double *gram;           /* (n, n) prior covariance */
    double *rows;                 /* (capacity, n + 2): [V | u | e] rows */
    double *targets;              /* (capacity,) observed values */
    double *deviations;           /* (capacity,) scratch */
    double *moments;              /* (3, n): V^T u, V^T e, sum(V**2) */
    double *mean;                 /* (n,) out: posterior mean */
    double *std;                  /* (n,) out: posterior std */
    const unsigned char *unprobed;/* (n,) candidates PI may pick */
    int64_t *remaining;           /* (n,) out: unprobed candidates, ascending */
    double *remaining_z;          /* (n,) out: their PI z-scores */
    int64_t n;
    int64_t size;                 /* observations so far */
    double nugget;                /* noise**2 + 1e-10 */
    int64_t index;                /* in: candidate observed, or -1 */
    double value;                 /* in: its observed value */
    double best;                  /* in: PI's incumbent */
    double xi;                    /* in: PI's margin */
    double schur;                 /* out: the last Schur complement */
} BoState;

/* np.add.reduce over a contiguous float64 vector, operation for
 * operation (numpy's pairwise summation: a plain loop below 8 elements,
 * eight accumulators up to 128, above that split at n/2 rounded down to
 * a multiple of 8), so the BO target normalisation and the CART node
 * moments are bitwise numpy's. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; ++i) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; ++j) r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* One probe.  With index >= 0, condition on `value` observed at
 * candidate `index` as observation number `size` (rows has room for it):
 * the new Cholesky row's off-diagonal part is column `index` of the
 * stored rows, so the new state row is one GEMV.  Returns -2 and leaves
 * the state untouched when the Schur complement (stored in s->schur) is
 * not positive.  mode 0 stops there; mode 1 also writes the posterior
 * mean and std of every candidate; mode 2 also writes the unprobed
 * candidates (ascending) to remaining and their PI z-scores,
 * (mean - best - xi) / max(std, 1e-12) in numpy's operation order, to
 * remaining_z, and returns how many there are. */
int64_t bo_step(BoState *s, int64_t mode)
{
    const int64_t n = s->n, width = n + 2, index = s->index;
    const double best = s->best, xi = s->xi;
    int64_t size = s->size;
    double *moments = s->moments;
    if (index >= 0) {
        const double *rows = s->rows;
        double dot = 0.0;
        for (int64_t k = 0; k < size; ++k) {
            const double c = rows[k * width + index];
            dot += c * c;
        }
        const double schur = (s->gram[index * n + index] + s->nugget) - dot;
        s->schur = schur;
        if (!(schur > 0.0)) return -2;
        double *row = s->rows + size * width;
        for (int64_t j = 0; j < width; ++j) row[j] = 0.0;
        for (int64_t k = 0; k < size; ++k) {
            const double c = rows[k * width + index];
            const double *r = rows + k * width;
            for (int64_t j = 0; j < width; ++j) row[j] += c * r[j];
        }
        const double d = sqrt(schur);
        const double *g = s->gram + index * n;
        for (int64_t j = 0; j < n; ++j) row[j] = (g[j] - row[j]) / d;
        row[n] = (s->value - row[n]) / d;
        row[n + 1] = (1.0 - row[n + 1]) / d;
        const double u = row[n], e = row[n + 1];
        for (int64_t j = 0; j < n; ++j) {
            moments[j] += u * row[j];
            moments[n + j] += e * row[j];
            moments[2 * n + j] += row[j] * row[j];
        }
        s->targets[size++] = s->value;
        s->size = size;
    }
    if (mode == 0) return 0;

    double center = 0.0, scale = 1.0;
    if (size > 0) {
        center = pairwise_sum(s->targets, size) / (double)size;
        for (int64_t k = 0; k < size; ++k) {
            const double dev = s->targets[k] - center;
            s->deviations[k] = dev * dev;
        }
        scale = sqrt(pairwise_sum(s->deviations, size) / (double)size);
        if (!(scale > 1e-12)) scale = 1.0;
    }
    for (int64_t i = 0; i < n; ++i) {
        s->mean[i] = (moments[i] - center * moments[n + i]) + center;
        double variance = s->gram[i * n + i] - moments[2 * n + i];
        if (variance < 1e-12) variance = 1e-12;
        s->std[i] = sqrt(variance) * scale;
    }
    if (mode == 1) return 0;

    int64_t count = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (!s->unprobed[i]) continue;
        const double sd = s->std[i] < 1e-12 ? 1e-12 : s->std[i];
        s->remaining[count] = i;
        s->remaining_z[count++] = ((s->mean[i] - best) - xi) / sd;
    }
    return count;
}

/* ------------------------------------------------------------------ */
/* CART growth (repro.ml.decision_tree)                                */
/* ------------------------------------------------------------------ */

#include <stdlib.h>

/* Stable argsort of v[0..n) into idx: a bottom-up merge that takes the
 * right run's head only when it is strictly smaller, so equal values
 * keep their row order, as numpy's mergesort keeps them. */
static void cart_argsort(const double *v, int64_t n, int64_t *idx,
                         int64_t *tmp)
{
    for (int64_t i = 0; i < n; ++i) idx[i] = i;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            const int64_t mid = lo + width < n ? lo + width : n;
            const int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t a = lo, b = mid, k = lo;
            while (a < mid && b < hi)
                tmp[k++] = v[idx[b]] < v[idx[a]] ? idx[b++] : idx[a++];
            while (a < mid) tmp[k++] = idx[a++];
            while (b < hi) tmp[k++] = idx[b++];
        }
        for (int64_t i = 0; i < n; ++i) idx[i] = tmp[i];
    }
}

typedef struct { int64_t start, end, depth, parent, side; } CartTask;

/* Grow one tree of DecisionTreeRegressor with every feature a split
 * candidate, writing the nodes in the numpy grower's DFS preorder.
 *
 * orders[0] holds the rows in index order and orders[1 + f] the rows
 * sorted stably by feature f; a node owns the same [start, end) segment
 * of every order, and a split partitions each segment stably, so a
 * node's segments equal the numpy grower's indices and its mergesort of
 * the node's block.  Node moments use numpy's pairwise sum over the
 * rows in index order; the split score follows _find_split operation
 * for operation: sequential prefix sums in sorted order, the gain
 * formula, -inf where a split is unrealisable, argmax's first maximum
 * (or first NaN) per feature, and a later feature winning only by more
 * than 1e-12.  Returns the node count, or -1 when scratch memory cannot
 * be allocated.  The caller presets every node slot to a leaf. */
int64_t cart_grow(
    const double *x,           /* (d, n) features, one column per row */
    const double *y,           /* (n,) targets */
    int64_t n, int64_t d,
    int64_t max_depth,         /* -1: unlimited */
    int64_t min_samples_split, int64_t min_samples_leaf,
    int64_t *feature, double *threshold,
    int64_t *left, int64_t *right,
    double *value, int64_t *n_samples, double *impurity)
{
    int64_t *orders = malloc((size_t)((d + 2) * n) * sizeof(int64_t));
    double *scratch = malloc((size_t)(3 * n) * sizeof(double));
    unsigned char *goes_left = malloc((size_t)n);
    CartTask *stack = malloc((size_t)(n + 1) * sizeof(CartTask));
    if (!orders || !scratch || !goes_left || !stack) {
        free(orders); free(scratch); free(goes_left); free(stack);
        return -1;
    }
    int64_t *tmp = orders + (d + 1) * n;
    double *vals = scratch, *psum = scratch + n, *psq = scratch + 2 * n;
    for (int64_t i = 0; i < n; ++i) orders[i] = i;
    for (int64_t f = 0; f < d; ++f)
        cart_argsort(x + f * n, n, orders + (f + 1) * n, tmp);

    const int64_t leaf = min_samples_leaf;
    int64_t count = 0, sp = 0;
    stack[sp++] = (CartTask){0, n, 0, -1, 0};
    while (sp > 0) {
        const CartTask task = stack[--sp];
        const int64_t node = count++;
        if (task.parent >= 0)
            (task.side ? right : left)[task.parent] = node;
        const int64_t start = task.start, m = task.end - task.start;
        const int64_t *rows = orders + start;

        /* Moments: mean, then the mean squared deviation (psum holds
         * the squared deviations until the split search reuses it). */
        for (int64_t k = 0; k < m; ++k) vals[k] = y[rows[k]];
        const double mean = pairwise_sum(vals, m) / (double)m;
        int constant = 1;
        for (int64_t k = 0; k < m; ++k) {
            constant &= vals[k] == vals[0];
            const double dev = vals[k] - mean;
            psum[k] = dev * dev;
        }
        value[node] = mean;
        n_samples[node] = m;
        impurity[node] = pairwise_sum(psum, m) / (double)m;
        if (m < min_samples_split || m < 2 * leaf
            || (max_depth >= 0 && task.depth >= max_depth) || constant)
            continue;

        double best_gain = 0.0, best_threshold = 0.0;
        int64_t best_feature = -1;
        for (int64_t f = 0; f < d; ++f) {
            const int64_t *sorted = orders + (f + 1) * n + start;
            const double *column = x + f * n;
            double sum = 0.0, sq = 0.0;
            for (int64_t k = 0; k < m; ++k) {
                const double t = y[sorted[k]];
                vals[k] = column[sorted[k]];
                sum += t;   /* from +0.0: only a leading -0.0 differs,
                               and every use squares it away */
                sq += t * t;
                psum[k] = sum;
                psq[k] = sq;
            }
            const double parent_sse = sq - sum * sum / (double)m;
            double top = 0.0;
            int64_t top_row = 0;
            for (int64_t i = 0; i < m - 1; ++i) {
                double gain = -INFINITY;
                if (vals[i] < vals[i + 1] && i >= leaf - 1 && i < m - leaf) {
                    const double lc = (double)(i + 1);
                    const double rc = (double)m - lc;
                    const double ls = psum[i], rs = sum - ls;
                    const double lq = psq[i], rq = sq - lq;
                    gain = parent_sse
                         - ((lq - ls * ls / lc) + (rq - rs * rs / rc));
                }
                if (i == 0 || !(gain <= top)) {
                    top = gain;
                    top_row = i;
                    if (isnan(top)) break;
                }
            }
            if (best_gain + 1e-12 < top && top < INFINITY) {
                best_gain = top;
                best_feature = f;
                best_threshold = 0.5 * (vals[top_row] + vals[top_row + 1]);
            }
        }
        if (best_feature < 0) continue;

        const double *column = x + best_feature * n;
        int64_t n_left = 0;
        for (int64_t k = 0; k < m; ++k) {
            const int64_t row = rows[k];
            goes_left[row] = column[row] <= best_threshold;
            n_left += goes_left[row];
        }
        if (n_left == 0 || n_left == m) continue;
        feature[node] = best_feature;
        threshold[node] = best_threshold;
        for (int64_t f = 0; f <= d; ++f) {
            int64_t *segment = orders + f * n + start;
            int64_t l = 0, r = 0;
            for (int64_t k = 0; k < m; ++k) {
                const int64_t row = segment[k];
                if (goes_left[row]) segment[l++] = row; else tmp[r++] = row;
            }
            for (int64_t k = 0; k < r; ++k) segment[l + k] = tmp[k];
        }
        stack[sp++] = (CartTask){start + n_left, task.end, task.depth + 1,
                                 node, 1};
        stack[sp++] = (CartTask){start, start + n_left, task.depth + 1,
                                 node, 0};
    }
    free(orders); free(scratch); free(goes_left); free(stack);
    return count;
}

/* ------------------------------------------------------------------ */
/* Gaussian cdf: scipy.special.ndtr                                    */
/* ------------------------------------------------------------------ */

/* scipy's ndtr is the Cephes code (xsf::cephes): ndtr, erf and erfc
 * with their rational approximations, polevl / p1evl and libm's exp.
 * This is that code in its operation order, less the error reporting
 * and the erf / erfc branches ndtr never reaches, so every result is
 * bitwise scipy.special.ndtr's (tests/test_native_bo_search.py). */

/* erfc(x) = exp(-x^2) P(x) / Q(x), 1 <= x < 8 */
static const double ndtr_P[] = {
    2.46196981473530512524E-10, 5.64189564831068821977E-1,
    7.46321056442269912687E0, 4.86371970985681366614E1,
    1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3,
    5.57535335369399327526E2};
static const double ndtr_Q[] = {  /* leading 1 implied (p1evl) */
    1.32281951154744992508E1, 8.67072140885989742329E1,
    3.54937778887819891062E2, 9.75708501743205489753E2,
    1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2};
/* erfc(x) = exp(-x^2) R(x) / S(x), x >= 8 */
static const double ndtr_R[] = {
    5.64189583547755073984E-1, 1.27536670759978104416E0,
    5.01905042251180477414E0, 6.16021097993053585195E0,
    7.40974269950448939160E0, 2.97886665372100240670E0};
static const double ndtr_S[] = {  /* leading 1 implied (p1evl) */
    2.26052863220117276590E0, 9.39603524938001434673E0,
    1.20489539808096656605E1, 1.70814450747565897222E1,
    9.60896809063285878198E0, 3.36907645100081516050E0};
/* erf(x) = x T(x^2) / U(x^2), 0 <= x <= 1 */
static const double ndtr_T[] = {
    9.60497373987051638749E0, 9.00260197203842689217E1,
    2.23200534594684319226E3, 7.00332514112805075473E3,
    5.55923013010394962768E4};
static const double ndtr_U[] = {  /* leading 1 implied (p1evl) */
    3.35617141647503099647E1, 5.21357949780152679795E2,
    4.59432382970980127987E3, 2.26290000613890934246E4,
    4.92673942608635921086E4};

/* log(DBL_MAX): exp(-x^2) underflows to zero below -MAXLOG. */
#define MAXLOG 7.09782712893383996843E2
#ifndef M_SQRT1_2
#define M_SQRT1_2 0.70710678118654752440084436210484903928
#endif

/* coef[0] x^n + ... + coef[n], by Horner's rule. */
static double polevl(double x, const double *coef, int n)
{
    double ans = *coef++;
    do ans = ans * x + *coef++; while (--n);
    return ans;
}

/* As polevl with an implied leading coefficient of 1. */
static double p1evl(double x, const double *coef, int n)
{
    double ans = x + *coef++;
    --n;
    do ans = ans * x + *coef++; while (--n);
    return ans;
}

/* Cephes' erf for |x| <= 1, the only arguments ndtr and ndtr_erfc pass
 * (its 1 - erfc branch for |x| > 1 never runs).  Cephes returns
 * -erf(-x) for x < 0; round-to-nearest is sign-symmetric, so x T / U
 * is that value bit for bit. */
static double ndtr_erf(double x)
{
    const double z = x * x;
    return x * polevl(z, ndtr_T, 4) / p1evl(z, ndtr_U, 5);
}

/* Cephes' erfc for x >= 0, the only arguments ndtr passes (its
 * branches for a negative argument never run). */
static double ndtr_erfc(double x)
{
    if (x < 1.0) return 1.0 - ndtr_erf(x);
    double z = -x * x;
    if (z < -MAXLOG) return 0.0;
    z = exp(z);
    double p, q;
    if (x < 8.0) {
        p = polevl(x, ndtr_P, 8);
        q = p1evl(x, ndtr_Q, 8);
    } else {
        p = polevl(x, ndtr_R, 5);
        q = p1evl(x, ndtr_S, 6);
    }
    return (z * p) / q;
}

double ndtr(double a)
{
    if (isnan(a)) return NAN;
    const double x = a * M_SQRT1_2;
    const double z = fabs(x);
    if (z < M_SQRT1_2) return 0.5 + 0.5 * ndtr_erf(x);
    const double y = 0.5 * ndtr_erfc(z);
    return x > 0 ? 1.0 - y : y;
}

/* ------------------------------------------------------------------ */
/* Whole PI search (repro.ml.bayesian_optimizer.search_table)          */
/* ------------------------------------------------------------------ */

/* Built only when numpy's static libnpyrandom links in (see _build). */
#ifdef REPRO_BO_SEARCH
""" + _NPYRANDOM_API + r"""
/* BayesianOptimizer.maximize under PI, with Smartpick's Eq. 2 objective
 * read from `table`, probe for probe and draw for draw: the initial
 * design (drawn by the caller) is probed first; each probe draws its
 * noise with random_normal(0, 0.01 * max(RF_t, 1)) and observes
 * -(RF_t + delta); the 1 % improvement and patience rules update the
 * incumbent and the stall count; bo_step conditions the posterior and,
 * once the design is spent, scores the unprobed candidates; ndtr (the
 * port above, bitwise scipy's) turns z-scores into PI, and the pick
 * is the maximum, ties broken by Generator.integers' draw.
 *
 * out[0] receives the converged flag, out[1..count] the probes and
 * out[count + 1] the incumbent; the return value is count.  Errors:
 * -1 when scratch memory cannot be allocated, -2 for a non-positive
 * Schur complement (out[0] names the candidate, *schur holds it), -3
 * when a PI score is NaN (numpy's argmax finds no maximum then). */
int64_t bo_search(
    const double *gram, int64_t n,
    const double *table,          /* (n,) RF_t per candidate, finite */
    const int64_t *initial, int64_t n_initial,
    int64_t max_iterations, double threshold, int64_t patience,
    double nugget, double xi,
    bitgen_t *bitgen,
    int64_t *out,                 /* (min(max_iterations, n) + 2,) */
    double *schur)
{
    const int64_t capacity = max_iterations < n ? max_iterations : n;
    const int64_t width = n + 2;
    double *block =
        malloc((size_t)(7 * n + capacity * (width + 2)) * sizeof(double));
    unsigned char *unprobed = malloc((size_t)n);
    if (!block || !unprobed) { free(block); free(unprobed); return -1; }
    BoState s;
    s.gram = gram;
    s.moments = block;
    s.mean = block + 3 * n;
    s.std = block + 4 * n;
    s.remaining_z = block + 5 * n;
    s.remaining = (int64_t *)(block + 6 * n);
    s.rows = block + 7 * n;
    s.targets = s.rows + capacity * width;
    s.deviations = s.targets + capacity;
    s.unprobed = unprobed;
    s.n = n;
    s.size = 0;
    s.nugget = nugget;
    s.xi = xi;
    for (int64_t i = 0; i < 3 * n; ++i) block[i] = 0.0;
    for (int64_t i = 0; i < n; ++i) unprobed[i] = 1;

    int64_t *probes = out + 1;
    double best = -INFINITY;
    int64_t best_index = -1, stall = 0, count = 0, queued = 0;
    int64_t n_remaining = 0, status = 0, converged = 0;
    for (int64_t iteration = 0; iteration < max_iterations; ++iteration) {
        int64_t index;
        if (queued < n_initial) {
            index = initial[queued++];
        } else {
            if (n_remaining == 0) { converged = 1; break; }
            double *scores = s.remaining_z;
            double top = -INFINITY;
            int64_t ties = 0;
            for (int64_t k = 0; k < n_remaining; ++k) {
                scores[k] = ndtr(scores[k]);
                if (isnan(scores[k])) { status = -3; break; }
                if (scores[k] > top) { top = scores[k]; ties = 0; }
                ties += scores[k] == top;
            }
            if (status) break;
            uint64_t pick = 0;
            if (ties > 1)
                random_bounded_uint64_fill(bitgen, 0, (uint64_t)(ties - 1),
                                           1, false, &pick);
            int64_t k = 0;
            for (;; ++k)
                if (scores[k] == top && pick-- == 0) break;
            index = s.remaining[k];
        }
        unprobed[index] = 0;
        const double predicted = table[index];
        const double delta = random_normal(
            bitgen, 0.0, 0.01 * (1.0 > predicted ? 1.0 : predicted));
        const double value = -(predicted + delta);
        probes[count++] = index;

        int improved = 1;
        if (isfinite(best)) {
            const double magnitude = fabs(best);
            improved =
                value > best + threshold * (1e-12 > magnitude ? 1e-12 : magnitude);
        }
        if (improved) {
            best = value;
            best_index = index;
            stall = 0;
        } else {
            if (value > best) { best = value; best_index = index; }
            ++stall;
        }
        const int done = stall >= patience || count == n;
        const int score = !done && queued == n_initial;
        s.index = index;
        s.value = value;
        s.best = best;
        const int64_t step = bo_step(&s, score ? 2 : 0);
        if (step == -2) {
            *schur = s.schur;
            out[0] = index;
            status = -2;
            break;
        }
        if (score) n_remaining = step;
        if (done) { converged = 1; break; }
    }
    free(block);
    free(unprobed);
    if (status) return status;
    out[0] = converged;
    probes[count] = best_index;
    return count;
}
#endif
"""

#: Row capacity of the grid kernel's set representation (64-bit words).
GRID_MAX_WORDS = 64

#: Mirror of ``struct GridNode`` -- keep in sync with :data:`_SOURCE`.
#: ``lk`` packs ``left << 2 | kind``; ``thr`` doubles as the leaf value.
GRID_NODE_DTYPE = np.dtype([("lk", "<i4"), ("aux", "<i4"), ("thr", "<f8")])



class BO_STATE(ctypes.Structure):
    """Mirror of ``BoState`` -- keep in sync with :data:`_SOURCE`."""

    _fields_ = [
        ("gram", ctypes.c_void_p),
        ("rows", ctypes.c_void_p),
        ("targets", ctypes.c_void_p),
        ("deviations", ctypes.c_void_p),
        ("moments", ctypes.c_void_p),
        ("mean", ctypes.c_void_p),
        ("std", ctypes.c_void_p),
        ("unprobed", ctypes.c_void_p),
        ("remaining", ctypes.c_void_p),
        ("remaining_z", ctypes.c_void_p),
        ("n", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("nugget", ctypes.c_double),
        ("index", ctypes.c_int64),
        ("value", ctypes.c_double),
        ("best", ctypes.c_double),
        ("xi", ctypes.c_double),
        ("schur", ctypes.c_double),
    ]


_CACHE: dict[str, "_Kernel | None"] = {}


def _compiler() -> str | None:
    import shutil

    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _npyrandom_archive() -> str | None:
    """numpy's static ``libnpyrandom.a``, or ``None`` when not shipped."""
    path = os.path.join(
        os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a"
    )
    return path if os.path.isfile(path) else None


def _library_path() -> str:
    """The cached library's path, keyed by everything built into it.

    ``libnpyrandom`` is linked statically, so the key covers numpy's
    version and the archive's bytes as well as the source: another numpy
    builds another library instead of reusing stale draw code.
    """
    key = hashlib.sha256(_SOURCE.encode())
    key.update(np.__version__.encode())
    archive = _npyrandom_archive()
    if archive is None:
        key.update(b"no libnpyrandom")
    else:
        with open(archive, "rb") as handle:
            key.update(handle.read())
    digest = key.hexdigest()[:16]
    cache_root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(cache_root, "repro-smartpick", f"forest_{digest}.so")


def _build(compiler: str, library: str) -> bool:
    """Compile the kernel to ``library``; atomic, best-effort.

    With numpy's ``libnpyrandom.a`` at hand the library links it in and
    carries ``bo_search``; when the archive is missing or that link
    fails, the library is built without ``bo_search`` and the other
    entry points still load.
    """
    # (defines, link inputs) per attempt, the linked build first.
    attempts = [([], ["-lm"])]
    archive = _npyrandom_archive()
    if archive is not None:
        attempts.insert(0, (["-DREPRO_BO_SEARCH"], [archive, "-lm"]))
    try:
        os.makedirs(os.path.dirname(library), exist_ok=True)
        with tempfile.TemporaryDirectory(
            dir=os.path.dirname(library)
        ) as workdir:
            source = os.path.join(workdir, "forest.c")
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(_SOURCE)
            artifact = os.path.join(workdir, "forest.so")
            for defines, inputs in attempts:
                result = subprocess.run(
                    # No contraction into fused multiply-adds: the kernels
                    # mirror numpy's rounding operation by operation.
                    [
                        compiler, "-O3", "-ffp-contract=off", "-shared",
                        "-fPIC", *defines, "-o", artifact, source, *inputs,
                    ],
                    capture_output=True,
                    timeout=120,
                )
                if result.returncode == 0:
                    os.replace(artifact, library)
                    return True
        return False
    except (OSError, subprocess.SubprocessError):
        return False


def _data_pointer(array: object, dtype: np.dtype, position: int) -> int:
    """The data address of a C-contiguous ``dtype`` array.

    Validates exactly what ``np.ctypeslib.ndpointer(dtype, flags="C")``
    validates and raises the same :class:`ctypes.ArgumentError`.
    """
    if not isinstance(array, np.ndarray):
        problem = "argument must be an ndarray"
    elif array.dtype != dtype:
        problem = f"array must have data type {dtype}"
    elif not array.flags.c_contiguous:
        problem = "array must have flags ['C_CONTIGUOUS']"
    else:
        return array.ctypes.data
    raise ctypes.ArgumentError(f"argument {position}: TypeError: {problem}")


class _Entry:
    """One kernel entry point whose array arguments pass as raw pointers.

    ``ndpointer`` argtypes marshal each array through a ``c_void_p``
    that ends up in a reference cycle, one per array argument per call,
    left for the cyclic collector.  This passes the validated data
    address instead; the call's own argument tuple keeps every array
    alive until the kernel returns.  ``signature`` lists a numpy dtype
    for each array argument and a ctypes type for each scalar.

    ``raw`` is the bare function, taking data addresses: for callers
    that validated their fixed arrays once and keep them alive.
    """

    __slots__ = ("raw", "_dtypes")

    def __init__(self, function, signature: list, restype=None) -> None:
        function.argtypes = [
            ctypes.c_void_p if isinstance(kind, np.dtype) else kind
            for kind in signature
        ]
        function.restype = restype
        self.raw = function
        self._dtypes = tuple(
            kind if isinstance(kind, np.dtype) else None for kind in signature
        )

    def __call__(self, *args):
        if len(args) != len(self._dtypes):
            raise TypeError(
                f"this function takes {len(self._dtypes)} arguments "
                f"({len(args)} given)"
            )
        return self.raw(*[
            arg if dtype is None else _data_pointer(arg, dtype, position)
            for position, (arg, dtype) in enumerate(
                zip(args, self._dtypes), start=1
            )
        ])


class _Kernel:
    """The compiled library's entry points (see :data:`_SOURCE`).

    ``bo_search`` takes data addresses, as :attr:`_Entry.raw` does, and
    is ``None`` when the library was built without ``libnpyrandom``.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        index = np.dtype(np.int64)
        real = np.dtype(np.float64)
        word = np.dtype(np.uint64)
        byte = np.dtype(np.uint8)
        self.forest_tree_matrix = _Entry(lib.forest_tree_matrix, [
            NODE_DTYPE,       # Node table
            real,             # leaf values
            index,            # roots
            ctypes.c_int64,   # n_trees
            ctypes.c_int64,   # n_levels
            real,             # row-major features
            ctypes.c_int64,   # n_rows
            ctypes.c_int64,   # n_features
            real,             # out (n_trees * n_rows)
        ])
        self.forest_grid_matrix = _Entry(lib.forest_grid_matrix, [
            GRID_NODE_DTYPE,  # GridNode table
            word,             # static masks
            index,            # roots
            ctypes.c_int64,   # n_trees
            ctypes.c_int64,   # n_words
            ctypes.c_int64,   # n_rows
            word,             # full row set
            byte,             # go_left (n_req, n_branch)
            ctypes.c_int64,   # n_branch
            real,             # scaled ladders (n_req, n_levels)
            ctypes.c_int64,   # n_scaled_levels
            word,             # prefix masks
            ctypes.c_int64,   # n_req
            index,            # node stack scratch
            word,             # set stack scratch
            real,             # out (n_trees * n_req * n_rows)
        ])
        self.matern_gram = _Entry(lib.matern_gram, [
            real,             # cross (n, m)
            real,             # a_sq (n,)
            real,             # b_sq (m,)
            ctypes.c_double,  # length scale
            ctypes.c_int64,   # n
            ctypes.c_int64,   # m
            real,             # poly out (n, m)
            real,             # neg_s out (n, m)
        ])
        self.cart_grow = _Entry(lib.cart_grow, [
            real,             # (d, n) features, column-major
            real,             # (n,) targets
            ctypes.c_int64,   # n
            ctypes.c_int64,   # d
            ctypes.c_int64,   # max_depth, -1 for none
            ctypes.c_int64,   # min_samples_split
            ctypes.c_int64,   # min_samples_leaf
            index,            # feature out (2n - 1)
            real,             # threshold out
            index,            # left out
            index,            # right out
            real,             # value out
            index,            # n_samples out
            real,             # impurity out
        ], restype=ctypes.c_int64)
        # Called once per BO probe with prebuilt state, so it skips the
        # per-call validation of _Entry.
        self.bo_step = lib.bo_step
        self.bo_step.argtypes = [
            ctypes.c_void_p,  # BoState *
            ctypes.c_int64,   # mode
        ]
        self.bo_step.restype = ctypes.c_int64
        self.bo_search = getattr(lib, "bo_search", None)
        if self.bo_search is not None:
            self.bo_search.argtypes = [
                ctypes.c_void_p,  # gram (n, n)
                ctypes.c_int64,   # n
                ctypes.c_void_p,  # table (n,)
                ctypes.c_void_p,  # initial design
                ctypes.c_int64,   # its size
                ctypes.c_int64,   # max_iterations
                ctypes.c_double,  # improvement threshold
                ctypes.c_int64,   # patience
                ctypes.c_double,  # nugget
                ctypes.c_double,  # xi
                ctypes.c_void_p,  # bitgen_t *
                ctypes.c_void_p,  # out (int64)
                ctypes.c_void_p,  # schur out (float64)
            ]
            self.bo_search.restype = ctypes.c_int64


def load_kernel() -> _Kernel | None:
    """The compiled descent kernel, or ``None`` when unavailable.

    The result (including failure) is memoized for the process; delete
    the cached ``.so`` under ``~/.cache/repro-smartpick`` to force a
    rebuild.
    """
    if "kernel" in _CACHE:
        return _CACHE["kernel"]
    kernel = None
    # The structs must be exactly 16 packed bytes for the layouts to agree.
    if (
        not os.environ.get("REPRO_DISABLE_NATIVE")
        and NODE_DTYPE.itemsize == 16
        and GRID_NODE_DTYPE.itemsize == 16
    ):
        library = _library_path()
        if not os.path.exists(library):
            compiler = _compiler()
            if compiler is not None:
                _build(compiler, library)
        if os.path.exists(library):
            try:
                kernel = _Kernel(ctypes.CDLL(library))
            except (OSError, AttributeError):
                kernel = None
    _CACHE["kernel"] = kernel
    return kernel


def kernel_name() -> str:
    """``"native-c"`` or ``"numpy"`` -- the engine inference uses, and the
    one that grows trees whose splits score every feature (feature
    sub-sampling always grows with numpy)."""
    return "native-c" if load_kernel() is not None else "numpy"
