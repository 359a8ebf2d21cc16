"""Grid-compiled forest descent: size a *fixed* candidate grid in one walk.

``determine_batch`` evaluates every incoming query over the same memoized
``{nVM, nSL}`` candidate grid.  The grid's feature matrix has a rigid
structure (see :meth:`repro.core.features.FeatureVector.build_matrix`):

- some columns are *grid-varying but request-independent* -- ``n_vm``,
  ``n_sl`` and the totals derived from them are the same float64 values
  for every query;
- one column is *scaled*: ``available_memory = total_memory * alpha``
  where ``alpha`` depends only on the request's waiting-app count;
- every other column is a per-request constant shared by all grid rows.

A row-by-row descent re-derives the grid split of every tree node for
every request.  :class:`GridPack` instead compiles the forest **against
the grid** once per model version:

- for each node splitting on a request-independent column, the subset of
  grid rows going left is precomputed as a bitmask;
- for each node splitting on the scaled column, the comparison
  ``base[row] * alpha <= t`` only depends on ``base``'s few distinct
  values, so a prefix-mask ladder over the sorted distinct bases lets the
  kernel resolve the mask with an upper-bound binary search;
- nodes splitting on request-constant columns route *all* rows one way;
  the boolean is computed for every (request, node) pair in one
  vectorized numpy comparison before the kernel runs;
- compilation tracks the set of grid rows *reachable* at every node
  (static splits narrow it; request-dependent splits pass it through) and
  collapses static nodes that are degenerate for their reachable rows --
  every row that can arrive goes the same way, so the node's entry is
  replaced by the surviving child's and the kernel skips the visit.

Descent then becomes a per-(tree, request) set-partition walk over
bitmasks (``forest_grid_matrix`` in :mod:`repro.ml.forest_native`) with
no float comparisons on the hot path beyond the scaled-column binary
search.  Every mask encodes exactly the comparison ``x <= threshold`` on
the same float64 values the row-by-row engines evaluate, so the produced
``(tree, row)`` leaf matrix is **bitwise identical** to
:meth:`~repro.ml.forest_inference.PackedForest.tree_matrix` on the
equivalent stacked feature matrix.

The pack is a native-kernel acceleration only: without a compiler the
caller falls back to the stacked descent (same results, slower), so no
numpy twin of the set walk is needed.
"""

from __future__ import annotations

import numpy as np

from repro.ml import forest_native
from repro.ml.decision_tree import _NO_CHILD
from repro.ml.forest_inference import PackedForest

__all__ = ["GridPack"]

_LEAF, _STATIC, _BRANCH, _SCALED = 0, 1, 2, 3


def _pack_rows(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Pack ``(n, n_rows)`` booleans into ``(n, n_words)`` uint64 masks.

    Bit ``row & 63`` of word ``row >> 6`` represents ``row`` -- the
    layout ``forest_grid_matrix`` walks with ctz.
    """
    n, n_rows = bits.shape
    padded = np.zeros((n, n_words * 64), dtype=bool)
    padded[:, :n_rows] = bits
    # Little-endian bit order within bytes and bytes within words: bit
    # ``row`` lands at position ``row & 63`` of word ``row >> 6``.
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


class GridPack:
    """A :class:`PackedForest` compiled against one fixed candidate grid.

    Parameters
    ----------
    pack:
        The fitted forest's packed arena.
    column_values:
        ``{feature column -> (n_rows,) float64}`` for the grid-varying,
        request-independent columns -- exactly the values
        ``build_matrix`` would place there.
    scaled_columns:
        ``{feature column -> (n_rows,) float64 base}`` for columns whose
        cell value is ``base[row] * alpha(request)`` with ``alpha >= 0``.
        At most one scaled column is supported (the feature schema has
        exactly one: available memory).
    """

    def __init__(
        self,
        pack: PackedForest,
        column_values: dict[int, np.ndarray],
        scaled_columns: dict[int, np.ndarray],
    ) -> None:
        if len(scaled_columns) > 1:
            raise ValueError("at most one scaled column is supported")
        if set(column_values) & set(scaled_columns):
            raise ValueError("a column cannot be both static and scaled")
        sizes = {
            values.shape[0]
            for values in (*column_values.values(), *scaled_columns.values())
        }
        if len(sizes) != 1:
            raise ValueError("all column value arrays must share one length")
        self.n_rows = sizes.pop()
        self.n_words = (self.n_rows + 63) // 64
        if self.n_words > forest_native.GRID_MAX_WORDS:
            raise ValueError(
                f"grid of {self.n_rows} rows exceeds the kernel's "
                f"{forest_native.GRID_MAX_WORDS * 64}-row capacity"
            )
        self._pack = pack
        self.n_trees = pack.n_trees

        if pack.n_nodes >= 1 << 29:
            raise ValueError("the node arena exceeds the grid kernel's range")
        is_leaf = pack.left == _NO_CHILD
        kind = np.full(pack.n_nodes, _BRANCH, dtype=np.int64)
        kind[is_leaf] = _LEAF
        static_features = np.array(sorted(column_values), dtype=np.int64)
        scaled_features = np.array(sorted(scaled_columns), dtype=np.int64)
        internal = ~is_leaf
        kind[internal & np.isin(pack.feature, static_features)] = _STATIC
        kind[internal & np.isin(pack.feature, scaled_features)] = _SCALED

        static_nodes = np.nonzero(kind == _STATIC)[0]
        branch_nodes = np.nonzero(kind == _BRANCH)[0]
        self.n_scaled = int(np.count_nonzero(kind == _SCALED))

        # Static masks: rows where column value <= node threshold -- the
        # exact comparison the row-by-row engines evaluate.
        static_bits = np.zeros((static_nodes.size, self.n_rows), dtype=bool)
        for column, values in column_values.items():
            selector = pack.feature[static_nodes] == column
            static_bits[selector] = (
                np.asarray(values, dtype=np.float64)[None, :]
                <= pack.threshold[static_nodes[selector], None]
            )

        # Reach-based collapse.  Descend each tree with the set of grid
        # rows that can still be on hand at every node: a static split
        # narrows the set exactly as the kernel will, a branch or scaled
        # split passes it through untouched (their verdicts depend on the
        # request).  The runtime row set is always a subset of this reach,
        # so a static node whose reachable rows all fall on one side is a
        # guaranteed no-op: its table entry is replaced by the surviving
        # child's, the kernel lands on that child's logic directly, and
        # the leaf assignment -- hence the output -- is bit-for-bit
        # unchanged.  Branch nodes in unreachable subtrees drop out of the
        # go-left table (their comparisons were dead weight per request).
        # BFS numbering puts every child one level below its parent, so
        # the reach sets travel level by level as packed row masks.
        static_slot = np.full(pack.n_nodes, -1, dtype=np.int64)
        static_slot[static_nodes] = np.arange(static_nodes.size)
        static_words = _pack_rows(static_bits, self.n_words)
        full = np.zeros(self.n_words * 64, dtype=bool)
        full[: self.n_rows] = True
        self._full_set = np.ascontiguousarray(
            _pack_rows(full[None, :], self.n_words)[0]
        )
        node_alive = np.zeros(pack.n_nodes, dtype=bool)
        collapse_to = np.full(pack.n_nodes, -1, dtype=np.int64)
        nodes = pack.roots
        reach = np.repeat(self._full_set[None, :], nodes.size, axis=0)
        while nodes.size:
            node_alive[nodes] = reach.any(axis=1)
            internal = kind[nodes] != _LEAF
            nodes, reach = nodes[internal], reach[internal]
            left = pack.left[nodes]
            right = pack.right[nodes]
            is_static = kind[nodes] == _STATIC
            masks = static_words[static_slot[nodes[is_static]]]
            left_reach = reach.copy()
            right_reach = reach.copy()
            left_reach[is_static] &= masks
            right_reach[is_static] &= ~masks
            # Every reachable row goes left (an empty reach included), or
            # none does.
            all_left = is_static & (left_reach == reach).all(axis=1)
            none_left = is_static & ~all_left & ~left_reach.any(axis=1)
            collapse_to[nodes[all_left]] = left[all_left]
            collapse_to[nodes[none_left]] = right[none_left]
            nodes = np.concatenate((left, right))
            reach = np.concatenate((left_reach, right_reach))

        # A collapsed node points at a child, which may itself collapse:
        # pointer jumping follows each chain to the node that survives.
        collapsed = collapse_to >= 0
        final = np.where(collapsed, collapse_to, np.arange(pack.n_nodes))
        while True:
            jumped = final[final]
            if np.array_equal(jumped, final):
                break
            final = jumped

        keep_static = static_nodes[~collapsed[static_nodes]]
        self.n_static_compiled = int(static_nodes.size)
        self.n_static = int(keep_static.size)
        self.n_collapsed = self.n_static_compiled - self.n_static
        self._static_masks = np.ascontiguousarray(
            static_words[static_slot[keep_static]]
        )

        # Request-constant branch nodes (reachable ones only), grouped by
        # feature so the per-request go-left table fills through
        # contiguous slice assignments (one broadcast comparison per
        # constant feature).
        branch_nodes = branch_nodes[node_alive[branch_nodes]]
        self.n_branch = int(branch_nodes.size)
        branch_order = np.argsort(pack.feature[branch_nodes], kind="stable")
        branch_nodes = branch_nodes[branch_order]
        branch_features = pack.feature[branch_nodes]
        self._branch_thresholds = np.ascontiguousarray(
            pack.threshold[branch_nodes]
        )
        bounds = np.nonzero(np.diff(branch_features))[0] + 1
        starts = np.concatenate(([0], bounds))
        stops = np.concatenate((bounds, [branch_features.size]))
        self._branch_groups = [
            (int(branch_features[start]), int(start), int(stop))
            for start, stop in zip(starts, stops)
            if stop > start
        ]

        # One 16-byte GridNode per node: left child and kind packed into
        # ``lk`` (the right child is adjacent after BFS renumbering),
        # ``aux`` indexes the kind's side table (word offsets for static
        # masks, go-left slots for branches), and ``thr`` doubles as the
        # leaf value so a leaf visit needs no second load.  Collapsed
        # nodes take their surviving descendant's entry wholesale, so a
        # degenerate chain costs one visit instead of its length.
        aux = np.zeros(pack.n_nodes, dtype=np.int64)
        aux[keep_static] = np.arange(keep_static.size) * self.n_words
        aux[branch_nodes] = np.arange(branch_nodes.size)
        lk_all = (np.where(is_leaf, 0, pack.left) << 2) | kind
        thr_all = np.where(is_leaf, pack.value, pack.threshold)
        table = np.empty(pack.n_nodes, dtype=forest_native.GRID_NODE_DTYPE)
        table["lk"] = lk_all[final]
        table["aux"] = aux[final]
        table["thr"] = thr_all[final]
        self._table = table

        # Scaled column: base * alpha is monotone in base for alpha >= 0,
        # so the mask of any threshold is a prefix of the distinct-base
        # ladder.  PREFIX[k] = rows whose base ranks below k.
        if scaled_columns:
            ((self._scaled_column, base),) = scaled_columns.items()
            base = np.asarray(base, dtype=np.float64)
            self._scaled_base, inverse = np.unique(base, return_inverse=True)
            ranks = np.arange(self._scaled_base.size + 1)
            self._prefix_masks = np.ascontiguousarray(
                _pack_rows(inverse[None, :] < ranks[:, None], self.n_words)
            )
        else:
            self._scaled_column = -1
            self._scaled_base = np.empty(0, dtype=np.float64)
            self._prefix_masks = np.zeros((1, self.n_words), dtype=np.uint64)

        # The fixed tables are validated and their data addresses taken
        # once here, not on every call.  Everything a call writes is
        # allocated per call, so concurrent calls on one pack are safe.
        self._depth = max(pack.n_levels, 1) + 2
        pointer = forest_native._data_pointer
        word = np.dtype(np.uint64)
        self._table_args = (
            pointer(self._table, forest_native.GRID_NODE_DTYPE, 1),
            pointer(self._static_masks, word, 2),
            pointer(pack.roots, np.dtype(np.int64), 3),
            self.n_trees,
            self.n_words,
            self.n_rows,
            pointer(self._full_set, word, 7),
        )
        self._prefix_pointer = pointer(self._prefix_masks, word, 12)

    @staticmethod
    def available() -> bool:
        """Whether the compiled grid kernel can run in this process."""
        return forest_native.load_kernel() is not None

    def tree_matrix(self, constants: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        """Per-tree leaf values for every (request, grid row) pair.

        Parameters
        ----------
        constants:
            ``(n_req, n_features)`` float64; only the request-constant
            columns are read (grid-varying and scaled slots are ignored).
        alphas:
            ``(n_req,)`` scale factors of the scaled column.

        Returns
        -------
        ``(n_trees, n_req * n_rows)`` float64 -- the same layout
        ``PackedForest.tree_matrix`` produces for the requests' grid
        feature matrices stacked request-major, bitwise identical.
        """
        kernel = forest_native.load_kernel()
        if kernel is None:
            raise RuntimeError("the native grid kernel is unavailable")
        constants = np.ascontiguousarray(constants, dtype=np.float64)
        alphas = np.asarray(alphas, dtype=np.float64)
        n_req = constants.shape[0]
        if alphas.shape != (n_req,):
            raise ValueError("constants and alphas disagree on request count")
        if n_req == 0:
            return np.empty((self.n_trees, 0), dtype=np.float64)

        go_left = np.empty((n_req, self.n_branch), dtype=np.uint8)
        for feature, start, stop in self._branch_groups:
            go_left[:, start:stop] = (
                constants[:, feature, None]
                <= self._branch_thresholds[None, start:stop]
            )
        # base * alpha, the same single multiply build_matrix performs.
        scaled_vals = np.ascontiguousarray(
            self._scaled_base[None, :] * alphas[:, None]
        ).reshape(n_req, self._scaled_base.size)

        node_stack = np.empty(self._depth, dtype=np.int64)
        set_stack = np.empty(self._depth * self.n_words, dtype=np.uint64)
        out = np.empty(self.n_trees * n_req * self.n_rows, dtype=np.float64)
        # The per-call arrays are fresh and C-contiguous, and these locals
        # keep them alive until the kernel returns.
        kernel.forest_grid_matrix.raw(
            *self._table_args,
            go_left.ctypes.data,
            self.n_branch,
            scaled_vals.ctypes.data,
            self._scaled_base.size,
            self._prefix_pointer,
            n_req,
            node_stack.ctypes.data,
            set_stack.ctypes.data,
            out.ctypes.data,
        )
        return out.reshape(self.n_trees, n_req * self.n_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridPack(n_trees={self.n_trees}, n_rows={self.n_rows}, "
            f"static={self.n_static} (collapsed {self.n_collapsed} of "
            f"{self.n_static_compiled}), branch={self.n_branch}, "
            f"scaled={self.n_scaled})"
        )
