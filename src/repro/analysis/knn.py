"""k-nearest-neighbour search used by the Local Outlier Factor.

Two interchangeable indexes are provided behind the :class:`KnnIndex`
interface:

* :class:`BruteForceKnn` — vectorised exhaustive search (numpy); exact, no
  build cost, and in practice the fastest option below a few thousand
  reference points;
* :class:`BallTreeKnn` — a blocked ball tree: the reference set is split
  into leaf blocks with precomputed centroids and covering radii, and a
  query scans blocks in lower-bound order with vectorised per-block
  pruning.  Sublinear per query, robust to how the mass spreads over the
  simplex.

All return *distances to* and *indices of* the ``k`` nearest points using
the Euclidean metric on pmf probability vectors (the metric LOF's authors
use; the reference points live on the probability simplex so Euclidean and
cosine orderings are nearly identical there).

Determinism is the contract across backends:

* candidate distances are always computed with the exact same floating-point
  expression (the cdist-style ``|q|^2 - 2 q.p + |p|^2`` expansion with a
  fixed-order einsum reduction), so a distance never depends on *which*
  backend produced it or which candidate set it was computed in;
* ties are broken by ascending reference index — the ``k`` returned
  neighbours are the lexicographic minimum under ``(distance, index)`` —
  so duplicated reference points yield the same neighbour set everywhere;
* :meth:`KnnIndex.add_points` grows a fitted index incrementally and is
  required to answer every query exactly as a from-scratch rebuild over the
  combined point set would.

Backends are selected by name through :func:`make_index`; ``"auto"`` picks
brute force below :data:`AUTO_CROSSOVER_POINTS` reference points (where the
exhaustive scan's perfect vectorisation wins) and the blocked ball tree
above it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
import numpy as np

from ..config import KNN_BACKENDS
from ..errors import ModelError

__all__ = [
    "KnnIndex",
    "BruteForceKnn",
    "BallTreeKnn",
    "KNN_BACKENDS",
    "AUTO_CROSSOVER_POINTS",
    "resolve_backend",
    "make_index",
]

#: Reference size below which ``"auto"`` keeps the brute-force scan: under a
#: few thousand points the exhaustive blocked distance matrix is fully
#: vectorised and beats any per-query traversal overhead.
AUTO_CROSSOVER_POINTS = 8192

#: Relative safety margin applied to pruning *bounds* (never to returned
#: distances): a bound is shrunk by this factor before it is allowed to
#: prune, so floating-point slack in the bound arithmetic can never discard
#: a point the exact arithmetic would keep.
_BOUND_MARGIN = 1e-9

#: Absolute slack subtracted from *squared* pruning bounds.  The canonical
#: expansion ``|q|^2 - 2 q.p + |p|^2`` cancels catastrophically for nearly
#: coincident points — a pair separated by ~1e-16 can come out at exactly
#: 0.0 — so a geometric bound may exceed a computed distance by up to a few
#: ulps of the squared norms (~1e-15 on the simplex).  Every prune therefore
#: compares squared quantities and forgives this much; it only weakens
#: pruning for k-th distances below ~3e-7, which never matters.
_BOUND_SLACK_SQ = 1e-13


def _validate_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ModelError(f"points must be a 2-D array, got shape {points.shape}")
    if len(points) == 0:
        raise ModelError("cannot build a k-NN index over zero points")
    if not np.all(np.isfinite(points)):
        raise ModelError("points must be finite")
    return points


def resolve_backend(kind: str, n_points: int) -> str:
    """Resolve a backend name (possibly ``"auto"``) to a concrete backend.

    ``"auto"`` picks ``"brute"`` below :data:`AUTO_CROSSOVER_POINTS` points
    and ``"balltree"`` at or above it.
    """
    if kind == "auto":
        return "brute" if n_points < AUTO_CROSSOVER_POINTS else "balltree"
    if kind not in KNN_BACKENDS:
        raise ModelError(
            f"unknown k-NN backend: {kind!r} (expected one of "
            f"{', '.join(KNN_BACKENDS)} or 'auto')"
        )
    return kind


def make_index(kind: str, points: np.ndarray) -> "KnnIndex":
    """Build the k-NN index named ``kind`` (``"auto"`` resolves by size)."""
    points = _validate_points(points)
    resolved = resolve_backend(kind, len(points))
    if resolved == "brute":
        return BruteForceKnn(points)
    return BallTreeKnn(points)


def _tie_safe_topk(distances: np.ndarray, k: int) -> np.ndarray:
    """Per-row column indices of the ``k`` nearest, ties by ascending index.

    The selected set of every row is the lexicographic minimum under
    ``(distance, column index)``.  A stable argsort handles the ``k >= n``
    case directly; otherwise an argpartition narrows each row to ``k``
    candidates and the rare rows where equal distances straddle the ``k``
    boundary (argpartition is arbitrary about which of them it keeps) are
    repaired with a full stable sort.
    """
    n = distances.shape[1]
    if k >= n:
        return np.argsort(distances, axis=1, kind="stable")
    nearest = np.argpartition(distances, k - 1, axis=1)[:, :k]
    # Ascending column order first, so the stable distance sort below breaks
    # ties inside the selected set by ascending index.
    nearest.sort(axis=1)
    nearest_distances = np.take_along_axis(distances, nearest, axis=1)
    suborder = np.argsort(nearest_distances, axis=1, kind="stable")
    order = np.take_along_axis(nearest, suborder, axis=1)
    # Boundary repair: if the k-th distance also occurs outside the selected
    # set, the lowest-index ties must win.
    kth = np.take_along_axis(distances, order[:, -1:], axis=1)
    full_ties = (distances == kth).sum(axis=1)
    kept_ties = (np.take_along_axis(distances, order, axis=1) == kth).sum(axis=1)
    for row in np.flatnonzero(full_ties != kept_ties):
        order[row] = np.argsort(distances[row], kind="stable")[:k]
    return order


def _select_k_sorted(
    distances: np.ndarray, indices: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``k`` nearest of a 1-D candidate pool, ties by ascending index.

    Same selection semantics as :func:`_tie_safe_topk` but for the gathered
    per-query pools of the sublinear backends: an argpartition narrows the
    pool to ``k``, a lexsort canonicalises just those, and the rare pools
    where equal distances straddle the boundary fall back to a full lexsort.
    """
    if k < len(distances):
        part = np.argpartition(distances, k - 1)[:k]
        kth_value = distances[part].max()
        if np.count_nonzero(distances[part] == kth_value) == np.count_nonzero(
            distances == kth_value
        ):
            inner = np.lexsort((indices[part], distances[part]))
            chosen = part[inner]
            return distances[chosen], indices[chosen]
    chosen = np.lexsort((indices, distances))[:k]
    return distances[chosen], indices[chosen]


class KnnIndex(ABC):
    """Interface of a k-nearest-neighbour index over a growable point set."""

    def __init__(self, points: np.ndarray) -> None:
        self.points = _validate_points(points)

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return len(self.points)

    @property
    def dimension(self) -> int:
        """Dimensionality of the indexed points."""
        return self.points.shape[1]

    def query(self, point: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, indices)`` of the ``k`` nearest points.

        Distances are sorted in non-decreasing order, equal distances by
        ascending point index.  ``k`` is clamped to the number of indexed
        points.
        """
        point, k = self._check_query(point, k)
        distances, indices = self.query_many(point[None, :], k)
        return distances[0], indices[0]

    @abstractmethod
    def query_many(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`query` over several query points, one row per query."""

    def add_points(self, new_points: np.ndarray) -> None:
        """Absorb additional reference points into the fitted index.

        The new points receive indices ``n_points .. n_points + len - 1`` in
        row order.  Every subsequent query answers exactly as a from-scratch
        rebuild over the combined point set would (same distances, same
        neighbour indices, same tie-breaking) — that equivalence is what the
        online-adaptation tests lock down.
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        if new_points.ndim != 2 or new_points.shape[1] != self.dimension:
            raise ModelError(
                f"new points shape {new_points.shape} does not match index "
                f"dimension {self.dimension}"
            )
        if len(new_points) == 0:
            return
        if not np.all(np.isfinite(new_points)):
            raise ModelError("points must be finite")
        n_old = self.n_points
        self.points = np.vstack([self.points, new_points])
        self._absorb_points(n_old)

    @abstractmethod
    def _absorb_points(self, n_old: int) -> None:
        """Update internal structures after ``self.points`` grew past ``n_old``."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _check_queries(self, queries: np.ndarray, k: int) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise ModelError(
                f"query matrix shape {queries.shape} does not match index "
                f"dimension {self.dimension}"
            )
        if k <= 0:
            raise ModelError("k must be positive")
        return queries

    def _check_query(self, point: np.ndarray, k: int) -> tuple[np.ndarray, int]:
        point = np.asarray(point, dtype=float).reshape(-1)
        if len(point) != self.dimension:
            raise ModelError(
                f"query dimension {len(point)} does not match index dimension {self.dimension}"
            )
        if k <= 0:
            raise ModelError("k must be positive")
        return point, min(k, self.n_points)

    def _point_sq_norms(self) -> np.ndarray:
        norms = getattr(self, "_sq_norms", None)
        if norms is None or len(norms) != self.n_points:
            norms = np.einsum("ij,ij->i", self.points, self.points)
            self._sq_norms = norms
        return norms

    def _extend_sq_norms(self, n_old: int) -> None:
        norms = getattr(self, "_sq_norms", None)
        if norms is None:
            return
        fresh = self.points[n_old:]
        self._sq_norms = np.concatenate(
            [norms, np.einsum("ij,ij->i", fresh, fresh)]
        )


class BruteForceKnn(KnnIndex):
    """Exact k-NN by exhaustive vectorised distance computation."""

    #: Cap on the number of floats materialised per distance block, bounding
    #: query_many's peak memory at ~64 MB regardless of the query count.
    _BLOCK_ELEMENTS = 8_000_000

    def __init__(self, points: np.ndarray) -> None:
        super().__init__(points)
        self._sq_norms: np.ndarray | None = None

    def query_many(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised multi-query search over a blocked full distance matrix.

        Each block computes the full query-to-point distance matrix with the
        cdist-style expansion ``|q - p|^2 = |q|^2 - 2 q.p + |p|^2`` and
        selects the ``k`` nearest per row with a tie-safe partition + stable
        sort (equal distances resolve to ascending point index) — no
        per-query Python.  The cross term is an einsum rather than a BLAS
        matmul on purpose: BLAS picks different accumulation orders for
        different row counts, which would make a point's distances depend on
        its batch mates; einsum's fixed reduction order keeps every row
        bit-identical however the queries are batched (the batch/serial and
        cross-backend equivalence tests rely on it).
        """
        queries = self._check_queries(queries, k)
        n_queries = len(queries)
        k = min(k, self.n_points)
        out_distances = np.empty((n_queries, k))
        out_indices = np.empty((n_queries, k), dtype=int)
        sq_norms = self._point_sq_norms()
        block = max(1, self._BLOCK_ELEMENTS // max(1, self.n_points))
        for start in range(0, n_queries, block):
            chunk = queries[start:start + block]
            query_norms = np.einsum("ij,ij->i", chunk, chunk)
            squared = (
                query_norms[:, None]
                - 2.0 * np.einsum("qd,nd->qn", chunk, self.points)
                + sq_norms[None, :]
            )
            # The expansion can go slightly negative through cancellation.
            distances = np.sqrt(np.maximum(squared, 0.0))
            order = _tie_safe_topk(distances, k)
            out_distances[start:start + block] = np.take_along_axis(
                distances, order, axis=1
            )
            out_indices[start:start + block] = order
        return out_distances, out_indices

    def _absorb_points(self, n_old: int) -> None:
        self._extend_sq_norms(n_old)


class BallTreeKnn(KnnIndex):
    """Blocked ball tree: leaf blocks with vectorised per-block pruning.

    The reference set is recursively median-split (highest-spread axis)
    into leaf blocks of ``leaf_size`` points; each block
    stores its centroid and the covering radius.  A batched query computes
    every query-to-centroid distance in one vectorised pass, derives the
    per-block lower bound ``max(|q - c| - r, 0)``, and scans blocks in
    ascending bound order until the bound of the next block exceeds the
    running k-th distance — each scanned block is one vectorised candidate
    gather, never a per-point loop.  The points are also kept in a copy laid
    out block by block, so a block's candidates are one contiguous run of
    rows: gathering them is cache-friendly, which is what makes the scan
    pay at high dimension.

    Incremental :meth:`add_points` appends to a *tail* of points that is
    always scanned exhaustively (so results match a rebuild exactly) and
    re-splits the whole set once the tail outgrows
    ``tail_rebuild_fraction`` of the tree, keeping queries sublinear under
    sustained online adaptation.
    """

    def __init__(
        self,
        points: np.ndarray,
        leaf_size: int = 64,
        tail_rebuild_fraction: float = 0.25,
    ) -> None:
        super().__init__(points)
        if leaf_size <= 0:
            raise ModelError("leaf_size must be positive")
        if tail_rebuild_fraction <= 0:
            raise ModelError("tail_rebuild_fraction must be positive")
        self.leaf_size = int(leaf_size)
        self.tail_rebuild_fraction = float(tail_rebuild_fraction)
        self._rebuild_blocks()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _rebuild_blocks(self) -> None:
        blocks: list[np.ndarray] = []
        stack = [np.arange(self.n_points)]
        while stack:
            indices = stack.pop()
            if len(indices) <= self.leaf_size:
                blocks.append(indices)
                continue
            subset = self.points[indices]
            spreads = subset.max(axis=0) - subset.min(axis=0)
            axis = int(np.argmax(spreads))
            if spreads[axis] <= 0:
                blocks.append(indices)
                continue
            values = subset[:, axis]
            split = float(np.median(values))
            left = values <= split
            if left.all() or not left.any():
                left = values < split
                if left.all() or not left.any():
                    blocks.append(indices)
                    continue
            stack.append(indices[~left])
            stack.append(indices[left])
        centroids = np.stack([self.points[block].mean(axis=0) for block in blocks])
        radii = np.empty(len(blocks))
        for position, block in enumerate(blocks):
            deltas = self.points[block] - centroids[position]
            radii[position] = np.sqrt(
                np.einsum("ij,ij->i", deltas, deltas)
            ).max()
        # Lay the points out block by block; from here on ``_blocks`` holds
        # positions in that layout and ``_order`` maps them back to indices.
        order = np.concatenate(blocks)
        self._order = order
        self._ordered_points = self.points[order]
        self._ordered_sq_norms = self._point_sq_norms()[order]
        sizes = np.asarray([len(block) for block in blocks])
        ends = np.cumsum(sizes)
        self._blocks = [np.arange(end - size, end) for size, end in zip(sizes, ends)]
        self._centroids = centroids
        # Pad the covering radii by a hair so floating-point slack in the
        # radius computation can never tighten a bound below a true distance.
        self._radii = radii * (1.0 + _BOUND_MARGIN) + 1e-15
        self._centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        self._tail_start = self.n_points

    def _absorb_points(self, n_old: int) -> None:
        self._extend_sq_norms(n_old)
        tail_length = self.n_points - self._tail_start
        tree_size = max(self._tail_start, 1)
        if tail_length > max(self.leaf_size, self.tail_rebuild_fraction * tree_size):
            self._rebuild_blocks()
            return
        # The tail keeps its own indices as its positions in the layout.
        self._order = np.concatenate([self._order, np.arange(n_old, self.n_points)])
        self._ordered_points = np.vstack([self._ordered_points, self.points[n_old:]])
        self._ordered_sq_norms = np.concatenate(
            [self._ordered_sq_norms, self._point_sq_norms()[n_old:]]
        )

    def _candidate_distances(
        self, query: np.ndarray, query_norm: float, positions: np.ndarray
    ) -> np.ndarray:
        """Canonical distances from one query to candidates at ``positions``.

        Must stay bit-identical to the full-matrix expansion in
        :meth:`BruteForceKnn.query_many` for any candidate subset: the
        einsum contraction runs over the same fixed-length axis in the same
        order, the squared norms are the canonical ones, and the per-element
        arithmetic is independent of which other candidates share the
        gather.  The cross-backend equivalence suite relies on this.
        """
        squared = (
            query_norm
            - 2.0 * np.einsum(
                "d,nd->n", query, self._ordered_points.take(positions, axis=0)
            )
            + self._ordered_sq_norms.take(positions)
        )
        return np.sqrt(np.maximum(squared, 0.0))

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def query_many(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_queries(queries, k)
        k = min(k, self.n_points)
        n_queries = len(queries)
        out_distances = np.empty((n_queries, k))
        out_indices = np.empty((n_queries, k), dtype=int)
        query_norms = np.einsum("ij,ij->i", queries, queries)
        # One vectorised bound computation for every (query, block) pair.
        centroid_sq = (
            query_norms[:, None]
            - 2.0 * np.einsum("qd,bd->qb", queries, self._centroids)
            + self._centroid_sq_norms[None, :]
        )
        centroid_distances = np.sqrt(np.maximum(centroid_sq, 0.0))
        bounds = np.maximum(centroid_distances - self._radii[None, :], 0.0) * (
            1.0 - _BOUND_MARGIN
        )
        # Phase-one seeding goes by *centroid* distance — the block whose
        # centre is closest almost surely holds true near neighbours, which
        # makes the seeded k-th distance tight.  (The block with the
        # smallest lower *bound* may be a huge-radius block whose points are
        # all far away, which would seed a useless bound.)
        seed_order = np.argsort(centroid_distances, axis=1, kind="stable")
        block_sizes = np.asarray([len(block) for block in self._blocks])
        tail = np.arange(self._tail_start, self.n_points)
        for row in range(n_queries):
            query = queries[row]
            query_norm = query_norms[row]
            order = seed_order[row]
            # Phase one: the tail (always scanned — that is what makes
            # incremental adds exact) plus the closest-centroid blocks until
            # k candidates seed the running k-th distance.
            cumulative = tail.size + np.cumsum(block_sizes[order])
            take = int(np.searchsorted(cumulative, k)) + 1
            take = min(take, len(order))
            taken = order[:take]
            chunks = [self._blocks[position] for position in taken]
            if tail.size:
                chunks.append(tail)
            indices = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            distances = self._candidate_distances(query, query_norm, indices)
            if len(distances) >= k:
                kth = np.partition(distances, k - 1)[k - 1]
            else:
                kth = np.inf
            # Phase two: one bulk gather of every remaining block whose
            # lower bound cannot rule it out.
            survives = bounds[row] ** 2 - _BOUND_SLACK_SQ <= kth * kth
            survives[taken] = False
            rest = np.flatnonzero(survives)
            if len(rest):
                more = np.concatenate([self._blocks[position] for position in rest])
                indices = np.concatenate([indices, more])
                distances = np.concatenate(
                    [distances, self._candidate_distances(query, query_norm, more)]
                )
            out_distances[row], out_indices[row] = _select_k_sorted(
                distances, self._order.take(indices), k
            )
        return out_distances, out_indices
