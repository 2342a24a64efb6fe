"""Weighted sampling structures.

Preferential-attachment generators repeatedly draw nodes with probability
proportional to a weight (degree, user count, fitness) that changes after
every draw.  A naive linear scan costs O(n) per draw; the structures here
bring that to O(log n) (:class:`FenwickSampler`) or O(1) after O(n) setup for
static weights (:class:`AliasSampler`).

Both samplers draw from the same conceptual distribution::

    P(i) = w_i / sum_j w_j

and raise :class:`ValueError` when the total weight is not positive.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .rng import SeedLike, make_rng

__all__ = [
    "FenwickSampler",
    "AliasSampler",
    "CumulativeSampler",
    "weighted_choice",
    "distinct_in_order",
]


class FenwickSampler:
    """Dynamic weighted sampler backed by a Fenwick (binary indexed) tree.

    Supports O(log n) weight updates, appends, and draws, which makes it the
    workhorse for growing-network generators where the weight of a node
    changes every time it gains an edge or a user.

    Weights must be non-negative; zero-weight items are never drawn.
    """

    def __init__(self, weights: Iterable[float] = (), seed: SeedLike = None):
        self._rng = make_rng(seed)
        # Memoized total: generators read ``total`` before/after every draw,
        # and recomputing the root prefix sum dominated their hot loops.
        # Always the exact ``_prefix_sum(n)`` value (cached, not tracked
        # incrementally), so no float drift versus recomputation.
        self._total_cache: Optional[float] = None
        # Count of positive-weight items, maintained incrementally so
        # ``sample_distinct`` never rescans the whole weight vector.
        self._num_positive = 0
        ws = [float(w) for w in weights]
        for w in ws:
            if w < 0:
                raise ValueError(f"weight must be non-negative, got {w}")
            if w > 0:
                self._num_positive += 1
        self._weights = ws
        # O(n) bulk build: seed each cell with its own weight, then fold
        # every cell into its parent in one left-to-right pass — each cell
        # is touched exactly once as a child and once as a parent.
        n = len(ws)
        tree = [0.0] * (n + 1)
        tree[1:] = ws
        for pos in range(1, n + 1):
            parent = pos + (pos & -pos)
            if parent <= n:
                tree[parent] += tree[pos]
        self._tree = tree

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def total(self) -> float:
        """Sum of all weights currently in the sampler."""
        if self._total_cache is None:
            self._total_cache = self._prefix_sum(len(self._weights))
        return self._total_cache

    def weight(self, index: int) -> float:
        """Current weight of item *index*."""
        return self._weights[index]

    def append(self, weight: float) -> int:
        """Add a new item with *weight*; returns its index."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        index = len(self._weights)
        self._weights.append(0.0)
        self._tree.append(0.0)
        self._total_cache = None
        # Fold the lower Fenwick ranges this new slot covers into its cell.
        pos = index + 1
        low = pos - (pos & -pos) + 1
        self._tree[pos] = sum(self._weights[low - 1 : index])
        self.update(index, weight)
        return index

    def update(self, index: int, weight: float) -> None:
        """Set item *index* to *weight* (absolute, not incremental)."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        self.add(index, weight - self._weights[index])

    def add(self, index: int, delta: float) -> None:
        """Increase item *index* by *delta* (may be negative)."""
        if not 0 <= index < len(self._weights):
            raise IndexError(f"index {index} out of range")
        new_weight = self._weights[index] + delta
        if new_weight < -1e-9:
            raise ValueError(
                f"weight of item {index} would become negative ({new_weight})"
            )
        old_weight = self._weights[index]
        new_weight = max(new_weight, 0.0)
        if (old_weight > 0.0) != (new_weight > 0.0):
            self._num_positive += 1 if new_weight > 0.0 else -1
        self._weights[index] = new_weight
        self._total_cache = None
        tree = self._tree
        size = len(tree)
        pos = index + 1
        while pos < size:
            tree[pos] += delta
            pos += pos & -pos

    def _prefix_sum(self, count: int) -> float:
        """Sum of the first *count* weights."""
        tree = self._tree
        acc = 0.0
        pos = count
        while pos > 0:
            acc += tree[pos]
            pos -= pos & -pos
        return acc

    def sample(self) -> int:
        """Draw one index with probability proportional to its weight."""
        total = self.total
        if total <= 0:
            raise ValueError("cannot sample: total weight is zero")
        target = self._rng.random() * total
        # Descend the implicit Fenwick tree to find the smallest prefix
        # exceeding target.
        tree = self._tree
        weights = self._weights
        n = len(weights)
        index = 0
        bitmask = 1 << (n.bit_length() - 1) if n else 0
        while bitmask > 0:
            nxt = index + bitmask
            if nxt <= n:
                cell = tree[nxt]
                if cell <= target:
                    target -= cell
                    index = nxt
            bitmask >>= 1
        # ``index`` is now the count of items whose cumulative weight is
        # <= target, i.e. the 0-based index of the selected item.
        if index >= n:  # numerical edge at target == total
            index = n - 1
        # Skip over any zero-weight items the float descent may have landed on.
        while weights[index] == 0.0 and index + 1 < n:
            index += 1
        return index

    def sample_distinct(self, count: int, max_tries: int = 10_000) -> List[int]:
        """Draw *count* distinct indices by rejection.

        Suitable when *count* is small relative to the number of positive
        weights (the common preferential-attachment case of picking ``m``
        targets).  Raises :class:`ValueError` if not enough distinct items
        can be found within *max_tries* draws.
        """
        positive = self._num_positive
        if count > positive:
            raise ValueError(
                f"cannot draw {count} distinct items from {positive} with positive weight"
            )
        chosen: set = set()
        tries = 0
        while len(chosen) < count:
            if tries >= max_tries:
                raise ValueError("rejection sampling failed to find distinct items")
            chosen.add(self.sample())
            tries += 1
        return sorted(chosen)


class CumulativeSampler:
    """Batch weighted sampler over a numpy weight array.

    Batch growth kernels draw attachment targets in blocks: one
    ``searchsorted`` over the cumulative weight array replaces thousands of
    Fenwick descents.  The cumsum is rebuilt lazily after weight updates, so
    the intended pattern is *update rarely, draw in batches* — e.g. rebuild
    once per growth step, then draw all of that step's targets at once.

    Draw semantics match :func:`weighted_choice` /
    :class:`FenwickSampler.sample`: ``target = u * total`` with
    ``u ~ U[0, 1)``, the selected index is the first whose cumulative weight
    exceeds the target, and zero-weight items are never returned.
    """

    def __init__(self, weights=None, capacity: int = 0):
        capacity = max(int(capacity), 8)
        self._weights = np.zeros(capacity, dtype=np.float64)
        self._size = 0
        self._cum: Optional[np.ndarray] = None
        if weights is not None:
            arr = np.asarray(list(weights), dtype=np.float64)
            if arr.size and float(arr.min()) < 0:
                raise ValueError("weights must be non-negative")
            self._ensure(arr.size)
            self._weights[: arr.size] = arr
            self._size = int(arr.size)

    def __len__(self) -> int:
        return self._size

    def _ensure(self, size: int) -> None:
        if size > self._weights.shape[0]:
            grown = np.zeros(max(size, 2 * self._weights.shape[0]), dtype=np.float64)
            grown[: self._size] = self._weights[: self._size]
            self._weights = grown

    def append(self, weight: float) -> int:
        """Add a new item with *weight*; returns its index."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        index = self._size
        self._ensure(index + 1)
        self._weights[index] = weight
        self._size = index + 1
        self._cum = None
        return index

    def add(self, index: int, delta: float) -> None:
        """Increase item *index* by *delta* (may be negative)."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range")
        new_weight = self._weights[index] + delta
        if new_weight < -1e-9:
            raise ValueError(
                f"weight of item {index} would become negative ({new_weight})"
            )
        self._weights[index] = max(new_weight, 0.0)
        self._cum = None

    def add_many(self, indices, deltas) -> None:
        """Apply ``weights[indices] += deltas`` in one shot.

        Repeated indices accumulate (``np.add.at`` semantics), which is what
        degree updates after a batch of edges need.
        """
        idx = np.asarray(indices, dtype=np.intp)
        np.add.at(self._weights, idx, deltas)
        self._cum = None

    def weight(self, index: int) -> float:
        """Current weight of item *index*."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range")
        return float(self._weights[index])

    @property
    def weights(self) -> np.ndarray:
        """Live view of the first ``len(self)`` weights (do not mutate)."""
        return self._weights[: self._size]

    @property
    def total(self) -> float:
        """Sum of all weights currently in the sampler."""
        return float(self._cumulative()[-1]) if self._size else 0.0

    def _cumulative(self) -> np.ndarray:
        if self._cum is None or self._cum.shape[0] != self._size:
            self._cum = np.cumsum(self._weights[: self._size])
        return self._cum

    def draw(self, count: int, rng) -> np.ndarray:
        """Draw *count* independent indices ∝ weight (with replacement).

        *rng* is a :class:`numpy.random.Generator`; one ``rng.random(count)``
        call feeds one ``searchsorted``, so a batch of draws consumes the
        uniform stream exactly like *count* sequential scalar draws would
        (numpy's generators are chunk-invariant).
        """
        cum = self._cumulative()
        total = float(cum[-1]) if cum.size else 0.0
        if total <= 0:
            raise ValueError("cannot sample: total weight is zero")
        targets = rng.random(count) * total
        idx = np.searchsorted(cum, targets, side="right")
        np.minimum(idx, self._size - 1, out=idx)
        # Zero-weight items have zero-width cumsum intervals and are never
        # selected by searchsorted except via the float edge clamped above.
        if self._weights[idx].min() <= 0.0:
            weights = self._weights
            for k in np.nonzero(weights[idx] <= 0.0)[0]:
                j = int(idx[k])
                while weights[j] == 0.0 and j + 1 < self._size:
                    j += 1
                idx[k] = j
        return idx

    def draw_distinct(
        self, count: int, rng, exclude=(), max_rounds: int = 64
    ) -> np.ndarray:
        """Draw *count* distinct indices ∝ weight, none in *exclude*.

        Batch rejection: oversample a block, keep first occurrences, repeat
        on the (rare) shortfall.  Matches the distribution of sequential
        rejection sampling, not its draw order.
        """
        excluded = set(exclude)
        weights = self._weights[: self._size]
        available = int(np.count_nonzero(weights > 0.0)) - sum(
            1 for j in excluded if 0 <= j < self._size and weights[j] > 0.0
        )
        if count > available:
            raise ValueError(
                f"cannot draw {count} distinct items from {available} with positive weight"
            )
        chosen: List[int] = []
        seen = set(excluded)
        for _ in range(max_rounds):
            block = self.draw(max(2 * count, 16), rng)
            for j in block.tolist():
                if j not in seen:
                    seen.add(j)
                    chosen.append(j)
                    if len(chosen) == count:
                        return np.asarray(chosen, dtype=np.intp)
        raise ValueError("rejection sampling failed to find distinct items")


def distinct_in_order(draws, count: int, exclude=()) -> List[int]:
    """First *count* distinct values of *draws*, skipping *exclude*.

    Shared post-processing for batch target draws: preserves the order in
    which values first appear, so callers that need the *earliest* distinct
    targets of an oversampled block get them.  Returns fewer than *count*
    values when the block runs dry (callers re-draw).
    """
    seen = set(exclude)
    out: List[int] = []
    for value in draws:
        value = int(value)
        if value not in seen:
            seen.add(value)
            out.append(value)
            if len(out) == count:
                break
    return out


class AliasSampler:
    """Static O(1) weighted sampler (Walker's alias method).

    Preprocesses a fixed weight vector in O(n); each draw then costs one
    uniform variate and one comparison.  Used for workloads that draw many
    samples from an unchanging distribution, e.g. gravity-model traffic
    matrices.
    """

    def __init__(self, weights: Sequence[float], seed: SeedLike = None):
        weights = list(weights)
        if not weights:
            raise ValueError("AliasSampler needs at least one weight")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("total weight must be positive")
        self._rng = make_rng(seed)
        n = len(weights)
        self._n = n
        scaled = [w * n / total for w in weights]
        self._prob = [0.0] * n
        self._alias = [0] * n
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            self._prob[s] = scaled[s]
            self._alias[s] = l
            scaled[l] = scaled[l] + scaled[s] - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for leftover in small + large:
            self._prob[leftover] = 1.0
            self._alias[leftover] = leftover

    def __len__(self) -> int:
        return self._n

    def sample(self) -> int:
        """Draw one index with probability proportional to its weight."""
        u = self._rng.random() * self._n
        index = int(u)
        if index >= self._n:  # guard against u == n on float edge
            index = self._n - 1
        frac = u - index
        if frac < self._prob[index]:
            return index
        return self._alias[index]

    def sample_many(self, count: int) -> List[int]:
        """Draw *count* independent indices."""
        return [self.sample() for _ in range(count)]


def weighted_choice(
    weights: Sequence[float], rng: Optional[random.Random] = None
) -> int:
    """One-shot linear-scan weighted draw.

    Convenience for callers that sample rarely; for hot loops use
    :class:`FenwickSampler` or :class:`AliasSampler`.
    """
    rng = rng if rng is not None else random
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("total weight must be positive")
    target = rng.random() * total
    acc = 0.0
    last_positive = -1
    for index, w in enumerate(weights):
        if w > 0:
            last_positive = index
        acc += w
        if target < acc:
            return index
    return last_positive
