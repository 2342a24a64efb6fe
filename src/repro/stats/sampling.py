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

from .rng import SeedLike, make_rng

__all__ = [
    "FenwickSampler",
    "AliasSampler",
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
