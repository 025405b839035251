"""Named deterministic random streams.

Every stochastic decision in the reproduction (world structure, A/B coin
flips, topic noise, crawl failures) draws from a stream derived from a root
seed plus a *name*.  Two runs with the same root seed produce bit-identical
worlds and datasets; changing one subsystem's draw pattern cannot perturb
another subsystem because their streams are independent.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

_SEED_BYTES = 8


def derive_seed(root_seed: int, *names: str | int) -> int:
    """Derive a child seed from ``root_seed`` and a path of names.

    The derivation is a SHA-256 hash of the root seed and the name path, so
    it is stable across Python versions and processes (unlike ``hash()``).

    >>> derive_seed(1, "web") == derive_seed(1, "web")
    True
    >>> derive_seed(1, "web") != derive_seed(1, "crawler")
    True
    """
    hasher = hashlib.sha256()
    hasher.update(str(root_seed).encode("utf-8"))
    for name in names:
        hasher.update(b"/")
        hasher.update(str(name).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:_SEED_BYTES], "big")


class RngStream:
    """A named deterministic random stream.

    Wraps :class:`random.Random` seeded via :func:`derive_seed` and adds the
    couple of helpers the reproduction uses most (weighted picks, Bernoulli
    trials, child-stream derivation).
    """

    def __init__(self, root_seed: int, *names: str | int) -> None:
        self._root_seed = root_seed
        self._names = tuple(names)
        self._random = random.Random(derive_seed(root_seed, *names))

    @property
    def name(self) -> str:
        """Human-readable stream path, e.g. ``"web/thirdparty"``."""
        return "/".join(str(part) for part in self._names) or "<root>"

    def child(self, *names: str | int) -> "RngStream":
        """Derive an independent child stream.

        The child is seeded from the root seed and the concatenated path, so
        it does not consume draws from — and cannot be perturbed by — this
        stream.
        """
        return RngStream(self._root_seed, *self._names, *names)

    # -- thin pass-throughs -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def choice(self, population: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(population)

    def shuffle(self, population: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(population)

    def sample(self, population: Sequence[T], count: int) -> list[T]:
        """Sample ``count`` distinct elements."""
        return self._random.sample(population, count)

    # -- composite helpers ---------------------------------------------------

    def bernoulli(self, probability: float) -> bool:
        """One biased coin flip.

        >>> RngStream(0, "t").bernoulli(0.0)
        False
        >>> RngStream(0, "t").bernoulli(1.0)
        True
        """
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def weighted_choice(self, population: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with the given (unnormalised) weights."""
        if len(population) != len(weights):
            raise ValueError("population and weights must have equal length")
        return self._random.choices(population, weights=weights, k=1)[0]

    def pick_cumulative(
        self, population: Sequence[T], cumulative_weights: Sequence[float]
    ) -> T:
        """:meth:`weighted_choice` over precomputed cumulative weights.

        ``random.choices`` accumulates plain weights and then takes the
        same ``bisect(cum_weights, random() * total)`` path, so this
        returns what ``weighted_choice(population, weights)`` would, from
        the same single draw, without re-accumulating per call.
        """
        return self._random.choices(population, cum_weights=cumulative_weights)[0]

    def keep_each(self, odds: Iterable[tuple[T, float]]) -> list[T]:
        """The items of ``(item, probability)`` pairs whose coin comes up.

        Equivalent to ``[item for item, p in odds if self.bernoulli(p)]``
        for positive probabilities, draw for draw: a pair with p >= 1 is
        kept without a draw, any other takes one ``random()``.  Callers
        drop zero-probability pairs beforehand.
        """
        draw = self._random.random
        return [item for item, p in odds if p >= 1.0 or draw() < p]

    def zipf_rank_weights(self, count: int, exponent: float = 1.0) -> list[float]:
        """Zipf weights for ranks 1..count: weight(r) = 1 / r**exponent."""
        if count <= 0:
            raise ValueError("count must be positive")
        return [1.0 / (rank**exponent) for rank in range(1, count + 1)]

    def subset(self, population: Iterable[T], probability: float) -> list[T]:
        """Keep each element independently with the given probability."""
        return [item for item in population if self.bernoulli(probability)]

    def geometric(self, mean: float) -> int:
        """A geometric draw on {0, 1, 2, ...} with the given mean.

        Uses the inverse-CDF method with success probability
        ``1 / (mean + 1)``.

        >>> RngStream(0, "g").geometric(0.0)
        0
        """
        if mean < 0:
            raise ValueError("mean must be non-negative")
        if mean == 0:
            return 0
        success = 1.0 / (mean + 1.0)
        u = self._random.random()
        return int(math.log(1.0 - u) / math.log(1.0 - success))

    def weighted_indices(self, cumulative_weights: Sequence[float], count: int) -> list[int]:
        """Draw ``count`` indices (with replacement) from a distribution
        given by its cumulative weight sequence.

        Callers precompute ``cumulative_weights`` once (e.g. with
        ``itertools.accumulate``) so repeated sampling over a large
        population costs one bisect per draw.
        """
        if not cumulative_weights:
            raise ValueError("empty weight sequence")
        total = cumulative_weights[-1]
        return [
            bisect.bisect_right(cumulative_weights, self._random.random() * total)
            for _ in range(count)
        ]
