"""Deterministic random-number helpers.

All stochastic components of the reproduction (workload generators,
perturbed simulation runs) derive their streams from a single integer
seed through :func:`substream`, so any experiment is reproducible from
its ``RunConfig.seed`` alone.  The synthetic TM generator draws its
bounded integers with :func:`below`, which reproduces ``randrange``
bit for bit.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")

#: Mixing constant (the 64-bit golden ratio) used to decorrelate
#: substream seeds derived from small consecutive integers.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """SplitMix64 finalizer: scrambles a 64-bit integer."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def substream(seed: int, *lane: int) -> random.Random:
    """Return an independent :class:`random.Random` for a lane.

    ``substream(seed, a, b)`` and ``substream(seed, a, c)`` are
    decorrelated for ``b != c``; the same arguments always return an
    identically-seeded generator.
    """
    state = _mix(seed & _MASK64)
    for part in lane:
        state = _mix(state ^ _mix(part & _MASK64))
    return random.Random(state)


def below(rng: random.Random, n: int) -> int:
    """Draw from ``range(n)``, exactly as ``rng.randrange(n)`` does.

    For ``n > 0``, :meth:`random.Random.randrange` reduces to CPython's
    ``_randbelow_with_getrandbits``: draw ``k = n.bit_length()`` bits
    and reject results ``>= n``.  This is that loop without the two
    pure-Python stdlib frames around it, so a generator using it
    consumes the same bits and returns the same values as one calling
    ``randrange``.  ``rng.randint(a, b)`` is ``a + below(rng, b - a + 1)``.
    The algorithm is the same in CPython 3.10 through 3.13.

    Hot loops inline these lines with ``k`` computed once per range
    (see :mod:`repro.workloads.base`).
    ``tests/properties/test_prop_rng.py`` checks the equivalence draw
    for draw.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def perturbation_seeds(seed: int, runs: int) -> list:
    """Seeds for pseudo-randomly perturbed simulation runs.

    The paper runs multiple perturbed simulations to produce 95%
    confidence intervals; each run gets one of these seeds.
    """
    return [_mix(seed ^ _mix(i + 1)) for i in range(runs)]


def bounded_sample(rng: random.Random, mean: float, maximum: int,
                   minimum: int = 1) -> int:
    """Draw a positive integer with the given mean, capped at ``maximum``.

    Uses a geometric-like draw whose long tail is clipped to
    ``maximum``.  Workload generators use this to reproduce the
    paper's Table 5 average/maximum read- and write-set sizes, which
    pair small averages with occasional very large transactions.
    """
    if maximum < minimum:
        raise ValueError("maximum must be >= minimum")
    if mean <= minimum:
        return minimum
    # Geometric distribution on {minimum, minimum+1, ...} with the
    # requested mean has success probability 1/(mean - minimum + 1).
    p = 1.0 / (mean - minimum + 1.0)
    value = minimum
    while rng.random() > p and value < maximum:
        value += 1
        # Re-draw trick keeps the tail geometric without looping
        # unboundedly: each iteration extends by one with prob (1-p).
    return value


def weighted_choice(rng: random.Random, items: Sequence[T],
                    weights: Sequence[float]) -> T:
    """Pick one item with the given relative weights."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    target = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if target < acc:
            return item
    return items[-1]


def interleave_round_robin(streams: Sequence[Iterator[T]]) -> Iterator[T]:
    """Round-robin merge of several iterators until all are exhausted."""
    live = list(streams)
    while live:
        still_live = []
        for stream in live:
            try:
                yield next(stream)
            except StopIteration:
                continue
            still_live.append(stream)
        live = still_live
