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
