"""Property tests: :func:`repro.common.rng.below` is ``randrange``.

The workload generator draws its bounded integers through ``below``
(inlined in its hot loops) instead of ``Random.randrange`` and
``Random.randint``; the traces stay byte-identical only if ``below``
consumes the same bits and returns the same values, draw for draw,
with ``random()`` calls interleaved.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import below

#: n = 1, powers of two (where half of all draws are rejected) and
#: their neighbours, and arbitrary sizes.
BOUNDS = st.one_of(
    st.just(1),
    st.integers(0, 70).map(lambda e: 2 ** e),
    st.integers(1, 70).map(lambda e: 2 ** e - 1),
    st.integers(0, 70).map(lambda e: 2 ** e + 1),
    st.integers(1, 1 << 80),
)
#: One step: ("below", n, 0), ("randint", n, low) or ("random", 0, 0).
STEPS = st.one_of(
    st.tuples(st.just("below"), BOUNDS, st.just(0)),
    st.tuples(st.just("randint"), BOUNDS, st.integers(-1000, 1000)),
    st.tuples(st.just("random"), st.just(0), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.lists(STEPS, max_size=40))
def test_below_matches_randrange_and_randint(seed, steps):
    stdlib = random.Random(seed)
    ours = random.Random(seed)
    for kind, n, low in steps:
        if kind == "below":
            assert below(ours, n) == stdlib.randrange(n)
        elif kind == "randint":
            assert low + below(ours, n) == stdlib.randint(low, low + n - 1)
        else:
            assert ours.random() == stdlib.random()
    assert ours.getstate() == stdlib.getstate()


@given(st.integers(0, 2 ** 64 - 1))
def test_below_one_consumes_bits(seed):
    # randrange(1) always returns 0 but still draws (and may reject)
    # one bit per try; below must draw the same bits.
    stdlib = random.Random(seed)
    ours = random.Random(seed)
    assert [below(ours, 1) for _ in range(50)] == \
        [stdlib.randrange(1) for _ in range(50)]
    assert ours.getstate() == stdlib.getstate()
