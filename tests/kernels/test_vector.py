"""Columnar helpers: numpy path vs pure-Python fallback, and the
bulk-query methods (hit filter, metabit profile) vs their scalar
reference implementations."""

import random

import pytest

import repro.common.vector as vector
from repro.common.vector import (
    compute_prefix,
    histogram_dict,
    run_ends,
    state_counts,
)
from repro.workloads.trace import OP_BEGIN, OP_COMMIT, OP_COMPUTE, \
    OP_READ, OP_WRITE


def _random_ops(rng, n=200):
    opcodes, args = [], []
    for _ in range(n):
        op = rng.choice([OP_BEGIN, OP_COMMIT, OP_COMPUTE, OP_READ,
                         OP_WRITE])
        opcodes.append(op)
        args.append(rng.randrange(1, 9) if op == OP_COMPUTE
                    else rng.randrange(256))
    return opcodes, args


def _reference_prefix(opcodes, args):
    prefix, acc = [0], 0
    for op, arg in zip(opcodes, args):
        if op == OP_COMPUTE:
            acc += arg
        prefix.append(acc)
    return prefix


def _reference_ends(opcodes, members):
    n = len(opcodes)
    ends = []
    for i in range(n):
        j = i
        while j < n and opcodes[j] in members:
            j += 1
        ends.append(j if opcodes[i] in members else i)
    return ends


@pytest.mark.parametrize("force_fallback", [False, True],
                         ids=["native", "fallback"])
def test_columns_match_reference(monkeypatch, force_fallback):
    if force_fallback:
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
    rng = random.Random(42)
    for trial in range(10):
        opcodes, args = _random_ops(rng)
        assert compute_prefix(opcodes, args, OP_COMPUTE) == \
            _reference_prefix(opcodes, args)
        assert run_ends(opcodes, (OP_COMPUTE,)) == \
            _reference_ends(opcodes, (OP_COMPUTE,))
        assert run_ends(opcodes, (OP_READ, OP_WRITE)) == \
            _reference_ends(opcodes, (OP_READ, OP_WRITE))
    assert compute_prefix([], [], OP_COMPUTE) == [0]
    assert run_ends([], (OP_COMPUTE,)) == []


@pytest.mark.parametrize("force_fallback", [False, True],
                         ids=["native", "fallback"])
def test_state_counts_paths_agree(monkeypatch, force_fallback):
    if force_fallback:
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
    rng = random.Random(7)
    values = [rng.randrange(1 << 16) for _ in range(500)]
    counts = state_counts(values, 14, 0b11, 4)
    expected = [0] * 4
    for v in values:
        expected[(v >> 14) & 0b11] += 1
    assert counts == expected
    assert state_counts([], 14, 0b11, 4) == [0, 0, 0, 0]
    assert histogram_dict(("a", "b"), (1, 2)) == {"a": 1, "b": 2}


def test_fallback_kernel_matches_numpy_kernel(monkeypatch):
    """A batch run with the columns built by the pure-Python fallback
    must equal one built with numpy (and both must equal interp —
    covered by the lockstep suite)."""
    from repro.analysis.experiments import run_cell
    from repro.workloads import cholesky

    native = run_cell(cholesky(), "TokenTM", scale=0.004, seed=3,
                      kernel="batch").stats.snapshot()
    monkeypatch.setattr(vector, "HAVE_NUMPY", False)
    fallback = run_cell(cholesky(), "TokenTM", scale=0.004, seed=3,
                        kernel="batch").stats.snapshot()
    assert native == fallback


def test_fast_probe_many_matches_filter_state():
    from repro.common.config import SystemConfig
    from repro.coherence.protocol import MemorySystem

    mem = MemorySystem(SystemConfig())
    for block in range(64, 96):
        mem.access(0, block, is_write=bool(block & 1))
    blocks = list(range(64, 128))
    probes = mem.fast_probe_many(0, blocks)
    assert len(probes) == len(blocks)
    assert any(probes[:32])
    # Probing must be side-effect-free: repeating it changes nothing.
    assert mem.fast_probe_many(0, blocks) == probes
    write_probes = mem.fast_probe_many(0, blocks, is_write=True)
    assert len(write_probes) == len(blocks)
    # A write probe can only hit where a read probe also hits.
    assert all(not w or r for w, r in zip(write_probes, probes))
    # With the filters off every probe misses.
    cold = MemorySystem(SystemConfig(), fast_path=False)
    assert cold.fast_probe_many(0, blocks) == [False] * len(blocks)


def test_metabit_state_counts_profile():
    from repro.core.metastate import Meta
    from repro.mem.metabit_store import MetabitStore

    store = MetabitStore(tokens_per_block=32)
    profile = store.state_counts()
    assert profile["active_blocks"] == 0
    store.store(1, Meta(3, None))    # anonymous count
    store.store(2, Meta(1, 7))      # identified reader
    store.store(3, Meta(32, 9))     # writer (fused)
    store.store(4, Meta(1 << 15, None))  # overflow
    profile = store.state_counts()
    assert profile == {"count": 1, "reader": 1, "writer": 1,
                       "overflow": 1, "active_blocks": 4}


def test_batch_probe_footprint():
    """The batch kernel's gather over the L1 hit filters reports
    footprint probes without perturbing the run."""
    from repro.common.config import HTMConfig, RunConfig, SystemConfig
    from repro.coherence.protocol import MemorySystem
    from repro.htm import make_htm
    from repro.runtime.executor import Executor
    from repro.workloads import cholesky

    trace = cholesky().generate(seed=7, scale=0.004, threads=4)
    sys_cfg = SystemConfig()
    machine = make_htm("TokenTM", MemorySystem(sys_cfg), HTMConfig())
    executor = Executor(machine, trace,
                        RunConfig(system=sys_cfg, seed=7, kernel="batch"),
                        validate=False, track_history=False)
    executor.run()
    footprint = executor._kernel.probe_footprint()
    assert footprint["filter_probes"] > 0
    assert 0 <= footprint["filter_hits"] <= footprint["filter_probes"]
