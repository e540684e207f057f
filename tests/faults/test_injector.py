"""Fault injector: determinism, NULL idiom, per-fault machinery."""

import random

import pytest

from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.common.errors import ConfigError, SimulationError
from repro.faults.campaign import run_chaos_cell
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.monitor import InvariantMonitor
from repro.faults.plan import FaultPlan, FaultSpec, default_plan
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.runtime.executor import Executor
from repro.workloads import vacation_low


class TestNullInjector:
    def test_disabled_and_refuses_to_run(self):
        assert NULL_INJECTOR.enabled is False
        with pytest.raises(SimulationError):
            NULL_INJECTOR.on_quantum(None, None)

    def test_snapshot_shape(self):
        snap = NULL_INJECTOR.snapshot()
        assert snap["enabled"] is False

    def test_empty_plan_means_disabled(self):
        injector = FaultInjector(FaultPlan(), seed=1)
        assert injector.enabled is False


def _count_quanta(threads, monitor=None):
    """Run 4 cores, counting quanta and quantum-boundary hook calls."""
    system = SystemConfig().scaled(4)
    trace = vacation_low().generate(seed=3, scale=0.004, threads=threads)
    htm_cfg = HTMConfig()
    executor = Executor(
        make_htm("TokenTM", MemorySystem(system), htm_cfg), trace,
        RunConfig(system=system, htm=htm_cfg, seed=3), validate=False,
        track_history=monitor is not None, monitor=monitor)
    counts = {"quanta": 0, "boundaries": 0}
    run_quantum = executor._run_quantum
    boundary = executor._quantum_boundary

    def counting_quantum(thread):
        counts["quanta"] += 1
        run_quantum(thread)

    def counting_boundary(thread):
        counts["boundaries"] += 1
        boundary(thread)

    executor._run_quantum = counting_quantum
    executor._quantum_boundary = counting_boundary
    return executor.run().stats, counts


@pytest.mark.parametrize("threads", [4, 8], ids=["dedicated", "preemptive"])
def test_null_faults_path_never_reaches_the_quantum_boundary(threads):
    """With the NULL injector and monitor (the defaults) the scheduling
    loops pay one hoisted branch per quantum and call nothing; with a
    monitor on, the hook runs exactly once after every quantum."""
    stats, null = _count_quanta(threads)
    assert null["quanta"] > 0
    assert null["boundaries"] == 0
    assert (stats.preemptions > 0) == (threads > 4)
    _, monitored = _count_quanta(threads, InvariantMonitor(cadence=64))
    assert monitored["boundaries"] == monitored["quanta"] == null["quanta"]


class TestDeterminism:
    def test_same_seed_and_plan_replay_identically(self):
        a = run_chaos_cell(seed=5, scale=0.002)
        b = run_chaos_cell(seed=5, scale=0.002)
        assert a.ok and b.ok
        assert a.stats.snapshot() == b.stats.snapshot()
        assert a.stats.faults == b.stats.faults
        assert a.stats.faults["injected"]  # something actually fired

    def test_different_seeds_diverge(self):
        a = run_chaos_cell(seed=5, scale=0.002)
        b = run_chaos_cell(seed=6, scale=0.002)
        assert a.stats.faults != b.stats.faults

    def test_plan_rename_does_not_change_rng_lane(self):
        specs = (FaultSpec("preempt", prob=0.5),)
        a = FaultPlan(specs=specs, name="alpha")
        b = FaultPlan(specs=specs, name="beta")
        assert a.rng_lane() == b.rng_lane()


class TestJitter:
    def test_apply_and_clear(self):
        mem = MemorySystem(SystemConfig())
        topo = mem.topology
        hop = mem.config.latency.hop
        base = topo.core_to_bank_latency(0, 1)
        assert base == topo.core_to_bank_hops(0, 1) * hop
        topo.apply_jitter(random.Random(1), amplitude=4)
        jittered = topo.core_to_bank_latency(0, 1)
        assert base <= jittered <= base + 4
        # Re-applying derives from the hop tables, never accumulates.
        for _ in range(10):
            topo.apply_jitter(random.Random(2), amplitude=4)
        assert base <= topo.core_to_bank_latency(0, 1) <= base + 4
        topo.clear_jitter()
        assert topo.core_to_bank_latency(0, 1) == base

    def test_negative_amplitude_rejected(self):
        mem = MemorySystem(SystemConfig())
        with pytest.raises(ConfigError):
            mem.topology.apply_jitter(random.Random(0), amplitude=-1)


class TestWayMask:
    def test_mask_and_clamp(self, tokentm):
        mem = tokentm.mem
        core = 0
        base = 1 << 8
        for i in range(8):
            tokentm.nontxn_read(core, 99, base + i)
        cache = mem._caches[core]
        assert cache.ways == cache._geometry.associativity
        overflow = mem.mask_ways(core, 1)
        assert cache.ways == 1
        assert overflow >= 0
        mem.audit()  # evictions went through the protocol layer
        # Clamping: way limits never exceed associativity or drop to 0.
        cache.set_way_limit(99)
        assert cache.ways == cache._geometry.associativity
        cache.set_way_limit(0)
        assert cache.ways == 1

    def test_masked_cache_still_serves_accesses(self, tokentm):
        mem = tokentm.mem
        mem.mask_ways(0, 1)
        tokentm.begin(0, 1)
        for i in range(8):
            assert tokentm.read(0, 1, (1 << 8) + i).granted
        tokentm.commit(0, 1)
        tokentm.audit()


class TestPerKindApplication:
    def test_every_kind_fires_somewhere(self):
        # One TokenTM cell under the default plan must exercise every
        # fault kind (page_remap included, since TokenTM supports it).
        cell = run_chaos_cell(variant="tokentm", seed=1, scale=0.01,
                              plan=default_plan())
        assert cell.ok
        fired = set(cell.stats.faults["injected"])
        assert fired == {s.kind for s in default_plan().specs}

    def test_page_remap_skipped_on_non_tokentm(self):
        plan = FaultPlan(specs=(FaultSpec("page_remap", every=4),))
        cell = run_chaos_cell(variant="logtm_se", seed=0, scale=0.002,
                              plan=plan)
        assert cell.ok
        assert not cell.stats.faults["injected"]
        assert cell.stats.faults["skipped"].get("page_remap", 0) > 0
