"""Alternative contention policies (requester-loses / requester-wins)."""

import pytest

from repro.common.config import HTMConfig, RunConfig
from repro.common.errors import ConfigError
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.htm.base import ConflictInfo, ConflictKind
from repro.runtime.contention import (
    POLICIES,
    RequesterLosesPolicy,
    RequesterWinsPolicy,
    Resolution,
    TimestampManager,
)
from repro.runtime.executor import Executor
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    begin,
    commit,
    compute,
    read,
    write,
)
from tests.conftest import SMALL_T, small_system

B = 0xD000


def policy_name(policy_cls):
    """The ``POLICIES`` name the executor builds ``policy_cls`` from."""
    return next(name for name, cls in POLICIES.items()
                if cls is policy_cls)


def info(hints=(1,), kind=ConflictKind.WRITER):
    return ConflictInfo(0x1, kind, hints=hints)


class TestRequesterLoses:
    def test_always_aborts_self(self):
        policy = RequesterLosesPolicy(HTMConfig(), seed=1)
        policy.transaction_started(0, 1)   # requester is the oldest
        policy.transaction_started(1, 2)
        decision = policy.resolve(0, info(hints=(1,)), live_tids=[0, 1])
        assert decision.resolution is Resolution.ABORT_SELF

    def test_dead_holders_mean_retry(self):
        policy = RequesterLosesPolicy(HTMConfig(), seed=1)
        decision = policy.resolve(0, info(hints=(9,)), live_tids=[0])
        assert decision.resolution is Resolution.STALL_AND_RETRY
        assert decision.victims == ()

    def test_nontxn_still_wins(self):
        policy = RequesterLosesPolicy(HTMConfig(), seed=1)
        policy.transaction_started(1, 1)
        decision = policy.resolve(None, info(hints=(1,)), live_tids=[1])
        assert decision.victims == (1,)


class TestRequesterWins:
    def test_always_dooms_holders(self):
        policy = RequesterWinsPolicy(HTMConfig(), seed=1)
        policy.transaction_started(0, 5)   # requester is younger
        policy.transaction_started(1, 1)
        decision = policy.resolve(0, info(hints=(1,)), live_tids=[0, 1])
        assert decision.resolution is Resolution.STALL_AND_RETRY
        assert decision.victims == (1,)

    def test_serialization_dooms_nobody(self):
        policy = RequesterWinsPolicy(HTMConfig(), seed=1)
        decision = policy.resolve(
            0, info(hints=(1,), kind=ConflictKind.SERIALIZATION),
            live_tids=[0, 1],
        )
        assert decision.victims == ()


def test_executor_rejects_an_unknown_policy_name():
    trace = WorkloadTrace("one", [ThreadTrace(0, [begin(), commit()])])
    machine = make_htm("TokenTM", MemorySystem(small_system()), HTMConfig())
    with pytest.raises(ConfigError, match="unknown contention policy"):
        Executor(machine, trace, RunConfig(), policy="oldest-wins")


@pytest.mark.parametrize("policy_cls", [
    TimestampManager, RequesterLosesPolicy, RequesterWinsPolicy,
])
class TestEndToEnd:
    def _trace(self):
        threads = [
            ThreadTrace(t, sum(
                [[begin(), read(B), compute(60), write(B + 1 + t),
                  commit(), compute(40)] for _ in range(5)], []))
            for t in range(4)
        ]
        return WorkloadTrace("policy", threads)

    def test_all_commit_and_serializable(self, policy_cls):
        cfg = HTMConfig(tokens_per_block=SMALL_T)
        machine = make_htm("TokenTM", MemorySystem(small_system()), cfg)
        run_cfg = RunConfig(htm=cfg, seed=3)
        executor = Executor(machine, self._trace(), run_cfg, quantum=1,
                            policy=policy_name(policy_cls))
        result = executor.run()
        machine.audit()
        assert result.stats.commits == 20
        result.history.check_serializable()

    def test_write_contention_converges(self, policy_cls):
        cfg = HTMConfig(tokens_per_block=SMALL_T)
        machine = make_htm("TokenTM", MemorySystem(small_system()), cfg)
        threads = [
            ThreadTrace(t, sum(
                [[begin(), write(B), compute(40), commit(),
                  compute(100)] for _ in range(4)], []))
            for t in range(3)
        ]
        trace = WorkloadTrace("hot", threads)
        executor = Executor(machine, trace,
                            RunConfig(htm=cfg, seed=5),
                            quantum=1, policy=policy_name(policy_cls))
        result = executor.run()
        machine.audit()
        assert result.stats.commits == 12
        result.history.check_serializable()
