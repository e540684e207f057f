"""The HTM's core registers: schedule, deschedule, resume elsewhere."""

import pytest

from repro.common.errors import SimulationError, TransactionError

B = 0x8000


def migrate(htm, from_core, to_core):
    """Deschedule ``from_core``'s thread and resume it on ``to_core``."""
    tid = htm.running(from_core)
    cycles = htm.context_switch(from_core)
    htm.schedule(to_core, tid)
    return cycles


class TestScheduling:
    def test_start_and_deschedule(self, tokentm):
        tokentm.schedule(0, 7)
        assert tokentm.running(0) == 7
        cycles = tokentm.context_switch(0)
        assert cycles >= 0
        assert tokentm.running(0) is None

    def test_double_start_rejected(self, tokentm):
        tokentm.schedule(0, 7)
        tokentm.schedule(0, 7)  # the running thread may be rescheduled
        with pytest.raises(SimulationError, match="core 0 is running"):
            tokentm.schedule(0, 8)
        assert tokentm.running(0) == 7

    def test_audit_rejects_a_thread_on_two_cores(self, tokentm):
        tokentm.schedule(0, 7)
        tokentm.audit()
        tokentm.schedule(1, 7)  # resumed elsewhere without a switch
        with pytest.raises(TransactionError,
                           match="thread 7 is registered on cores 0 and 1"):
            tokentm.audit()

    def test_exited_thread_clears_without_switch(self, tokentm):
        tokentm.schedule(0, 7)
        tokentm.schedule(0, None)
        assert tokentm.running(0) is None
        tokentm.schedule(0, 8)
        assert tokentm.running(0) == 8


class TestMidTransactionSwitch:
    def test_tokens_survive_switch(self, tokentm):
        tokentm.schedule(0, 0)
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        tokentm.context_switch(0)
        tokentm.audit()
        # A new thread on core 0 cannot write the protected block.
        tokentm.schedule(0, 9)
        tokentm.begin(0, 9)
        assert not tokentm.write(0, 9, B).granted
        tokentm.commit(0, 9)
        tokentm.audit()

    def test_migrate_continues_transaction(self, tokentm):
        tokentm.schedule(0, 0)
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        migrate(tokentm, 0, 3)
        assert tokentm.running(3) == 0
        assert tokentm.running(0) is None
        assert tokentm.write(3, 0, B).granted  # upgrade on new core
        tokentm.commit(3, 0)
        tokentm.audit()

    def test_migrated_commit_uses_software_release(self, tokentm):
        tokentm.schedule(0, 0)
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        migrate(tokentm, 0, 2)
        out = tokentm.commit(2, 0)
        assert not out.used_fast_release
        tokentm.audit()
