"""One transaction lifecycle contract, held by every HTM variant.

All variants share LogTM's eager version management (``htm/base.py``):
the live-transaction table, the per-thread undo logs, the log append
and the undo walk.  These tests drive each variant through the same
begin/write/abort sequence and check the shared bookkeeping and its
cycle accounting.
"""

import pytest

from repro.common.config import HTMConfig
from repro.common.errors import SimulationError, TransactionError
from repro.coherence.protocol import MemorySystem
from repro.htm import VARIANTS, make_htm
from tests.conftest import SMALL_T, small_system

#: Distinct data blocks, far from the log region.
BLOCKS = (0x6000, 0x6041, 0x6082, 0x60c3)


@pytest.fixture(params=VARIANTS)
def htm(request):
    return make_htm(request.param, MemorySystem(small_system()),
                    HTMConfig(tokens_per_block=SMALL_T))


def test_second_begin_raises(htm):
    htm.begin(0, 0)
    with pytest.raises(TransactionError, match="already in a transaction"):
        htm.begin(0, 0)


def test_begin_on_a_core_holding_another_live_transaction_raises(htm):
    htm.begin(1, 8)
    with pytest.raises(SimulationError, match="core 1 is running thread 8"):
        htm.begin(1, 1)
    assert htm.running(1) == 8
    assert htm.active_tids() == [8]
    # Once thread 8's transaction ends, the core may start another.
    htm.commit(1, 8)
    htm.begin(1, 1)
    assert htm.running(1) == 1


@pytest.mark.parametrize("op", ["read", "write", "commit", "abort"])
def test_op_without_live_transaction_raises(htm, op):
    args = (0, 0, BLOCKS[0]) if op in ("read", "write") else (0, 0)
    with pytest.raises(TransactionError, match="no live transaction"):
        getattr(htm, op)(*args)
    # Nor once the thread's transaction has ended.
    htm.begin(0, 0)
    htm.commit(0, 0)
    with pytest.raises(TransactionError, match="no live transaction"):
        getattr(htm, op)(*args)


def test_abort_undoes_writes_and_retires(htm):
    htm.begin(0, 0)
    for block in BLOCKS:
        assert htm.write(0, 0, block).granted
    assert htm.active_tids() == [0]
    assert htm.write_set_size(0) == len(BLOCKS)
    assert htm.log_entries(0) == len(BLOCKS)
    htm.abort(0, 0)
    assert htm.active_tids() == []
    assert htm.read_set_size(0) == 0
    assert htm.write_set_size(0) == 0
    assert htm.log_entries(0) == 0
    assert htm.stats.log_write_cycles > 0
    assert htm.stats.undo_cycles > 0
    assert htm.stats.aborts == 1


def test_log_is_reused_across_transactions(htm):
    """A thread's log is reset, not rebuilt, when its transaction ends."""
    htm.begin(0, 0)
    htm.write(0, 0, BLOCKS[0])
    log = htm._logs[0]
    htm.commit(0, 0)
    htm.begin(0, 0)
    assert htm._logs[0] is log
    assert htm.log_entries(0) == 0
