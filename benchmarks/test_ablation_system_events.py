"""Ablation C: context-switch and paging costs (Sections 4.4, 5.3).

The paper claims TokenTM handles context switches in constant time
(flash-OR circuits) and paging with only metabit save/restore.  This
ablation measures:

* the switch instruction's cost as a function of transaction
  footprint (must stay flat — it is a flash operation);
* a transaction's commit penalty after being descheduled mid-flight
  (it loses fast release and pays the software log walk);
* the behaviour of a transaction whose pages are swapped out and
  back in mid-transaction.
"""

from repro.common.config import HTMConfig, SystemConfig
from repro.coherence.protocol import MemorySystem
from repro.htm.tokentm import TokenTM
from repro.analysis.tables import format_table
from repro.syssupport.paging import BLOCKS_PER_PAGE, PageManager

from benchmarks.conftest import emit

BASE = 0x200000


def _machine():
    return TokenTM(MemorySystem(SystemConfig()), HTMConfig())


def _switch_cost(footprint: int):
    htm = _machine()
    htm.schedule(0, 1)
    htm.begin(0, 1)
    for i in range(footprint):
        htm.read(0, 1, BASE + i)
    return htm.context_switch(0)


def _commit_after_switch(footprint: int):
    htm = _machine()
    htm.schedule(0, 1)
    htm.begin(0, 1)
    for i in range(footprint):
        htm.read(0, 1, BASE + i)
    htm.context_switch(0)
    htm.schedule(2, 1)
    out = htm.commit(2, 1)
    htm.audit()
    return out


def _commit_without_switch(footprint: int):
    htm = _machine()
    htm.begin(0, 1)
    for i in range(footprint):
        htm.read(0, 1, BASE + i)
    out = htm.commit(0, 1)
    htm.audit()
    return out


def test_ablation_context_switch_is_constant_time(benchmark, capsys):
    footprints = (1, 8, 64, 256)
    costs = {fp: _switch_cost(fp) for fp in footprints}
    rows = []
    for fp in footprints:
        plain = _commit_without_switch(fp)
        switched = _commit_after_switch(fp)
        rows.append((fp, costs[fp],
                     plain.latency, switched.latency,
                     "fast" if plain.used_fast_release else "software",
                     "fast" if switched.used_fast_release else "software"))
    emit(capsys, format_table(
        ["Footprint (blocks)", "Switch cost", "Commit (no switch)",
         "Commit (switched)", "Release (plain)", "Release (switched)"],
        rows,
        title="Ablation C1. Context-switch cost vs transaction footprint",
    ))

    # The switch instruction is flash hardware: flat cost.
    assert len(set(costs.values())) == 1
    # A plain small transaction commits fast; a switched one cannot.
    for fp in footprints:
        plain = _commit_without_switch(fp)
        switched = _commit_after_switch(fp)
        assert plain.used_fast_release
        assert not switched.used_fast_release
        assert switched.latency > plain.latency

    def bench_switch():
        return _switch_cost(16)

    assert benchmark(bench_switch) >= 0


def test_ablation_paging_mid_transaction(benchmark, capsys):
    def scenario():
        htm = _machine()
        manager = PageManager(htm)
        page = BASE // BLOCKS_PER_PAGE
        blocks = [page * BLOCKS_PER_PAGE + i for i in range(8)]
        htm.begin(0, 1)
        for b in blocks:
            htm.write(0, 1, b)
        image = manager.page_out(page)
        manager.page_in(page)
        # Conflict detection intact after the round trip:
        htm.begin(1, 2)
        denied = htm.read(1, 2, blocks[0])
        out = htm.commit(0, 1)
        htm.commit(1, 2)
        htm.audit()
        return image, denied, out

    image, denied, out = benchmark.pedantic(scenario, rounds=1,
                                            iterations=1)
    emit(capsys, "Ablation C2. Paging mid-transaction: "
                 f"{len(image.metabits)} blocks of metabits travelled "
                 f"with the page; post-page-in conflict detection "
                 f"worked (reader denied: {not denied.granted}); the "
                 f"paged transaction committed via "
                 f"{'software release' if not out.used_fast_release else 'fast release'}.")
    assert len(image.metabits) == 8
    assert not denied.granted          # writer state survived the swap
    assert not out.used_fast_release   # page-out killed the fast path
