"""The benchmark's own tests.  Run: python3 -m pytest perfbench/tests"""

import json
import re

import pytest

import grid
import hostspeed
import run
from repro.runtime.contention import TimestampManager
from repro.runtime.executor import Executor
from repro.workloads import tm_workloads
from tracer import Tracer, _traced, instrument

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = run.HERE.parent / "BENCHMARK.json"


class FakeClock:
    """Returns the scripted instants, one per call."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def test_self_time_of_a_nested_call_tree():
    # runtime [0, 10] -> htm [1, 7] -> coherence [2, 4]
    #                                 -> signatures [5, 6]
    #                 -> coherence [8, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 8, 9, 10]))
    tracer.enter("runtime")
    tracer.enter("htm.tokentm")
    tracer.enter("coherence")
    tracer.exit()
    tracer.enter("signatures")
    tracer.exit()
    tracer.exit()
    tracer.enter("coherence")
    tracer.exit()
    tracer.exit()

    self_s = tracer.self_times()
    assert self_s["runtime"] == 10 - 6 - 1
    assert self_s["htm.tokentm"] == 6 - 2 - 1
    assert self_s["coherence"] == 2 + 1
    assert self_s["signatures"] == 1
    assert sum(self_s.values()) == 10
    assert tracer.edges[("runtime", "coherence")] == [1, 1, 1]
    assert tracer.edges[("htm.tokentm", "coherence")] == [1, 2, 2]
    assert tracer.edges[(None, "runtime")] == [1, 10, 3]


def test_same_layer_call_is_counted_but_opens_no_span():
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4]))
    count = [0]
    inner = _traced(lambda: "inner", "coherence", tracer, count)
    outer = _traced(lambda: inner(), "coherence", tracer, count)
    runtime = _traced(outer, "runtime", tracer, [0])
    assert runtime() == "inner"
    assert count == [2]
    assert tracer.edges == {("runtime", "coherence"): [1, 2, 2],
                            (None, "runtime"): [1, 4, 2]}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0, 1]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        _traced(boom, "mem", tracer, [0])()
    assert tracer.stack == []
    assert tracer.self_times()["mem"] == 1


def _small_cells():
    """Two small cells: a signature variant and TokenTM."""
    trace = tm_workloads()["Vacation-High"].generate(
        seed=3, scale=0.001, threads=32)
    return [grid.run_cell(grid.Cell("Vacation-High", variant), [(trace, 3)])
            for variant in ("LogTM-SE_2xH3", "TokenTM")], trace


def test_traced_run_reproduces_the_untraced_stats():
    untraced, trace = _small_cells()
    tracer = Tracer()
    with instrument(tracer):
        traced = [grid.run_cell(r.cell, [(trace, 3)]) for r in untraced]
    assert [r.digest for r in traced] == [r.digest for r in untraced]
    logtm, tokentm = (r.runs[0]["machine"] for r in untraced)
    assert tracer.calls["LogTMSE.read"] == logtm["txn_reads"]
    assert tracer.calls["LogTMSE.write"] == logtm["txn_writes"]
    assert tracer.calls["TokenTM.read"] == tokentm["txn_reads"]
    assert tracer.calls["TokenTM.commit"] == tokentm["commits"]
    fastpath = [r.fastpaths[0] for r in untraced]
    assert tracer.calls["MemorySystem.fast_hit"] == sum(
        f["coherence_read_hits"] + f["coherence_write_hits"]
        for f in fastpath)
    assert tracer.calls["BloomSignature.test"] > 0
    self_s = tracer.self_times()
    for layer in ("runtime", "htm.logtm_se", "htm.tokentm", "signatures",
                  "coherence", "core", "mem"):
        assert self_s[layer] > 0, layer


def test_instrument_restores_every_patched_method():
    before = Executor.run
    with instrument(Tracer()):
        assert Executor.run is not before
    assert Executor.run is before
    assert "resolve" not in vars(TimestampManager)  # inherited, unpatched


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(grid.WORKLOADS)
    untraced, _trace = _small_cells()
    e2e = run.end_to_end([untraced, untraced], setup_s=[0.5])
    layers = run.per_layer(untraced, Tracer(), 1.0, 2.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for group, measured in (("end_to_end", e2e), ("per_layer", layers)):
        for metric in spec[group]:
            assert measured[metric["name"]]["unit"] == metric["unit"]
    names = list(grid.WORKLOADS) + list(e2e) + list(layers)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_reference_speed_rescales_host_seconds():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.at_reference_speed(2.0, ref, ref) == 2.0
    # A host at half speed takes twice as long for both parts.
    assert hostspeed.at_reference_speed(4.0, 2 * ref, 2 * ref) == 2.0
    assert hostspeed.at_reference_speed(3.0, ref, 2 * ref) == 2.0
    assert hostspeed.reference_s() > 0


def test_cell_seconds_sums_each_copys_median_across_passes():
    def cell_run(*copy_s):
        return grid.CellRun(grid.Cell("P", "V"), copy_s=list(copy_s))

    repeats = (cell_run(1.0, 5.0), cell_run(3.0, 1.0), cell_run(2.0, 2.0),
               None)
    assert run.cell_seconds(repeats) == 2.0 + 2.0


def test_fill_meets_the_stated_size_and_repeats():
    program = grid.Program("Radiosity", 0.01, 15_400, ("TokenTM",))
    copies = grid.fill(program, 5)
    total = sum(grid.trace_ops(trace) for trace, _seed in copies)
    assert abs(total - program.ops) < 0.02 * program.ops
    again = grid.fill(program, 5)
    assert [seed for _t, seed in again] == [seed for _t, seed in copies]
    assert all(5 * grid.MAX_COPIES <= seed < 6 * grid.MAX_COPIES
               for _t, seed in copies)


def test_seed_changes_the_traces():
    workload = grid.WORKLOADS["stamp-tokens"]
    one = grid.generate(workload, 1)["Genome"][0][0]
    two = grid.generate(workload, 2)["Genome"][0][0]
    assert [t.ops for t in one.threads] != [t.ops for t in two.threads]
    again = grid.generate(workload, 1)["Genome"][0][0]
    assert [t.ops for t in one.threads] == [t.ops for t in again.threads]


def test_held_out_seed_is_named_and_has_golden_digests():
    assert grid.HELD_OUT_SEED != 2008
    golden = json.loads(run.GOLDEN.read_text())["digests"]
    assert set(golden) == set(grid.WORKLOADS)
    for name, workload in grid.WORKLOADS.items():
        for seed in ("2008", str(grid.HELD_OUT_SEED)):
            assert len(golden[name][seed]) == len(grid.cells(workload))


def test_golden_digest_matches_a_fresh_simulation():
    workload = grid.WORKLOADS["splash-small"]
    traces = grid.generate(workload, 2008)
    cell = grid.cells(workload)[-1]  # a fixture cell: quick to simulate
    golden = run.load_golden(workload.name, 2008)
    assert grid.run_cell(cell, traces[cell.program]).digest == golden[-1]
