"""The parallel grid engine's determinism and caching contracts."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

import repro.perf.runner as runner_mod
from repro.analysis.ci import confidence_interval
from repro.analysis.experiments import (
    FIGURE5_VARIANTS,
    figure_speedups,
    run_trace,
    run_variants,
)
from repro.common.config import HTMConfig, SignatureConfig, SystemConfig
from repro.common.rng import perturbation_seeds
from repro.perf.cache import ResultCache, cell_key
from repro.perf.runner import CellSpec, ParallelRunner, grid_specs
from repro.workloads.base import SyntheticTxnWorkload

from tests.perf.conftest import TINY_SPEC

VARIANTS = ("TokenTM", "LogTM-SE_Perf")
SCALE = 0.5


def _specs(tiny_workload, seeds=(1, 2)):
    return grid_specs([tiny_workload], VARIANTS, seeds=seeds, scale=SCALE)


def test_grid_specs_order(tiny_workload):
    specs = _specs(tiny_workload)
    assert [(s.seed, s.variant) for s in specs] == [
        (1, "TokenTM"), (1, "LogTM-SE_Perf"),
        (2, "TokenTM"), (2, "LogTM-SE_Perf"),
    ]
    assert all(s.workload is TINY_SPEC for s in specs)


def test_serial_runner_matches_direct_run_trace(tiny_workload):
    spec = CellSpec(TINY_SPEC, "TokenTM", seed=3, scale=SCALE)
    [via_runner] = ParallelRunner(workers=0).run_cells([spec])
    direct = _reference(tiny_workload, "TokenTM", 3)
    assert via_runner.stats.snapshot() == direct.snapshot()


def test_parallel_runner_identical_to_serial(tiny_workload):
    """Two workers, out-of-order completion: same stats, same order."""
    specs = _specs(tiny_workload)
    serial = ParallelRunner(workers=0).run_cells(specs)
    with ParallelRunner(workers=2) as runner:
        parallel = runner.run_cells(specs)
    assert [c.stats.snapshot() for c in parallel] == \
        [c.stats.snapshot() for c in serial]
    assert [(c.workload, c.variant, c.seed) for c in parallel] == \
        [(s.workload.name, s.variant, s.seed) for s in specs]
    assert runner.metrics.counter("perf.simulated").value == len(specs)


def test_cache_hit_skips_simulation(tiny_workload, tmp_path, monkeypatch):
    simulated = []
    real = runner_mod.simulate_cell

    def spy(spec):
        simulated.append(spec)
        return real(spec)

    monkeypatch.setattr(runner_mod, "simulate_cell", spy)
    specs = _specs(tiny_workload, seeds=(1,))
    first = ParallelRunner(workers=0, cache=ResultCache(tmp_path))
    cold = first.run_cells(specs)
    assert len(simulated) == len(specs)
    assert first.metrics.counter("perf.cache_misses").value == len(specs)

    second = ParallelRunner(workers=0, cache=ResultCache(tmp_path))
    warm = second.run_cells(specs)
    assert len(simulated) == len(specs), "cache hit must not re-simulate"
    assert second.metrics.counter("perf.cache_hits").value == len(specs)
    assert second.metrics.counter("perf.simulated").value == 0
    assert second.last_wall_seconds == [None] * len(specs)
    assert [c.stats.snapshot() for c in warm] == \
        [c.stats.snapshot() for c in cold]


def test_runner_rejects_negative_workers():
    with pytest.raises(ValueError):
        ParallelRunner(workers=-1)


def _reference(tiny_workload, variant, seed):
    """The per-cell reference: generate and run one trace directly."""
    trace = tiny_workload.generate(seed=seed, scale=SCALE, threads=32)
    return run_trace(trace, variant, seed=seed)


def test_serial_grid_generates_each_trace_once(tiny_workload, monkeypatch):
    """A workload's later variants reuse its first variant's trace."""
    calls = []
    generate = SyntheticTxnWorkload.generate

    def counting(self, **kwargs):
        calls.append(kwargs)
        return generate(self, **kwargs)

    runner_mod._trace.cache_clear()
    monkeypatch.setattr(SyntheticTxnWorkload, "generate", counting)
    specs = grid_specs([tiny_workload], FIGURE5_VARIANTS, seeds=(4,),
                       scale=SCALE)
    cells = ParallelRunner(workers=0).run_cells(specs)
    assert len(calls) == 1
    for variant, cell in zip(FIGURE5_VARIANTS, cells):
        assert cell.variant == variant
        assert cell.stats.snapshot() == \
            _reference(tiny_workload, variant, 4).snapshot()


def test_run_variants_through_runner_matches_inline(tiny_workload):
    via = run_variants(tiny_workload, VARIANTS, scale=SCALE, seed=5,
                       runner=ParallelRunner(workers=0))
    assert list(via) == list(VARIANTS)
    for variant in VARIANTS:
        assert via[variant].stats.snapshot() == \
            _reference(tiny_workload, variant, 5).snapshot()


def test_figure_speedups_through_runner_matches_inline(tiny_workload):
    runs = 2
    via = figure_speedups(tiny_workload, variants=VARIANTS,
                          baseline="LogTM-SE_Perf", scale=SCALE,
                          runs=runs, seed=7,
                          runner=ParallelRunner(workers=0))
    seeds = perturbation_seeds(7, runs)
    reference = {(seed, v): _reference(tiny_workload, v, seed)
                 for seed in seeds for v in VARIANTS}
    assert [c.stats.snapshot() for c in via.cells] == \
        [reference[seed, v].snapshot()
         for seed in seeds for v in VARIANTS]
    for variant in VARIANTS:
        samples = [reference[seed, "LogTM-SE_Perf"].makespan
                   / reference[seed, variant].makespan
                   for seed in seeds]
        assert via.speedups[variant] == confidence_interval(samples)


FOUR_CORES = SystemConfig().scaled(4)

#: One cell per knob an ablation varies, each set off its default:
#: (spec, the spec with that knob back at its default, the digest of
#: the ``RunStats`` snapshot).  The digests were recorded from the
#: same runs built by hand (``make_htm`` + ``Executor`` with
#: ``timeslice=``, a policy object, or a ``LogTMSE`` with a 1-hash
#: 256-bit signature) before these knobs became ``CellSpec`` fields.
KNOB_CASES = {
    "timeslice": (
        CellSpec(TINY_SPEC, "TokenTM", seed=3, threads=8,
                 system=FOUR_CORES, timeslice=400),
        {"timeslice": 50_000},
        "9512e30d1563805a",
    ),
    "policy": (
        CellSpec(TINY_SPEC, "TokenTM", seed=3, system=FOUR_CORES,
                 policy="requester-wins"),
        {"policy": "timestamp"},
        "b3a0ff4aac449ae9",
    ),
    "signature": (
        CellSpec(TINY_SPEC, "LogTM-SE_1xH3", seed=3, system=FOUR_CORES,
                 htm=HTMConfig(signature=SignatureConfig(
                     bits=256, num_hashes=1))),
        {"htm": HTMConfig()},
        "e4b447fae18de7ea",
    ),
}


def _snapshot_digest(stats) -> str:
    blob = json.dumps(stats.snapshot(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("knob", sorted(KNOB_CASES))
def test_cell_knobs_reproduce_hand_built_runs(knob):
    spec, default, expected = KNOB_CASES[knob]
    cell, plain = ParallelRunner(workers=0).run_cells(
        [spec, replace(spec, **default)])
    assert _snapshot_digest(cell.stats) == expected
    assert _snapshot_digest(plain.stats) != expected  # the knob matters


@pytest.mark.parametrize("knob", sorted(KNOB_CASES))
def test_cell_knobs_change_cell_key(knob):
    spec, default, _ = KNOB_CASES[knob]
    assert cell_key(spec) != cell_key(replace(spec, **default))
