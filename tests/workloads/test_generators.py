"""Tests of the synthetic workload generators against Table 5."""

import pytest

from repro.analysis.experiments import measure_table5
from repro.workloads import tm_workloads
from repro.workloads.base import (
    SetSizeModel,
    SyntheticTxnWorkload,
    TxnWorkloadSpec,
)
from repro.workloads.trace import validate_trace

#: Table 5 of the paper: (num_txns, avg_rs, avg_ws, max_rs, max_ws).
TABLE5 = {
    "Barnes": (2_553, 6.1, 4.2, 42, 39),
    "Cholesky": (60_203, 2.4, 1.7, 6, 4),
    "Radiosity": (21_786, 1.8, 1.5, 25, 24),
    "Raytrace": (47_783, 5.1, 2.0, 594, 4),
    "Delaunay": (16_384, 51.4, 38.8, 507, 345),
    "Genome": (100_115, 14.5, 2.1, 768, 18),
    "Vacation-Low": (16_399, 70.7, 18.1, 162, 75),
    "Vacation-High": (16_399, 99.1, 18.6, 331, 80),
}


class TestRegistry:
    def test_all_eight_present(self):
        assert set(tm_workloads()) == set(TABLE5)

    def test_traces_validate(self):
        for workload in tm_workloads().values():
            validate_trace(workload.generate(seed=0, scale=0.01))

    def test_generation_is_deterministic(self):
        wl = tm_workloads()["Genome"]
        a = wl.generate(seed=5, scale=0.005)
        b = wl.generate(seed=5, scale=0.005)
        assert [t.ops for t in a.threads] == [t.ops for t in b.threads]

    def test_different_seeds_differ(self):
        wl = tm_workloads()["Genome"]
        a = wl.generate(seed=5, scale=0.005)
        b = wl.generate(seed=6, scale=0.005)
        assert [t.ops for t in a.threads] != [t.ops for t in b.threads]


class TestTable5Calibration:
    @pytest.mark.parametrize("name", sorted(TABLE5))
    def test_txn_count_at_full_scale(self, name):
        wl = tm_workloads()[name]
        assert wl.spec.total_txns == TABLE5[name][0]

    @pytest.mark.parametrize("name", sorted(TABLE5))
    def test_average_set_sizes_close(self, name):
        _, avg_rs, avg_ws, _, _ = TABLE5[name]
        row = measure_table5(tm_workloads()[name], seed=0, scale=0.2)
        # Within 35% relative (or one block absolute for tiny sets).
        assert abs(row.avg_read_set - avg_rs) <= max(1.0, 0.35 * avg_rs)
        assert abs(row.avg_write_set - avg_ws) <= max(1.0, 0.35 * avg_ws)

    @pytest.mark.parametrize("name", sorted(TABLE5))
    def test_max_set_sizes_never_exceed_paper(self, name):
        _, _, _, max_rs, max_ws = TABLE5[name]
        row = measure_table5(tm_workloads()[name], seed=0, scale=0.2)
        assert row.max_read_set <= max_rs
        assert row.max_write_set <= max_ws

    def test_heavy_tail_reaches_near_maximum(self):
        # Delaunay's giants should approach the paper's maxima.
        row = measure_table5(tm_workloads()["Delaunay"], seed=0, scale=0.5)
        assert row.max_read_set > 300
        assert row.max_write_set > 200


class TestSetSizeModel:
    def test_minimum_respected(self):
        from repro.common.rng import substream
        model = SetSizeModel(base_mean=3.0, maximum=10, minimum=2)
        rng = substream(1)
        draws = [model.sample(rng, False) for _ in range(500)]
        assert min(draws) >= 2
        assert max(draws) <= 10

    def test_tail_component_is_larger(self):
        from repro.common.rng import substream
        model = SetSizeModel(base_mean=3.0, maximum=500,
                             tail_prob=1.0, tail_mean=100.0, minimum=1)
        rng = substream(2)
        body = [model.sample(rng, False) for _ in range(300)]
        tail = [model.sample(rng, True) for _ in range(300)]
        assert sum(tail) / len(tail) > 5 * sum(body) / len(body)

    def test_bad_probability_rejected(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            SetSizeModel(base_mean=3.0, maximum=10, tail_prob=1.5)


class TestScaling:
    def test_scale_changes_txn_count(self):
        wl = tm_workloads()["Barnes"]
        small = wl.generate(seed=0, scale=0.05)
        large = wl.generate(seed=0, scale=0.2)
        assert large.transaction_count() > small.transaction_count()

    def test_scale_floor_is_one_per_thread(self):
        wl = tm_workloads()["Barnes"]
        tiny = wl.generate(seed=0, scale=1e-9)
        assert tiny.transaction_count() == tiny.num_threads

    def test_thread_override(self):
        wl = tm_workloads()["Barnes"]
        t8 = wl.generate(seed=0, scale=0.05, threads=8)
        assert t8.num_threads == 8

    def test_bad_scale_rejected(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            tm_workloads()["Barnes"].generate(scale=0)


class TestLocalityWindow:
    def test_windowed_blocks_cluster(self):
        spec = TxnWorkloadSpec(
            name="w", total_txns=32,
            read_model=SetSizeModel(base_mean=20.0, maximum=40, minimum=10),
            write_model=SetSizeModel(base_mean=1.0, maximum=2, minimum=0),
            tail_prob=0.0, region_blocks=100_000, hot_blocks=0,
            hot_prob=0.0, rmw_fraction=1.0, compute_per_access=0,
            inter_txn_compute=0, nontxn_accesses=0, threads=1,
            locality_window=128,
        )
        trace = SyntheticTxnWorkload(spec).generate(seed=3)
        from repro.workloads.trace import OP_READ
        spans = []
        blocks = []
        for opcode, arg in trace.threads[0].ops:
            if opcode == OP_READ:
                blocks.append(arg)
            elif blocks and opcode == 1:  # COMMIT
                span = max(blocks) - min(blocks)
                spans.append(span)
                blocks = []
        # Each transaction's reads sit inside a small window (modulo
        # region wraparound, which shows as a huge span).
        small = [s for s in spans if s < 100_000 // 2]
        assert small and all(s <= 128 for s in small)


def _spec(**overrides) -> TxnWorkloadSpec:
    fields = dict(
        name="u", total_txns=8,
        read_model=SetSizeModel(base_mean=2.0, maximum=2, minimum=2),
        write_model=SetSizeModel(base_mean=1.0, maximum=1, minimum=1),
        tail_prob=0.0, region_blocks=64, hot_blocks=8, hot_prob=0.5,
        rmw_fraction=0.5, compute_per_access=0, inter_txn_compute=0,
        threads=1,
    )
    fields.update(overrides)
    return TxnWorkloadSpec(**fields)


class TestUnfillableSpecs:
    """Specs whose set sizes no sequence of picks can fill are
    rejected at construction instead of hanging the generator."""

    def test_fillable_spec_generates(self):
        SyntheticTxnWorkload(_spec(rmw_fraction=1.0)).generate(seed=1)

    def test_rmw_writes_larger_than_reads_rejected(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            _spec(write_model=SetSizeModel(base_mean=5.0, maximum=5,
                                           minimum=5),
                  rmw_fraction=1.0)

    def test_rmw_with_empty_read_sets_allowed(self):
        spec = _spec(read_model=SetSizeModel(base_mean=0.0, maximum=0),
                     write_model=SetSizeModel(base_mean=5.0, maximum=5,
                                              minimum=5),
                     rmw_fraction=1.0)
        SyntheticTxnWorkload(spec).generate(seed=1)

    @pytest.mark.parametrize("model", ["read_model", "write_model"])
    def test_set_larger_than_region_rejected(self, model):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            _spec(**{model: SetSizeModel(base_mean=4.0, maximum=65)})

    @pytest.mark.parametrize("model", ["read_model", "write_model"])
    def test_set_larger_than_hot_only_picks_rejected(self, model):
        from repro.common.errors import ConfigError
        big = SetSizeModel(base_mean=4.0, maximum=9)
        _spec(**{model: big})  # cold picks reach the whole region
        with pytest.raises(ConfigError):
            _spec(hot_prob=1.0, **{model: big})
