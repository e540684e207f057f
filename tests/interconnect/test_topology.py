"""Tiled-topology latency model tests."""

import random

from repro.common.config import SystemConfig
from repro.interconnect.topology import TiledTopology, TilePosition
from tests.conftest import small_system


class TestTilePosition:
    def test_manhattan_distance(self):
        assert TilePosition(0, 0).hops_to(TilePosition(3, 1)) == 4
        assert TilePosition(2, 2).hops_to(TilePosition(2, 2)) == 0


class TestPaperTopology:
    def test_grid_fits_eight_clusters(self):
        topo = TiledTopology(SystemConfig())
        w, h = topo.grid_shape
        assert w * h >= 8

    def test_cores_in_same_cluster_share_tile(self):
        topo = TiledTopology(SystemConfig())
        assert topo.core_position(0) == topo.core_position(3)
        assert topo.core_position(0) != topo.core_position(31)

    def test_local_bank_is_closest(self):
        topo = TiledTopology(SystemConfig())
        # Bank 0 lives in cluster 0 (round-robin); core 0 is local.
        local = topo.core_to_bank_hops(0, 0)
        remote = max(topo.core_to_bank_hops(c, 0) for c in range(32))
        assert local == 0
        assert remote > local

    def test_latency_scales_with_hops(self):
        cfg = SystemConfig()
        topo = TiledTopology(cfg)
        assert topo.latency(0) == 0
        assert topo.latency(3) == 3 * cfg.latency.hop

    def test_symmetry(self):
        topo = TiledTopology(SystemConfig())
        for a, b in [(0, 31), (5, 17)]:
            assert (topo.core_to_core_hops(a, b)
                    == topo.core_to_core_hops(b, a))

    def test_memory_controller_mapping(self):
        cfg = SystemConfig()
        topo = TiledTopology(cfg)
        controllers = {topo.controller_of(b) for b in range(16)}
        assert controllers == set(range(cfg.memory_controllers))
        assert topo.bank_to_memory_hops(0, 0) >= 0


class TestSmallTopology:
    def test_single_core_clusters(self):
        topo = TiledTopology(small_system())
        positions = {topo.core_position(c) for c in range(4)}
        assert len(positions) == 4  # one tile per cluster


class TestSharedTables:
    """Machines built from equal configs share one set of tables."""

    def test_equal_configs_share_tables(self):
        a = TiledTopology(SystemConfig())
        b = TiledTopology(SystemConfig())
        assert a.core_bank_lat is b.core_bank_lat
        assert a.core_core_lat is b.core_core_lat
        assert a.bank_mc_lat is b.bank_mc_lat
        # Shared tables are immutable: no machine can edit another's.
        assert isinstance(a.core_bank_lat, tuple)
        assert isinstance(a.core_bank_lat[0], tuple)

    def test_jitter_is_private_and_cleared(self):
        a = TiledTopology(small_system())
        b = TiledTopology(small_system())
        shared = (b.core_bank_lat, b.core_core_lat, b.bank_mc_lat)
        before = [[list(row) for row in table] for table in shared]
        a.apply_jitter(random.Random(3), amplitude=8)
        assert a.core_bank_lat != b.core_bank_lat
        assert (b.core_bank_lat, b.core_core_lat, b.bank_mc_lat) == shared
        assert [[list(row) for row in table] for table in shared] == before
        a.clear_jitter()
        assert a.core_bank_lat is b.core_bank_lat
        assert a.core_core_lat is b.core_core_lat
        assert a.bank_mc_lat is b.bank_mc_lat
