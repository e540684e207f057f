"""Tiled on-chip interconnect: hop-count latency model.

The paper's base system connects 32 cores and 32 L2 banks with a
packet-switched interconnect organized as 8 clusters of 4 cores, with
64-byte links and adaptive routing.  We do not simulate packets or
contention; instead every protocol action is charged a latency
proportional to the Manhattan hop distance between the endpoints on a
grid of cluster tiles.  Each cluster tile hosts its 4 cores and a
slice of the L2 banks, and memory controllers sit at the grid edges.
This keeps the relative cost of local vs. remote accesses — what the
paper's results depend on — without a cycle-accurate network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class TilePosition:
    """Grid coordinates of a cluster tile."""

    x: int
    y: int

    def hops_to(self, other: "TilePosition") -> int:
        """Manhattan distance in tile hops."""
        return abs(self.x - other.x) + abs(self.y - other.y)


def _pick_width(clusters: int) -> int:
    width = int(math.sqrt(clusters))
    while width > 1 and clusters % width != 0:
        width -= 1
    return max(width, 1)


def _grid(rows) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(row) for row in rows)


class _Layout(NamedTuple):
    """Everything a topology derives from its config, built once per
    config by :func:`_layout` and shared by every machine built from
    it.  The tables are tuples, so no machine can change another's."""

    grid_w: int
    grid_h: int
    cluster_pos: Tuple[TilePosition, ...]
    core_bank_hops: Tuple[Tuple[int, ...], ...]
    core_core_hops: Tuple[Tuple[int, ...], ...]
    bank_mc_hops: Tuple[Tuple[int, ...], ...]
    core_bank_lat: Tuple[Tuple[int, ...], ...]
    core_core_lat: Tuple[Tuple[int, ...], ...]
    bank_mc_lat: Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=64)
def _layout(config: SystemConfig) -> _Layout:
    """Lay ``config``'s clusters, banks and controllers out on the grid.

    The grid is static, so every hop distance the protocol can ask for
    is precomputed here; the per-access cost becomes two tuple indexes
    instead of TilePosition allocation/arithmetic.  At the paper's
    scale these tables are tiny (32x32 ints), but a sweep builds
    hundreds of machines from one config, so they are computed once
    per (frozen, hashable) config.
    """
    clusters = config.clusters
    grid_w = _pick_width(clusters)
    grid_h = (clusters + grid_w - 1) // grid_w
    if grid_w * grid_h < clusters:
        raise ConfigError("grid does not fit all clusters")
    cluster_pos = tuple(TilePosition(i % grid_w, i // grid_w)
                        for i in range(clusters))
    bank_cluster = tuple(bank % clusters for bank in range(config.l2_banks))
    mc_pos = tuple(TilePosition(0, i % grid_h)
                   for i in range(config.memory_controllers))
    core_pos = [cluster_pos[core // config.cores_per_cluster]
                for core in range(config.num_cores)]
    bank_pos = [cluster_pos[c] for c in bank_cluster]
    core_bank_hops = _grid([cp.hops_to(bp) for bp in bank_pos]
                           for cp in core_pos)
    core_core_hops = _grid([ap.hops_to(bp) for bp in core_pos]
                           for ap in core_pos)
    bank_mc_hops = _grid([bp.hops_to(mc) for mc in mc_pos]
                         for bp in bank_pos)
    hop = config.latency.hop
    core_bank_lat, core_core_lat, bank_mc_lat = (
        _grid([hops * hop for hops in row] for row in table)
        for table in (core_bank_hops, core_core_hops, bank_mc_hops))
    return _Layout(grid_w, grid_h, cluster_pos, core_bank_hops,
                   core_core_hops, bank_mc_hops, core_bank_lat,
                   core_core_lat, bank_mc_lat)


class TiledTopology:
    """Maps cores, L2 banks, and memory controllers onto a tile grid.

    Clusters are laid out row-major on the smallest near-square grid
    that fits them (8 clusters -> 4x2).  L2 banks are distributed
    round-robin across clusters; memory controllers attach to the
    first tile of each grid row, mirroring edge placement on real
    CMPs.
    """

    def __init__(self, config: SystemConfig):
        self._config = config
        layout = self._layout = _layout(config)
        # The latency tables are public so the protocol's miss path
        # can index them without a call (``bank_mc_lat`` is indexed by
        # bank, then by the block's controller, ``block %
        # memory_controllers``); jitter replaces them whole, so
        # readers fetch them from here each use.
        self.core_bank_lat = layout.core_bank_lat
        self.core_core_lat = layout.core_core_lat
        self.bank_mc_lat = layout.bank_mc_lat

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """(width, height) of the tile grid."""
        return self._layout.grid_w, self._layout.grid_h

    def core_position(self, core: int) -> TilePosition:
        """Tile hosting a core."""
        return self._layout.cluster_pos[self._config.cluster_of(core)]

    def controller_of(self, block_addr: int) -> int:
        """Memory controller serving a block (address-interleaved)."""
        return block_addr % self._config.memory_controllers

    def core_to_bank_hops(self, core: int, bank: int) -> int:
        """Hops from a core to an L2 bank."""
        return self._layout.core_bank_hops[core][bank]

    def core_to_core_hops(self, a: int, b: int) -> int:
        """Hops between two cores (for forwarded requests/acks)."""
        return self._layout.core_core_hops[a][b]

    def bank_to_memory_hops(self, bank: int, block_addr: int) -> int:
        """Hops from an L2 bank to the block's memory controller."""
        mc = block_addr % self._config.memory_controllers
        return self._layout.bank_mc_hops[bank][mc]

    def core_to_bank_latency(self, core: int, bank: int) -> int:
        """One-way cycles from a core to an L2 bank (precomputed)."""
        return self.core_bank_lat[core][bank]

    def core_to_core_latency(self, a: int, b: int) -> int:
        """One-way cycles between two cores (precomputed)."""
        return self.core_core_lat[a][b]

    def latency(self, hops: int) -> int:
        """Cycles for a one-way message crossing ``hops`` tiles."""
        return hops * self._config.latency.hop

    # -- fault injection --------------------------------------------------

    def apply_jitter(self, rng, amplitude: int) -> None:
        """Add per-link latency noise (fault injection).

        Rebuilds the precomputed latency tables as
        ``hops * hop + U[0, amplitude]`` per entry, so the cost stays
        a table lookup on the access path — zero overhead when jitter
        is never applied, and deterministic given the caller's seeded
        ``rng``.  Idempotent in structure: every call re-derives from
        the hop tables, so repeated jitter does not accumulate.
        """
        if amplitude < 0:
            raise ConfigError(f"jitter amplitude must be >= 0: {amplitude}")
        hop = self._config.latency.hop
        self.core_bank_lat = [
            [hops * hop + rng.randint(0, amplitude) for hops in row]
            for row in self._layout.core_bank_hops
        ]
        self.core_core_lat = [
            [hops * hop + rng.randint(0, amplitude) for hops in row]
            for row in self._layout.core_core_hops
        ]
        self.bank_mc_lat = [
            [hops * hop + rng.randint(0, amplitude) for hops in row]
            for row in self._layout.bank_mc_hops
        ]

    def clear_jitter(self) -> None:
        """Restore the noise-free latency tables."""
        layout = self._layout
        self.core_bank_lat = layout.core_bank_lat
        self.core_core_lat = layout.core_core_lat
        self.bank_mc_lat = layout.bank_mc_lat
