#!/usr/bin/env python3
"""Regenerate ``golden.json``: each cell's stats digest, per seed.

Run from the repository root, only when a change to simulated results
is intended::

    python3 perfbench/make_golden.py

Each workload is simulated once per seed in :data:`SEEDS` and the
digest of every cell's ``RunStats`` and ``ProtocolStats`` snapshots is
written, in cell order.  The benchmark fails any cell whose digest
differs from the stored one.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, SRC

#: Seeds with stored digests: 0-31, the repository's customary 2008,
#: and the held-out seed.
SEEDS = tuple(range(32)) + (2008,)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import grid

    seeds = SEEDS + (grid.HELD_OUT_SEED,)
    digests = {}
    for name, workload in grid.WORKLOADS.items():
        digests[name] = {}
        for seed in seeds:
            traces = grid.generate(workload, seed)
            digests[name][str(seed)] = [
                grid.run_cell(cell, traces[cell.program]).digest
                for cell in grid.cells(workload)]
            print(name, seed, flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
