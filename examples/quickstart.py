#!/usr/bin/env python
"""Quickstart: run one TM workload on TokenTM and read the stats.

Builds the paper's 32-core base system, generates a short slice of
the Vacation-Low workload (Table 5), executes it on TokenTM, and
prints the headline statistics — commits, aborts, how many
transactions used fast token release, and the makespan.
"""

from repro import HTMConfig, MemorySystem, RunConfig, SystemConfig, make_htm
from repro.runtime import run_workload
from repro.workloads import vacation_low


def main() -> None:
    system = SystemConfig()          # 32 cores, 32KB L1s, 8MB L2
    htm_config = HTMConfig()         # T = 2**14 tokens per block
    machine = make_htm("TokenTM", MemorySystem(system), htm_config)

    workload = vacation_low()
    trace = workload.generate(seed=1, scale=0.005)  # short slice
    print(f"workload: {trace.name}  "
          f"({trace.transaction_count()} transactions, "
          f"{trace.num_threads} threads)")

    result = run_workload(machine, trace,
                          RunConfig(system=system, htm=htm_config, seed=1))
    stats = result.stats

    print(f"variant:         {stats.variant}")
    print(f"makespan:        {stats.makespan:,} cycles")
    print(f"commits:         {stats.commits}")
    print(f"aborts:          {stats.aborts}")
    print(f"fast releases:   {100 * stats.fast_release_fraction:.1f}% "
          f"of commits")
    print(f"avg read set:    {stats.avg_read_set:.1f} blocks")
    print(f"avg write set:   {stats.avg_write_set:.1f} blocks")
    print(f"log stalls:      "
          f"{stats.machine['log_stall_cycles']:,} cycles total")

    # The committed history is recorded; prove it is serializable.
    result.history.check_serializable(skew_tolerance=2500)
    print("history check:   serializable")


if __name__ == "__main__":
    main()
