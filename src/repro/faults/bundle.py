"""Repro bundles: everything needed to replay a chaos failure.

When a campaign run violates an invariant, the campaign captures a
:class:`ReproBundle` — the exact ``(workload, variant, scale, seed,
quantum, plan)`` tuple that deterministically reproduces the run,
plus diagnostics (the violation, the injector's fault tally, and the
tail of the event trace leading up to the failure).  The bundle is a
single JSON file; replaying it is
``repro chaos --replay BUNDLE.json`` or
:func:`repro.faults.campaign.replay_bundle`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.faults.plan import FaultPlan

#: Events kept from the end of the trace (the failure's lead-up).
TRACE_TAIL_EVENTS = 512


@dataclass
class ReproBundle:
    """One replayable chaos failure."""

    workload: str
    variant: str
    scale: float
    seed: int
    quantum: int
    plan: Dict[str, object]
    #: {"check": ..., "error": ..., "message": ...} of the violation.
    error: Dict[str, object] = field(default_factory=dict)
    #: Injector snapshot: per-kind injected/skipped counts.
    faults: Dict[str, object] = field(default_factory=dict)
    #: Last events before the failure (Event.to_dict dicts).
    trace_tail: List[Dict[str, object]] = field(default_factory=list)
    #: Events the ring buffer had to drop before the tail.
    trace_dropped: int = 0
    cadence: int = 1
    #: Monitor skew tolerance (None = executor quantum).
    skew_tolerance: Optional[int] = None
    mutant: Optional[str] = None
    #: Event-trace file the cell replayed (None = synthetic workload).
    trace_file: Optional[str] = None

    def fault_plan(self) -> FaultPlan:
        return FaultPlan.from_dict(self.plan)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-chaos-bundle/1",
            "workload": self.workload,
            "variant": self.variant,
            "scale": self.scale,
            "seed": self.seed,
            "quantum": self.quantum,
            "cadence": self.cadence,
            "skew_tolerance": self.skew_tolerance,
            "mutant": self.mutant,
            "trace_file": self.trace_file,
            "plan": self.plan,
            "error": self.error,
            "faults": self.faults,
            "trace_dropped": self.trace_dropped,
            "trace_tail": self.trace_tail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReproBundle":
        if not isinstance(data, dict):
            raise ConfigError(f"bundle must be an object, got {data!r}")
        schema = data.get("schema")
        if schema != "repro-chaos-bundle/1":
            raise ConfigError(f"unknown bundle schema {schema!r}")
        # Validate the embedded plan eagerly so a corrupt bundle fails
        # at load time, not mid-replay.
        FaultPlan.from_dict(data.get("plan", {}))
        # Fields are read by name, so keys this version no longer
        # writes (``kernel_source`` from older bundles) are ignored.
        return cls(
            workload=str(data["workload"]),
            variant=str(data["variant"]),
            scale=float(data["scale"]),
            seed=int(data["seed"]),
            quantum=int(data["quantum"]),
            cadence=int(data.get("cadence", 1)),
            skew_tolerance=data.get("skew_tolerance"),
            mutant=data.get("mutant"),
            trace_file=data.get("trace_file"),
            plan=dict(data.get("plan", {})),
            error=dict(data.get("error", {})),
            faults=dict(data.get("faults", {})),
            trace_dropped=int(data.get("trace_dropped", 0)),
            trace_tail=list(data.get("trace_tail", [])),
        )

    @classmethod
    def load(cls, path: str) -> "ReproBundle":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"bundle {path} is not valid JSON: {exc}"
                ) from exc
        return cls.from_dict(data)
