"""Fault plans: JSON-serializable schedules of injected faults.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries evaluated
at every executor quantum boundary.  Each spec names a fault kind and
exactly one trigger:

* ``at`` — fire once, at the given global quantum-boundary index;
* ``every`` — fire periodically (every N boundaries, skipping 0);
* ``prob`` — fire with the given per-boundary probability, drawn from
  the injector's seeded substream in plan order, so the whole
  campaign replays byte-identically from ``(seed, plan)``.

``tid`` optionally restricts a spec to boundaries of one thread, and
``params`` carries kind-specific knobs (``ways``, ``amplitude``,
``cycles``).  The plan's :meth:`~FaultPlan.content_hash` feeds both
the injector's RNG lane and the result-cache cell key, so two
different plans can never replay each other's randomness or share
cached results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigError

#: Every fault kind the injector knows how to apply.
FAULT_KINDS: Tuple[str, ...] = (
    "preempt",          # forced context switch (flash-OR on TokenTM)
    "migrate",          # deschedule + reschedule on another core
    "page_remap",       # page-out/page-in round trip (TokenTM paging)
    "spurious_abort",   # doom a live transaction (CM kill delivery)
    "spurious_nack",    # charge a transient NACK stall
    "latency_jitter",   # perturb the interconnect latency tables
    "way_mask",         # L1 capacity pressure via way masking
)

#: Kind-specific parameter defaults (documented in docs/robustness.md).
PARAM_DEFAULTS: Dict[str, Dict[str, int]] = {
    "page_remap": {"cycles": 2_000},
    "latency_jitter": {"amplitude": 4},
    "way_mask": {"ways": 1},
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled or probabilistic fault."""

    kind: str
    at: Optional[int] = None
    every: Optional[int] = None
    prob: float = 0.0
    #: Restrict to quantum boundaries of this thread (None = any).
    tid: Optional[int] = None
    params: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        triggers = sum((self.at is not None, self.every is not None,
                        self.prob > 0))
        if triggers != 1:
            raise ConfigError(
                f"fault spec {self.kind!r} needs exactly one trigger "
                f"(at / every / prob), got {triggers}"
            )
        if self.at is not None and self.at < 0:
            raise ConfigError(f"fault trigger at={self.at} must be >= 0")
        if self.every is not None and self.every < 1:
            raise ConfigError(f"fault trigger every={self.every} must be >= 1")
        if not 0.0 <= self.prob <= 1.0:
            raise ConfigError(f"fault prob={self.prob} outside [0, 1]")

    def param(self, name: str) -> int:
        """Kind parameter with the documented default."""
        default = PARAM_DEFAULTS.get(self.kind, {}).get(name, 0)
        return int(self.params.get(name, default))

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        if self.at is not None:
            out["at"] = self.at
        if self.every is not None:
            out["every"] = self.every
        if self.prob > 0:
            out["prob"] = self.prob
        if self.tid is not None:
            out["tid"] = self.tid
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"fault spec must be an object, got {data!r}")
        unknown = set(data) - {"kind", "at", "every", "prob", "tid", "params"}
        if unknown:
            raise ConfigError(
                f"unknown fault spec fields: {sorted(unknown)}"
            )
        return cls(
            kind=data.get("kind", ""),
            at=data.get("at"),
            every=data.get("every"),
            prob=float(data.get("prob", 0.0)),
            tid=data.get("tid"),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault specs plus a display name."""

    specs: Tuple[FaultSpec, ...] = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "specs": [s.to_dict() for s in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigError(f"fault plan must be an object, got {data!r}")
        unknown = set(data) - {"name", "specs"}
        if unknown:
            raise ConfigError(f"unknown fault plan fields: {sorted(unknown)}")
        specs = data.get("specs", [])
        if not isinstance(specs, list):
            raise ConfigError("fault plan 'specs' must be a list")
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in specs),
            name=str(data.get("name", "")),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    # -- identity -------------------------------------------------------

    def canonical_json(self) -> str:
        """Compact, key-sorted JSON of the specs (name excluded).

        The identity a plan's randomness and cache keys derive from:
        renaming a plan changes nothing, reordering or editing specs
        changes everything.
        """
        return json.dumps([s.to_dict() for s in self.specs],
                          separators=(",", ":"), sort_keys=True)

    def content_hash(self) -> str:
        """Stable 16-hex-digit digest of the canonical plan."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    def rng_lane(self) -> int:
        """Integer RNG lane for :func:`repro.common.rng.substream`."""
        return int(self.content_hash(), 16)

    # -- shrinking ------------------------------------------------------

    def without(self, index: int) -> "FaultPlan":
        """Copy of the plan with spec ``index`` removed (for shrinking)."""
        specs = self.specs[:index] + self.specs[index + 1:]
        return FaultPlan(specs=specs, name=self.name)


def default_plan(intensity: float = 1.0) -> FaultPlan:
    """The standard chaos plan: every fault kind, low per-kind rates.

    ``intensity`` scales the probabilistic rates (and tightens the
    periodic triggers) for harsher campaigns; 1.0 matches the CI
    chaos-smoke configuration.
    """
    scale = max(0.0, intensity)
    every = max(2, int(round(64 / scale))) if scale else 1 << 30
    return FaultPlan(
        name=f"default-chaos-x{intensity:g}",
        specs=(
            FaultSpec("preempt", prob=min(1.0, 0.02 * scale)),
            FaultSpec("migrate", prob=min(1.0, 0.01 * scale)),
            FaultSpec("page_remap", prob=min(1.0, 0.005 * scale)),
            FaultSpec("spurious_abort", prob=min(1.0, 0.005 * scale)),
            FaultSpec("spurious_nack", prob=min(1.0, 0.02 * scale)),
            FaultSpec("latency_jitter", every=every,
                      params={"amplitude": 4}),
            FaultSpec("way_mask", every=max(3, every + 29),
                      params={"ways": 2}),
        ),
    )
