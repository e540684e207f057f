"""FaultPlan / FaultSpec: validation, serialization, identity."""

import pytest

from repro.common.errors import ConfigError
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    default_plan,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("power_cut", prob=0.5)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ConfigError):
            FaultSpec("preempt")  # no trigger
        with pytest.raises(ConfigError):
            FaultSpec("preempt", at=3, every=5)  # two triggers

    def test_trigger_bounds(self):
        with pytest.raises(ConfigError):
            FaultSpec("preempt", at=-1)
        with pytest.raises(ConfigError):
            FaultSpec("preempt", every=0)
        with pytest.raises(ConfigError):
            FaultSpec("preempt", prob=1.5)

    def test_param_defaults(self):
        assert FaultSpec("way_mask", every=5).param("ways") == 1
        assert FaultSpec("way_mask", every=5,
                         params={"ways": 3}).param("ways") == 3
        assert FaultSpec("latency_jitter", at=0).param("amplitude") == 4
        assert FaultSpec("page_remap", at=0).param("cycles") == 2_000

    def test_dict_round_trip(self):
        spec = FaultSpec("way_mask", every=7, tid=2, params={"ways": 2})
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec.from_dict({"kind": "preempt", "prob": 0.1,
                                 "frequency": 3})


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = default_plan()
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.content_hash() == plan.content_hash()

    def test_hash_ignores_name(self):
        a = FaultPlan(specs=(FaultSpec("preempt", prob=0.1),), name="a")
        b = FaultPlan(specs=(FaultSpec("preempt", prob=0.1),), name="b")
        assert a.content_hash() == b.content_hash()
        assert a.rng_lane() == b.rng_lane()

    def test_hash_sees_spec_changes(self):
        a = FaultPlan(specs=(FaultSpec("preempt", prob=0.1),))
        b = FaultPlan(specs=(FaultSpec("preempt", prob=0.2),))
        assert a.content_hash() != b.content_hash()

    def test_without_removes_one_spec(self):
        plan = default_plan()
        smaller = plan.without(0)
        assert len(smaller) == len(plan) - 1
        assert smaller.specs == plan.specs[1:]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = default_plan()
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            FaultPlan.load(str(path))

    def test_default_plan_covers_every_kind(self):
        kinds = {s.kind for s in default_plan().specs}
        assert kinds == set(FAULT_KINDS)
