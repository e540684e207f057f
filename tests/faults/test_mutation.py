"""Mutation self-test: seeded bugs must be caught and replayable."""

import json
import os

import pytest

from repro.faults.campaign import (
    MUTANTS,
    replay_bundle,
    run_campaign,
    run_chaos_cell,
    shrink_plan,
)
from repro.faults.plan import FaultPlan, FaultSpec, default_plan


class TestCampaignCatchesMutants:
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_detected_within_short_campaign(self, mutant):
        result = run_campaign(variants=("tokentm",), seeds=range(3),
                              scale=0.002, mutant=mutant, shrink=False)
        assert result.failures, f"mutant {mutant!r} escaped the campaign"
        cell = result.failures[0]
        assert cell.bundle is not None
        assert cell.error["error"] == "InvariantViolationError"

    def test_clean_campaign_passes(self):
        result = run_campaign(variants=("tokentm",), seeds=range(2),
                              scale=0.002)
        assert result.ok
        assert not result.failures
        assert all(c.stats is not None for c in result.cells)


class TestReplay:
    def test_bundle_replays_to_same_failure(self):
        cell = run_chaos_cell(seed=0, scale=0.002, mutant="token_leak")
        assert not cell.ok
        again = replay_bundle(cell.bundle)
        assert not again.ok
        assert again.error == cell.error

    def test_bundle_from_older_version_with_kernel_source(self):
        """Bundles written while the hot loop had selectable backends
        carry a ``kernel_source`` field: they still load and replay,
        and re-saving drops the field."""
        from repro.faults.bundle import ReproBundle

        cell = run_chaos_cell(seed=0, scale=0.002, mutant="token_leak")
        assert not cell.ok
        current = cell.bundle.to_dict()
        assert "kernel_source" not in current
        older = dict(current, kernel_source="def run_quantum(thread): ...")
        loaded = ReproBundle.from_dict(older)
        assert loaded.to_dict() == current
        assert not hasattr(loaded, "kernel_source")
        again = replay_bundle(loaded)
        assert again.error == cell.error

    def test_bundle_file_round_trip(self, tmp_path):
        result = run_campaign(variants=("tokentm",), seeds=range(1),
                              scale=0.002, mutant="token_leak",
                              out_dir=str(tmp_path))
        assert result.bundle_paths
        path = result.bundle_paths[0]
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["mutant"] == "token_leak"
        assert data["error"]["error"] == "InvariantViolationError"
        assert isinstance(data["trace_tail"], list)


class TestShrink:
    def test_shrinks_to_minimal_plan(self):
        # The mutant fails with no faults at all, so greedy shrinking
        # must reduce the default plan to the empty plan.
        def still_fails(candidate):
            return not run_chaos_cell(seed=0, scale=0.002,
                                      plan=candidate,
                                      mutant="token_leak").ok

        assert still_fails(default_plan())
        minimal = shrink_plan(default_plan(), still_fails)
        assert len(minimal) == 0

    def test_keeps_necessary_specs(self):
        # A synthetic failure predicate that needs one specific spec:
        # shrinking must keep exactly that spec.
        plan = FaultPlan(specs=(
            FaultSpec("preempt", prob=0.1),
            FaultSpec("migrate", prob=0.1),
            FaultSpec("spurious_nack", prob=0.1),
        ))

        def needs_migrate(candidate):
            return any(s.kind == "migrate" for s in candidate.specs)

        minimal = shrink_plan(plan, needs_migrate)
        assert [s.kind for s in minimal.specs] == ["migrate"]
