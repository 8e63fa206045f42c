"""What campaign workers sharing one journal rely on.

Sibling ``repro campaign`` processes, and the pool workers of one
parallel campaign, all write the same :class:`RunJournal`.  A point a
sibling has journaled is replayed instead of re-executed, and every
journal payload the parallel path writes decodes back to the
:class:`LifetimeResult` the report was built from.
"""

from repro.core import RunJournal
from repro.core.framework import AgingAwareFramework
from repro.core.results import LifetimeResult
from repro.robustness import FaultCampaign, build_grid, record_from_result
from tests.robustness.conftest import make_mini_framework

#: Baseline + two stuck-at rates, degradation off: three points.
GRID = dict(kinds=("stuck_at",), rates=(0.01, 0.02), window=1, with_degradation=False)


class TestTwoWorkers:
    def test_second_worker_skips_journaled_points(self, tmp_path, monkeypatch):
        points = build_grid(**GRID)
        path = tmp_path / "campaign.jsonl"
        framework = make_mini_framework()
        campaign = FaultCampaign(framework, scenario="st+at", journal=RunJournal(path))

        # A sibling process journals the first point after this campaign
        # opened the journal: the campaign must pick it up on refresh.
        first = points[0]
        sibling_result = framework.run_scenario(
            "st+at", fault_schedule=first.schedule, degradation=first.degradation
        )
        RunJournal(path).record(campaign.point_key(first), sibling_result.to_dict())

        executed = []
        run_scenario = AgingAwareFramework.run_scenario

        def counting(self, *args, **kwargs):
            executed.append(kwargs.get("fault_schedule"))
            return run_scenario(self, *args, **kwargs)

        monkeypatch.setattr(AgingAwareFramework, "run_scenario", counting)
        report = campaign.run(points)
        assert campaign.journal.skipped == 1
        assert executed == [p.schedule for p in points[1:]]
        monkeypatch.undo()
        serial = FaultCampaign(make_mini_framework(), scenario="st+at").run(points)
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial.records
        ]


class TestSharedCache:
    def test_result_payload_roundtrips(self, tmp_path):
        points = build_grid(**GRID)
        journal = RunJournal(tmp_path / "campaign.jsonl")
        campaign = FaultCampaign(
            make_mini_framework(), scenario="st+at", workers=2, journal=journal
        )
        report = campaign.run(points)
        assert len(journal) == len(points)
        for point, record in zip(points, report.records):
            result = LifetimeResult.from_dict(journal.get(campaign.point_key(point)))
            assert record_from_result(point, result).to_dict() == record.to_dict()
