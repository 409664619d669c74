"""``repro.parallel`` — the multiprocess campaign runner.

Chaos sweeps and benchmark matrices are embarrassingly parallel: every
scenario is a pure function of ``(options, schedule)`` on its own
deployment. This package fans :class:`CampaignTask` lists across a
spawn-based worker pool and merges the picklable outcomes into one
:class:`CampaignReport` whose deterministic image — violations, stats,
fingerprints, merged obs snapshots — is byte-identical at any worker
count.

Quickstart::

    from repro.chaos import ChaosOptions
    from repro.parallel import run_campaign, seed_tasks

    tasks = seed_tasks("chaos", ChaosOptions(), seeds=range(200))
    report = run_campaign(tasks, workers=4)
    assert report.ok, report.violation_counts
"""

from .runner import (
    MAX_ATTEMPTS,
    resolve_workers,
    run_campaign,
    seed_tasks,
)
from .runners import BUILTIN_RUNNERS, normalize_outcome, resolve_runner
from .task import CampaignFailure, CampaignReport, CampaignResult, CampaignTask

__all__ = [
    "CampaignTask",
    "CampaignResult",
    "CampaignFailure",
    "CampaignReport",
    "run_campaign",
    "seed_tasks",
    "resolve_workers",
    "BUILTIN_RUNNERS",
    "resolve_runner",
    "normalize_outcome",
    "MAX_ATTEMPTS",
]
