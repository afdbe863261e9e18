"""`repro.fleet` — persistent study scheduler with incremental re-runs.

The service layer over the one-shot study: campaigns decompose into
content-addressed cells (:mod:`repro.fleet.job`), cell results persist
in a content-addressed directory of objects that ``repro fleet gc``
bounds by recency (:mod:`repro.fleet.store`), and a crash-safe
filesystem scheduler whose worker processes share one ticket queue
(:mod:`repro.fleet.scheduler`) computes only the cells whose inputs
changed — assembling a ``StudyResult`` byte-identical to a cold
sequential run.
"""

from repro.fleet.job import Campaign, CellSpec, profile_fingerprint
from repro.fleet.scheduler import FleetError, FleetOutcome, FleetScheduler
from repro.fleet.store import ResultStore

__all__ = [
    "Campaign",
    "CellSpec",
    "FleetError",
    "FleetOutcome",
    "FleetScheduler",
    "ResultStore",
    "profile_fingerprint",
]
