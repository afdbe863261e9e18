"""The fleet job model: a campaign decomposed into cacheable cells.

A *campaign* is one submission of the WideLeak study — a profile set,
a seed, optionally the §IV-D attack sweep. The scheduler never executes
a campaign wholesale; it decomposes it into **cells**, the atomic units
of work and of caching:

- one ``world`` cell — the deterministic counters world construction
  emits (packaging, provisioning registration), captured once so a
  warm re-submission never has to rebuild ten backends just to get the
  construction half of the artifact's counter totals;
- one ``audit`` cell per app — the Q1–Q4 pipeline
  (:meth:`~repro.core.study.WideLeakStudy.study_app`) against the
  app's backend with a fresh per-cell device session;
- optionally one ``attack`` cell per app — the §IV-D key-ladder PoC
  (:meth:`~repro.core.study.WideLeakStudy.run_attack`).

Every cell carries a deterministic **cache key**: the SHA-256 of the
profile fingerprint (a canonical hash of everything the
:class:`~repro.ott.profile.OttProfile` decides, including its APK
model), the identities of the devices the cell touches (model, serial
and CDM version — a CDM upgrade invalidates exactly the cells that ran
on that device), the campaign seed and a schema version. Identical
inputs → identical key → the result store already has the answer and
the cell is never recomputed; any changed input produces a new key and
invalidates exactly the affected cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache

from repro.ott.profile import OttProfile
from repro.ott.registry import profile_by_name

__all__ = [
    "CELL_SCHEMA_VERSION",
    "QUESTION_ATTACK",
    "QUESTION_AUDIT",
    "QUESTION_WORLD",
    "Campaign",
    "CellSpec",
    "default_device_identities",
    "profile_fingerprint",
]

# Bump when the cell payload layout or the pipeline semantics change:
# every existing cache entry is invalidated by construction (the key
# changes), never by deletion.
CELL_SCHEMA_VERSION = 2

QUESTION_WORLD = "world"
QUESTION_AUDIT = "audit"
QUESTION_ATTACK = "attack"


def _digest(payload: dict) -> str:
    """Canonical SHA-256 of a JSON-able payload."""
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def profile_fingerprint(profile: OttProfile) -> str:
    """Deterministic hash of everything one profile decides.

    Recursively serializes the frozen dataclass (including the extra
    APK classes the analysis pipeline sees), so any configuration
    change — a new telemetry class, a flipped hardening flag —
    invalidates exactly that app's cells.
    """
    return _digest(dataclasses.asdict(profile))


@lru_cache(maxsize=1)
def default_device_identities() -> tuple[dict, dict]:
    """The study's fixed device pair as cache-key identities.

    Boots one throwaway Pixel 6 / Nexus 5 pair against a private
    network to read the factory specs — model, serial and CDM version —
    without constructing any backend. Cached for the process lifetime;
    the identities are static facts.
    """
    from repro.android.device import nexus_5, pixel_6
    from repro.license_server.provisioning import KeyboxAuthority
    from repro.net.network import Network
    from repro.obs.bus import ObservabilityBus

    network = Network()
    authority = KeyboxAuthority()
    bus = ObservabilityBus(enabled=False)
    l1 = pixel_6(network, authority, obs=bus)
    legacy = nexus_5(network, authority, obs=bus)

    def identity(device) -> dict:
        return {
            "model": device.spec.model,
            "serial": device.serial,
            "cdm_version": device.spec.cdm_version,
        }

    return identity(l1), identity(legacy)


@dataclass(frozen=True)
class CellSpec:
    """One schedulable, cacheable unit of campaign work."""

    cell_id: str  # "world", "audit-<service>", "attack-<service>"
    question: str  # QUESTION_WORLD | QUESTION_AUDIT | QUESTION_ATTACK
    app: str | None  # profile display name; None for the world cell
    key: str  # content address in the ResultStore


@dataclass
class Campaign:
    """One submission of the study, decomposed into cells."""

    profiles: tuple[OttProfile, ...]
    seed: int = 0
    include_attacks: bool = False
    # Test hook: cell_id -> number of attempts on which the executing
    # worker dies (kill -9 style). Drives the retry-with-backoff tests.
    faults: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.profiles = tuple(self.profiles)
        if not self.profiles:
            raise ValueError("a campaign needs at least one profile")
        self._cells_cache: tuple[CellSpec, ...] | None = None

    # -- cells -------------------------------------------------------------

    def cells(self) -> tuple[CellSpec, ...]:
        """World cell first, then audits in profile order, then attacks."""
        if self._cells_cache is not None:
            return self._cells_cache
        l1, legacy = default_device_identities()
        fingerprints = [profile_fingerprint(p) for p in self.profiles]
        base = {
            "schema": CELL_SCHEMA_VERSION,
            "seed": self.seed,
            "l1": l1,
            "legacy": legacy,
        }
        specs = [
            CellSpec(
                cell_id="world",
                question=QUESTION_WORLD,
                app=None,
                key=_digest(
                    {**base, "question": QUESTION_WORLD, "profiles": fingerprints}
                ),
            )
        ]
        for profile, fingerprint in zip(self.profiles, fingerprints):
            specs.append(
                CellSpec(
                    cell_id=f"audit-{profile.service}",
                    question=QUESTION_AUDIT,
                    app=profile.name,
                    key=_digest(
                        {**base, "question": QUESTION_AUDIT, "profile": fingerprint}
                    ),
                )
            )
        if self.include_attacks:
            for profile, fingerprint in zip(self.profiles, fingerprints):
                specs.append(
                    CellSpec(
                        cell_id=f"attack-{profile.service}",
                        question=QUESTION_ATTACK,
                        app=profile.name,
                        key=_digest(
                            {
                                "schema": CELL_SCHEMA_VERSION,
                                "seed": self.seed,
                                "legacy": legacy,
                                "question": QUESTION_ATTACK,
                                "profile": fingerprint,
                            }
                        ),
                    )
                )
        self._cells_cache = tuple(specs)
        return self._cells_cache

    def cell_by_id(self, cell_id: str) -> CellSpec:
        for cell in self.cells():
            if cell.cell_id == cell_id:
                return cell
        raise KeyError(f"no cell {cell_id!r} in campaign {self.campaign_id}")

    def profile_for(self, cell: CellSpec) -> OttProfile:
        for profile in self.profiles:
            if profile.name == cell.app:
                return profile
        raise KeyError(f"no profile {cell.app!r} in campaign {self.campaign_id}")

    # -- identity ----------------------------------------------------------

    @property
    def campaign_id(self) -> str:
        """Deterministic id: the digest of every cell key. Resubmitting
        an unchanged campaign lands in the same campaign directory."""
        return _digest({"cells": [cell.key for cell in self.cells()]})[:16]

    # -- persistence -------------------------------------------------------

    def to_manifest(self) -> dict:
        return {
            "version": CELL_SCHEMA_VERSION,
            "campaign_id": self.campaign_id,
            "profiles": [profile.name for profile in self.profiles],
            "seed": self.seed,
            "include_attacks": self.include_attacks,
            "faults": dict(self.faults),
            "cells": [dataclasses.asdict(cell) for cell in self.cells()],
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "Campaign":
        """Rebuild a campaign from its persisted manifest. Profiles are
        resolved through the registry; campaigns over ad-hoc profiles
        must be resubmitted as objects instead."""
        return cls(
            profiles=tuple(
                profile_by_name(name) for name in manifest["profiles"]
            ),
            seed=manifest.get("seed", 0),
            include_attacks=manifest.get("include_attacks", False),
            faults=dict(manifest.get("faults", {})),
        )
