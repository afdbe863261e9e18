#!/usr/bin/env python3
"""Does a viewer process stop growing? A playback soak with RSS readings.

    python tools/rss_soak.py

Builds the viewers world (ten service backends on one network, two L1
Pixel 6 and one L3 Nexus 5, every app on every device), plays each app
once as a warm-up (login, per-origin provisioning, the L3 denials),
then plays 3,000 more sessions round-robin over the apps. Every 500
sessions it collects garbage and prints the process's VmRSS next to
the size of every holder that could keep per-session state: the
license servers' secure-channel records, the CDM and OEMCrypto session
tables, the pending provisioning sessions, and the bounded memos
(``parse_url``, the two KDF memos).

Exits 1 when RSS grows by more than 2 MB between session 1,000 and
session 3,000 (the bounded memos are full well before session 1,000),
or when a session's outcome differs from its app's warm-up outcome;
0 otherwise. Stdlib only; runs on older trees too (a holder a tree
lacks reads 0).
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.android.device import nexus_5, pixel_6  # noqa: E402
from repro.crypto import kdf  # noqa: E402
from repro.license_server.provisioning import KeyboxAuthority  # noqa: E402
from repro.net.http import parse_url  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.obs.bus import ObservabilityBus  # noqa: E402
from repro.ott.app import OttApp  # noqa: E402
from repro.ott.backend import OttBackend  # noqa: E402
from repro.ott.registry import ALL_PROFILES  # noqa: E402

SESSIONS = 3000
EVERY = 500
# The growth window: from the first reading after the memos fill to
# the last one.
WINDOW = (1000, 3000)
BUDGET_MB = 2.0


def _rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line in /proc/self/status")


def _size(obj, name: str) -> int:
    return len(getattr(obj, name, ()))


def _holders(backends, devices) -> dict[str, int]:
    cdms = [device.widevine_plugin.cdm for device in devices]
    engines = [device.widevine_plugin.oemcrypto for device in devices]
    return {
        "channels": sum(_size(b.license_server, "sessions") for b in backends),
        "cdm_sessions": sum(_size(cdm, "_sessions") for cdm in cdms),
        "provisioning": sum(_size(cdm, "_pending_provisioning") for cdm in cdms),
        "oc_sessions": sum(_size(oc, "_sessions") for oc in engines),
        "parse_url": parse_url.cache_info().currsize,
        "derive_key": kdf.derive_key.cache_info().currsize,
        "session_kdf": kdf._session_key_material.cache_info().currsize,
    }


def _outcome(result) -> tuple:
    return (result.ok, result.video_height, result.provisioning_failed)


def main() -> int:
    # Untraced, as a serving process runs: an enabled bus keeps every
    # span it records.
    bus = ObservabilityBus(enabled=False)
    network = Network()
    authority = KeyboxAuthority()
    backends = [
        OttBackend(profile, network, authority, obs=bus) for profile in ALL_PROFILES
    ]
    devices = [
        pixel_6(network, authority, serial="SOAK-P6-0", obs=bus),
        pixel_6(network, authority, serial="SOAK-P6-1", obs=bus),
        nexus_5(network, authority, serial="SOAK-N5-0", obs=bus),
    ]
    apps = [
        OttApp(backend.profile, device, backend)
        for device in devices
        for backend in backends
    ]
    expected = [_outcome(app.play()) for app in apps]
    gc.collect()
    print(f"warm-up: {len(apps)} sessions, VmRSS {_rss_mb():.1f} MB")

    readings: dict[int, float] = {}
    mismatches = 0
    for session in range(1, SESSIONS + 1):
        index = session % len(apps)
        if _outcome(apps[index].play()) != expected[index]:
            mismatches += 1
        if session % EVERY == 0:
            gc.collect()
            readings[session] = _rss_mb()
            held = "  ".join(
                f"{name} {size}" for name, size in _holders(backends, devices).items()
            )
            print(f"{session:5d} sessions  VmRSS {readings[session]:6.1f} MB  {held}")

    first, last = WINDOW
    growth = readings[last] - readings[first]
    print(
        f"growth from session {first} to {last}: {growth:+.2f} MB "
        f"(budget {BUDGET_MB:.1f} MB); {mismatches} outcome mismatch(es)"
    )
    return 0 if growth <= BUDGET_MB and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
