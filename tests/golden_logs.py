"""The nine golden sessions as checked-in NDJSON files.

``tests/fixtures/<preset>_<seed>.ndjson`` holds the log that the simulator
wrote for each profile preset at seeds 1-3 under the default config, when it
still drew from numpy's ``Generator`` streams.  The digests over the
scorers, the report, telemetry and the engine read these bytes, so a change
to the simulator's draws moves only the simulator's own digests; the
fixtures' own sha256s are pinned in ``tests/test_golden.py``.
"""

from __future__ import annotations

import functools
from pathlib import Path

from errandlab.sessionlog import SessionLog, deserialize_log

FIXTURES = Path(__file__).parent / "fixtures"
PRESETS = ("default", "perfect", "null")
GOLDEN_SESSIONS = tuple((preset, seed) for preset in PRESETS for seed in (1, 2, 3))


def golden_path(preset: str, seed: int) -> Path:
    return FIXTURES / f"{preset}_{seed}.ndjson"


@functools.cache
def golden_bytes(preset: str, seed: int) -> bytes:
    return golden_path(preset, seed).read_bytes()


def golden_log(preset: str, seed: int) -> SessionLog:
    return deserialize_log(golden_bytes(preset, seed))
