"""Provenance headers for every ``BENCH_*.json`` document.

A benchmark number with no record of *what produced it* cannot anchor
a trajectory: the bench-diff regression gate compares JSONs across
commits, so each document carries a ``provenance`` block — git SHA,
python version and platform, timestamp, and the writer's options
(backends, seed, workload knobs) — making every point attributable.

The git probe is best-effort: outside a git checkout (an installed
wheel, an exported tarball) the SHA reads ``"unknown"`` and nothing
fails.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Any, Dict, Optional


def _git(*args: str) -> Optional[str]:
    """A git command's stdout in this checkout, or ``None`` on failure."""
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(**options: Any) -> Dict[str, Any]:
    """The provenance block for one benchmark document.

    Keyword arguments become the ``options`` sub-dict — pass the
    writer's knobs (backends, level, seed, workload shape) so the
    document records not just *when* but *what configuration*.
    """
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "options": dict(options),
    }
