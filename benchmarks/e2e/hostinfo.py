"""Host fingerprint and the environment every launched process gets."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from .spec import REPO_ROOT


def scrub_environment() -> dict:
    """Remove every ``REPRO_*`` variable from this process's environment
    (``REPRO_SCHEDULER``, ``REPRO_DB_PATH``, ``REPRO_BENCH_SCALE``, ...) so
    library defaults are what is measured; returns what was found."""
    found = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in found:
        del os.environ[key]
    return found


def child_env(tmp_dir: Path, **extra: str) -> dict:
    """Environment of a worker or server: the scrubbed one, the repo on
    ``PYTHONPATH``, and temp files kept inside the run directory."""
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)])
    env["TMPDIR"] = str(tmp_dir)
    env.update(extra)
    return env


def live_processes(*, parent: int | None = None,
                   group: int | None = None) -> list[int]:
    """Live pids whose parent pid or process group matches (Linux
    ``/proc``; empty elsewhere) — how a run proves nothing outlived it."""
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue   # the process ended while we were looking
        state, ppid, pgrp = fields[0], int(fields[1]), int(fields[2])
        if state != "Z" and (ppid == parent or pgrp == group):
            found.append(int(entry.name))
    return found


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"   # a checkout without git metadata
    return out.stdout.strip()


def fingerprint(seed: int, cleared: dict) -> dict:
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    threads = {name: os.environ[name]
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS") if name in os.environ}
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} "
                f"{blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "repro_env_cleared": cleared,
    }
