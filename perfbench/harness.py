"""Statistics, host facts and the result line shared by every workload.

Nothing here imports the program under test, so the helpers stay usable
(and testable) without ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: The cached serving model and per-seed quality records.  Ignored by git,
#: so every fresh checkout fits its own serving model.
CACHE_DIR = BENCH_DIR / "_cache"

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of an empty sample")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND
         ) -> Tuple[float, float]:
    """The highest percentile that has ``beyond`` samples above it.

    Returns ``(value, percentile)``: the ``beyond + 1``-th largest sample
    and its rank as a percentile of the sorted sample (0 = min, 100 = max).
    Raises ``ValueError`` when the sample is too small to have one.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond it needs more "
                         f"than {beyond} samples, got {n}")
    idx = n - beyond - 1
    return xs[idx], (100.0 * idx / (n - 1) if n > 1 else 100.0)


def tree_digest(root: Path, pattern: str = "*.py") -> str:
    """sha256 over the relative paths and bytes of matching files."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path = ROOT) -> str:
    """HEAD commit read from ``.git`` directly; ``"none"`` outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def host_facts(blas_threads: int) -> Dict[str, object]:
    """CPU count, BLAS vendor/threads, interpreter and numpy versions."""
    import numpy as np

    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_sha256": tree_digest(ROOT / "src" / "repro")[:16],
        "bench_sha256": tree_digest(BENCH_DIR)[:16],
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The final stdout line: one JSON object in the benchmark's schema."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# ----------------------------------------------------------------------
# BENCHMARK.json schema
# ----------------------------------------------------------------------
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def schema_errors(spec: dict) -> List[str]:
    """Everything about a ``BENCHMARK.json`` document that breaks its schema."""
    errors: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return [f"keys must be exactly {sorted(keys)}, got {sorted(spec)}"]

    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in command)):
        errors.append("command must be 1-32 strings of at most 200 chars")
    else:
        for arg in command:
            if arg.startswith("/") or ".." in Path(arg).parts:
                errors.append(f"command argument leaves the repo: {arg}")

    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths must list 1-16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not _PATH.match(p)
                    or p.startswith("/") or ".." in p.split("/")):
                errors.append(f"bad path {p!r}")

    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) \
            or not 1 <= seconds <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")

    names: List[str] = []
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("workloads must list 2-8 entries")
        workloads = []
    for w in workloads:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            errors.append(f"workload needs exactly name and why: {w!r}")
            continue
        names.append(w["name"])
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append(f"workload {w['name']!r}: why must be one line "
                          "of at most 200 chars")

    for section, lo, hi, keys in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        metrics = spec[section]
        if not isinstance(metrics, list) or not lo <= len(metrics) <= hi:
            errors.append(f"{section} must list {lo}-{hi} metrics")
            continue
        for m in metrics:
            if not isinstance(m, dict) or set(m) != keys:
                errors.append(f"{section} metric needs exactly {sorted(keys)}: "
                              f"{m!r}")
                continue
            names.append(m["name"])
            if not isinstance(m["unit"], str) or not _UNIT.match(m["unit"]):
                errors.append(f"bad unit {m['unit']!r} on {m['name']!r}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"better must be lower or higher on {m['name']!r}")
            if "bound" in keys:
                bound = m["bound"]
                if (not isinstance(bound, (int, float))
                        or isinstance(bound, bool) or not 0 < bound <= 0.25
                        or math.isnan(bound)):
                    errors.append(f"bound must be in (0, 0.25] on {m['name']!r}")

    for name in names:
        if not isinstance(name, str) or not _NAME.match(name):
            errors.append(f"bad name {name!r}")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        errors.append(f"names used more than once: {duplicates}")

    setup = [m for m in spec["end_to_end"] if isinstance(m, dict)
             and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s with unit s, better lower")
    return errors


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """Read ``BENCHMARK.json`` and fail loudly when it breaks the schema."""
    spec = json.loads(path.read_text())
    if len(path.read_bytes()) > 64 * 1024:
        raise ValueError(f"{path} is larger than 64 KiB")
    errors = schema_errors(spec)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return spec


def metric_units(spec: dict, section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}
