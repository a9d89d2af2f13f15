"""Statistics, failure accounting and the environment record of a benchmark run."""

import math
import os
import platform
import sys
from pathlib import Path

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples (rounded so 99.9% of 10000 is 9990)."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def tail(values):
    """(label, value): the highest percentile with at least ten samples beyond it.

    Percentiles are taken from TAIL_PERCENTILES by nearest rank.  A run with
    fewer than 20 samples has no such percentile at or above the median, and
    reports its maximum, labelled "max".
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = _rank(p, n)
        if n - rank >= MIN_BEYOND:
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


class Tally:
    """Attempted and failed operations and output checks, by kind.

    An operation fails when it raises; a check fails when its condition is
    false.  Both count toward `failed`, so one bad output makes the run
    incorrect.
    """

    def __init__(self):
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.messages: list[str] = []

    def _count(self, kind: str, ok: bool, message: str) -> bool:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            self.messages.append(f"{kind}: {message}")
        return ok

    def run(self, kind: str, fn, *args, **kwargs):
        """Call fn; returns (True, result) or (False, None) when it raised."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation of the program under test failed
            self._count(kind, False, f"{type(exc).__name__}: {exc}")
            return False, None
        self._count(kind, True, "")
        return True, result

    def check(self, kind: str, ok: bool, message: str = "") -> bool:
        return self._count(f"check.{kind}", bool(ok), message or "failed")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def failed_frac(self) -> float:
        return self.total_failed / self.total_attempted if self.total_attempted else 0.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": _git_commit(root),
        "platform": sys.platform,
    }
