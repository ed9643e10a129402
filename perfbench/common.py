"""Measurement helpers shared by the three workloads.

Everything here is stdlib-only and knows nothing about ``repro``: spans,
resident-set sizes read from ``/proc``, and stopping process trees.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List


class Spans:
    """In-memory span recorder: per-name self time.

    A span's self time is its duration minus the time its child spans
    cover; spans nest by call order on one thread.  Nothing is written
    until the caller reads the totals at the end of the run.
    """

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = {}
        self._stack: List[List[float]] = []  # [start, child seconds]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            seconds = time.perf_counter() - frame[0]
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + seconds - frame[1])
            if self._stack:
                self._stack[-1][1] += seconds

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a ``name`` span."""
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped


# -- processes ----------------------------------------------------------------

def _parent_map() -> Dict[int, int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces or brackets
        fields = stat[stat.rfind(")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    return parents


def descendants(root: int) -> List[int]:
    """Every live process below ``root`` (its children, theirs, ...)."""
    parents = _parent_map()
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        children = [child for child, parent in parents.items()
                    if parent == pid]
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest peak resident set (``VmHWM``) among ``pids``, in MiB."""
    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


def tree_peak_rss_mb(root: int) -> float:
    """:func:`peak_rss_mb` of ``root`` and every process below it."""
    return peak_rss_mb([root] + descendants(root))


def wait_gone(pids: Iterable[int], timeout: float) -> List[int]:
    """Wait until every pid has exited; SIGKILL and report stragglers."""
    pending = list(pids)
    deadline = time.monotonic() + timeout
    while pending and time.monotonic() < deadline:
        pending = [pid for pid in pending if _alive(pid)]
        if pending:
            time.sleep(0.05)
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return pending


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", "replace")
    except OSError:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"


def stop_process(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """SIGINT ``proc`` (a clean shutdown), wait for it and for every
    process it had started; kill whatever outlives the timeout."""
    below = descendants(proc.pid)
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    wait_gone(below, timeout)
