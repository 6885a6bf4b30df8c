"""Leave no process behind.

The process backend forks shard workers, and its shared-memory transport
starts :mod:`multiprocessing`'s resource-tracker process, which Python
never waits for: it outlives the interpreter that started it by however
long it takes to notice.  :func:`become_subreaper` makes the benchmark
adopt every orphaned descendant (Linux), and :func:`reap_children` stops
the tracker and waits until every child has ended, killing those still
running at its deadline.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

__all__ = ["become_subreaper", "reap_children"]

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, so
    :func:`reap_children` waits for them too (a no-op off Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


def _stop_resource_tracker() -> None:
    """Close this process's end of the resource tracker's pipe; the tracker
    exits once every holder of that end has closed it."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return
    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return
    try:
        os.close(fd)
    except OSError:
        pass
    tracker._fd = None
    tracker._pid = None  # reaped below with every other child


def _children() -> list[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def reap_children(timeout: float = 15.0) -> None:
    """Stop the resource tracker and wait for every child to end; after
    ``timeout`` seconds, kill the ones still running."""
    _stop_resource_tracker()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
