"""What a test forked: the pid of each child, the threads alive at each
fork and how each child ended.  ``multiprocessing.active_children()``
lists only ``multiprocessing`` children, so it cannot see the workers
artinv forks with ``os.fork``."""

import os
import threading

import pytest


def _record_forks(monkeypatch, before, after) -> None:
    fork = os.fork

    def recording():
        before()
        pid = fork()
        if pid:
            after(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)


def forked_pids(monkeypatch) -> list:
    """Record the pid of every process forked from here on."""
    pids = []
    _record_forks(monkeypatch, lambda: None, pids.append)
    return pids


def threads_at_fork(monkeypatch) -> list:
    """Record the set of live threads at every fork from here on."""
    at_fork = []
    _record_forks(monkeypatch, lambda: at_fork.append(set(threading.enumerate())), lambda pid: None)
    return at_fork


def exit_statuses(monkeypatch) -> dict:
    """Record, by pid, the status of every child reaped from here on."""
    statuses = {}
    waitpid = os.waitpid

    def recording(pid, options):
        reaped, status = waitpid(pid, options)
        if reaped:
            statuses[reaped] = status
        return reaped, status

    monkeypatch.setattr(os, "waitpid", recording)
    return statuses


def assert_reaped(pids):
    """Each of ``pids`` has been waited for: it is no child of this process."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
