"""Forked workers: the one way work crosses a process boundary.

A worker is a forked child, so it inherits this process's memory (model,
samples, shared parameters) instead of unpickling it.  It ignores SIGINT,
since its parent ends it, leaves by ``os._exit``, and closes every worker
pipe end it inherited, so each pipe ends with its two processes.  Its
commands go to it pickled, and its results come back as pickled frames,
each a value or the exception it raised.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import pickle
import signal
import traceback

from .errors import WorkerDied

# this process's worker pipe ends, closed in each child forked here (a worker
# flushes each frame, so a grandchild closing its results writes nothing)
_ends = set()


def usable_cores() -> int:
    """Cores this process may run on, or 1 where it cannot fork: a worker
    inherits the model rather than unpickling it."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def send(results, value, failed: bool = False) -> None:
    """Write ``value`` to a worker's ``results`` pipe as one frame."""
    payload = pickle.dumps((failed, value))
    results.write(len(payload).to_bytes(8, "little") + payload)
    results.flush()


def commands_from(pipe):
    """Yield each command ``Worker.go`` sent down ``pipe`` until the parent
    closes it."""
    reader = io.BufferedReader(pipe)
    with contextlib.suppress(EOFError):
        while True:
            yield pickle.load(reader)


class Worker:
    """This process's end of a worker: a pipe of ``commands`` to it and one
    of ``results`` from it, which raises ``WorkerDied(died)`` at its end."""

    def __init__(self, task, died: str):
        """Fork a worker that runs ``task(commands, results)`` on what ``go``
        sends and its results pipe; an exception it raises is its last frame."""
        command_r, command_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (command_r, command_w, result_r, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (command_w, result_r):
                    os.close(fd)
                while _ends:
                    _ends.pop().close()
                with open(command_r, "rb", buffering=0) as commands, open(result_w, "wb") as results:
                    _ends.update((commands, results))
                    try:
                        task(commands_from(commands), results)
                    except Exception as exc:  # raised in the parent when it reads this frame
                        send(results, (exc, traceback.format_exc()), failed=True)
                code = 0
            finally:
                os._exit(code)
        os.close(command_r)
        os.close(result_w)
        self.commands, self.results, self.died = open(command_w, "wb", buffering=0), open(result_r, "rb"), died
        _ends.update((self.commands, self.results))

    def go(self, command) -> None:
        """Send the worker ``command``, pickled."""
        view = memoryview(pickle.dumps(command))
        try:
            while view:
                view = view[self.commands.write(view):]
        except BrokenPipeError:
            raise WorkerDied(self.died) from None

    def receive(self):
        """The worker's next frame: its value, or its exception raised here."""
        failed, value = pickle.loads(self._read(int.from_bytes(self._read(8), "little")))
        if failed:
            exc, trace = value
            raise exc from RuntimeError(f"in worker process {self.pid}:\n{trace}")
        return value

    def _read(self, size: int) -> bytes:
        data = self.results.read(size)
        if len(data) < size:
            raise WorkerDied(self.died)
        return data

    def close(self, kill: bool = False) -> None:
        """Close both pipes, which ends a worker waiting for a command, and
        reap it, killed first if ``kill``."""
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
        for end in (self.commands, self.results):
            _ends.discard(end)
            end.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


@contextlib.contextmanager
def forked(tasks, died: str):
    """Fork a worker per task of ``tasks`` and yield them in order.  Each
    is reaped on the way out, and killed first after an error or an
    interrupt."""
    workers, failed = [], True
    try:
        for task in tasks:
            workers.append(Worker(task, died))
        yield workers
        failed = False
    finally:
        for worker in workers:
            worker.close(kill=failed)


def spread(run, items: list, processes: int, died: str, lost=None) -> list:
    """``[run(item) for item in items]``, item ``i`` run in process ``i mod
    n`` (n is ``processes``, at most the item count, 1 without ``fork``).
    Process 0 is this one; each other is a worker that sends each of its
    items' results once done.  They are read in item order, a worker's
    exception raised here when its item comes up.  A dead worker's unsent
    items raise WorkerDied(died) or, given ``lost``, give ``lost(item)``."""
    n = max(1, min(processes, len(items))) if hasattr(os, "fork") else 1

    def task(slot: int, commands, results):
        for item in items[slot::n]:
            send(results, run(item))

    results = []
    with forked([functools.partial(task, slot) for slot in range(1, n)], died) as workers:
        for i, item in enumerate(items):
            slot = i % n
            try:
                results.append(workers[slot - 1].receive() if slot else run(item))
            except WorkerDied:
                if lost is None or not slot:
                    raise
                results.append(lost(item))  # and for its later items, at end of file again
    return results
