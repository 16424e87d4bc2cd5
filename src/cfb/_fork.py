"""Worker processes forked for one call: the one place the package forks.

A caller splits its work into shares and runs share 0 itself, while
Forked runs each other share in a process forked for it (standard
library only).  Each worker writes its result into an unlinked temporary
file made before the fork, so the caller reads it back only after the
worker ended, whatever its size, and no pipe can fill up while the
caller is busy with its own share.  The Monte Carlo route, match-compare
and the CSV reader use it.

Processes are started with os.fork, not a spawn pool: a spawned worker
would import numpy and cfb again, and the command line's process has one
thread.  A library caller with threads of its own forks only its calling
thread.
"""

from __future__ import annotations

import os
import tempfile

from .errors import CfbError

_MAX_WORKERS = 64  # most workers CFB_THREADS gets: the calling process and 63 forked ones


def worker_count() -> int:
    """Processes that share a command's work, the calling one included,
    controlled by CFB_THREADS.

    Unset or 0 picks the CPUs this process may run on, at most 4; 1 runs
    everything in the calling process; a value above _MAX_WORKERS counts
    as _MAX_WORKERS, so a harness that sets it to a large machine's CPU
    count still runs.  No result depends on this, only wall time does.
    """
    raw = os.environ.get("CFB_THREADS", "").strip()
    if raw in ("", "0"):
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(usable or 1, 4)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CFB_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"CFB_THREADS must be positive, got {n}")
    return min(n, _MAX_WORKERS)


def fork_worker(work, share, out):
    """Fork a process that runs work(share, out) and returns its pid.

    If work raises, the process writes the exception's type and message
    in place of what out held and exits 1.  It ends with os._exit in a
    finally block, so it never returns into the caller's stack, and runs
    no exit handler and flushes no buffer that the caller filled before
    the fork.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                work(share, out)
                out.flush()
                code = 0
            except BaseException as e:
                out.seek(0)
                out.truncate()
                out.write(f"{type(e).__name__}: {e}".encode())
                out.flush()
        finally:
            os._exit(code)
    return pid


class Forked:
    """Shares 1, 2, ... of a call's work, each run by work(share, out) in a
    process forked when this is made; share 0 is the caller's own.

    out is a binary temporary file, unlinked, made before the fork.
    result(k) waits for worker k and returns its file, read from the
    start, or raises CfbError naming the worker if it failed (`NAME worker
    k failed: ValueError: ...`, or `killed by signal 9`).  Used as a
    context manager: leaving it kills every worker not waited for and
    reaps them all, so none outlives the call whether it returns or
    raises, and closes the files.  Where os.fork is missing, result(k)
    runs work(share, out) in the calling process.
    """

    def __init__(self, name, work, shares):
        self._name, self._work, self._shares = name, work, shares
        self._outs, self._pids = [], {}
        try:
            for k, share in enumerate(shares[1:], 1):
                self._outs.append(tempfile.TemporaryFile())
                if hasattr(os, "fork"):
                    self._pids[k] = fork_worker(work, share, self._outs[-1])
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def result(self, k):
        out = self._outs[k - 1]
        if k not in self._pids:
            self._work(self._shares[k], out)
        else:
            code = os.waitstatus_to_exitcode(os.waitpid(self._pids[k], 0)[1])
            del self._pids[k]
            if code:
                out.seek(0)
                detail = out.read().decode(errors="replace") if code == 1 else ""
                if not detail:
                    detail = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise CfbError(f"{self._name} worker {k} failed: {detail}")
        out.seek(0)
        return out

    def close(self):
        if self._pids:
            import signal  # loaded only to kill: its enums would add to every command's memory

        while self._pids:
            _, pid = self._pids.popitem()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in self._outs:
            out.close()
