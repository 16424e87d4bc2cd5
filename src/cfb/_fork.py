"""Worker processes forked for one call: the one place the package forks.

A caller hands in_order its sequence of work units and a producer of
the items of a run of them.  in_order alone decides how many processes
share the work (worker_count) and where to cut it: into contiguous runs,
whose items come back in order, run 0's made in the calling process and
each other run's in a process forked for it, which pickles them into a
temporary file (standard library only).  The units are the Monte Carlo
route's (child seed, pairs) chunks, whose runs yield count tuples,
match-compare's sweep block starts, whose runs yield formatted blocks,
and the CSV reader's read-block byte ranges, whose runs yield parsed
blocks.

Processes are started with os.fork, not a spawn pool: a spawned worker
would import numpy and cfb again, and the command line's process has one
thread.  A library caller with threads of its own forks only its calling
thread.
"""

from __future__ import annotations

import os
import pickle
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


def in_order(name, produce, units):
    """The items of produce(run) for every run of units, in order.

    units, a sequence of n, is cut into w = min(worker_count(), n)
    contiguous runs, run k being units[k * n // w:(k + 1) * n // w];
    worker_count raises ValueError here, at the call, for a bad
    CFB_THREADS.  Run 0's items are made in the calling process as they
    are taken; each other run's by a process forked for it when the
    first item is asked for, before run 0 starts.  A worker pickles its
    items into an unlinked temporary file made before the fork, and they
    are loaded in their turn, after the worker ended, so no pipe fills
    up while the caller is busy with its own run.  A worker that failed
    raises CfbError naming it when its turn comes (`NAME worker k
    failed: ValueError: ...`, or `killed by signal 9`).  However the
    generator ends, every worker not waited for is killed and all are
    reaped, so none outlives it.  Where os.fork is missing, every run's
    items are made in the calling process.
    """
    n = len(units)
    w = min(worker_count(), n)
    return _items(name, produce, [units[k * n // w:(k + 1) * n // w] for k in range(w)])


def _items(name, produce, runs):
    """in_order's generator over its runs."""
    outs, pids = [], {}

    def dump(run, out):
        for item in produce(run):
            pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)

    try:
        if hasattr(os, "fork"):
            for k, run in enumerate(runs[1:], 1):
                outs.append(tempfile.TemporaryFile())
                pids[k] = fork_worker(dump, run, outs[-1])
        yield from produce(runs[0])
        for k, run in enumerate(runs[1:], 1):
            if k not in pids:
                yield from produce(run)
                continue
            out = outs[k - 1]
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(k), 0)[1])
            out.seek(0)
            if code:
                detail = out.read().decode(errors="replace") if code == 1 else ""
                if not detail:
                    detail = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise CfbError(f"{name} worker {k} failed: {detail}")
            try:
                while True:  # the item is not held here while the next one loads
                    yield pickle.load(out)
            except EOFError:
                pass
    finally:
        if pids:
            import signal  # loaded only to kill: its enums would add to every command's memory

        while pids:
            _, pid = pids.popitem()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in outs:
            out.close()
