"""Run an experiment grid's points over forked worker processes (POSIX
``os.fork``); each child sends its rows, or its first failure, back
pickled through a pipe.  ``harness.run_experiment`` chooses the worker
count; with one worker nothing is forked."""

import os
import pickle

from .errors import ComputationError


def _run_share(point_row, points, first, step, cfg):
    """Rows of ``points[first::step]`` in grid order, and ``None``, or the
    grid index and exception of the first of those points that raised
    (the share stops there)."""
    rows = []
    for index in range(first, len(points), step):
        try:
            rows.append(point_row(points[index], cfg))
        except Exception as exc:
            return rows, (index, exc)
    return rows, None


def _fork_share(point_row, points, first, step, cfg):
    """Fork a child that pickles its share's ``_run_share`` result down a
    pipe and exits 0, or exits 1 with nothing complete written; the
    child never returns.  The child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_run_share(point_row, points, first, step, cfg), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _reap_share(pid, read_fd):
    """Read a forked share's pipe to its end, then reap the child: its exit code and payload."""
    with open(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), payload


def grid_rows(point_row, points, n, cfg) -> list:
    """One row per point, in grid order, over ``n`` workers: ``n - 1``
    forked children run ``points[j::n]``, j >= 1, while this process runs
    ``points[0::n]``, then reaps every child.  A failure raises the
    exception of the first failing point in grid order, as one serial
    loop would."""
    children = []
    try:
        for j in range(1, n):
            children.append(_fork_share(point_row, points, j, n, cfg))
        shares = [_run_share(point_row, points, 0, n, cfg)]
    finally:
        ends = [_reap_share(pid, read_fd) for pid, read_fd in children]
    for j, (code, payload) in enumerate(ends, start=1):
        if code == 0:
            shares.append(pickle.loads(payload))
        else:
            error = f"grid worker for points {points[j::n]} exited with code {code} and no result"
            shares.append(([], (j, ComputationError(error))))
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = [None] * len(points)
    for j, (share_rows, _) in enumerate(shares):
        rows[j::n] = share_rows
    return rows
