"""Open-loop load generator for the ``repro-swarm serve`` daemon.

One process, one thread: ``select`` waits on the daemon's stdin for
writing and its stdout for reading, so a full pipe in either
direction never stalls the other. All request bytes exist before the
daemon is spawned. Each request is due at a fixed time on the step's
schedule whether or not the daemon keeps up; its latency runs from
that due time to the first ``snapshot`` line whose ``files`` count
covers it. Steps are whole micro-batches and the generator waits for
each step to drain before the next begins, so no request waits on a
later step's lines to fill its batch. The generator keeps reading until
the ``final`` line: ``serve`` dies on a broken pipe if its reader
leaves.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import time
from dataclasses import dataclass, field

#: Pause between a drained step and the next step's first due time.
STEP_GAP_S = 0.02


@dataclass
class Session:
    """What one daemon session did, as seen from the generator."""

    returncode: int
    setup_s: float = float("nan")
    wall_s: float = float("nan")
    peak_rss_mib: float = float("nan")
    final: bytes | None = None
    due: list[float] = field(default_factory=list)
    covered: list[float | None] = field(default_factory=list)
    #: How late the generator released a request after its due time.
    gen_lag_ms_max: float = 0.0
    backlog_max_files: int = 0
    error: str = ""

    def latencies_ms(self, start: int, stop: int) -> list[float]:
        """Latency of requests ``start:stop`` that a snapshot covered."""
        return [(self.covered[i] - self.due[i]) * 1000.0
                for i in range(start, stop) if self.covered[i] is not None]

    def uncovered(self) -> int:
        return sum(1 for t in self.covered if t is None)


def run_session(command: list[str], *, lines: list[bytes], warmup: int,
                steps, cwd: str, env: dict, stderr,
                timeout: float) -> Session:
    """Drive one daemon through the warm-up and every rate step.

    *steps* is a sequence of ``(label, rate, count)``; the warm-up
    lines are all due at spawn. A daemon still running after
    *timeout* seconds is killed.
    """
    payload = memoryview(b"".join(lines))
    ends = []
    total = 0
    for line in lines:
        total += len(line)
        ends.append(total)
    n = len(lines)
    due: list[float] = [0.0] * n
    covered: list[float | None] = [None] * n
    pending = list(steps)

    started = time.monotonic()
    proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=stderr,
                            cwd=cwd, env=env, bufsize=0)
    in_fd, out_fd = proc.stdin.fileno(), proc.stdout.fileno()
    os.set_blocking(in_fd, False)
    os.set_blocking(out_fd, False)

    for i in range(warmup):
        due[i] = started
    planned = warmup      # requests with a due time
    released = 0          # requests whose due time has passed
    written = 0           # payload bytes written
    n_covered = 0
    setup_at = None
    final = None
    lag_max = 0.0
    backlog_max = 0
    buffer = b""
    stdin_open = True
    eof = False
    error = ""
    while not eof:
        now = time.monotonic()
        if now - started > timeout:
            error = "session timed out"
            proc.kill()
            break
        if n_covered >= planned and planned < n and pending:
            # The step drained: schedule the next one.
            _, rate, count = pending.pop(0)
            first = now + STEP_GAP_S
            for j in range(count):
                due[planned + j] = first + j / rate
            planned += count
        while released < planned and due[released] <= now:
            if released >= warmup:
                lag_max = max(lag_max, now - due[released])
            released += 1
        backlog_max = max(backlog_max, released - n_covered)
        if stdin_open and written == total and planned == n:
            proc.stdin.close()
            stdin_open = False
        want_write = stdin_open and written < (ends[released - 1]
                                               if released else 0)
        if released < planned:
            wait = min(max(due[released] - now, 0.0), 0.05)
        else:
            wait = 0.05
        readable, writable, _ = select.select(
            [out_fd], [in_fd] if want_write else [], [], wait)
        if writable:
            try:
                written += os.write(in_fd, payload[written:ends[released - 1]])
            except BlockingIOError:
                pass
            except BrokenPipeError:
                error = "daemon closed its input"
                stdin_open = False
        if readable:
            chunk = os.read(out_fd, 1 << 20)
            if not chunk:
                eof = True
            read_at = time.monotonic()
            buffer += chunk
            *complete, buffer = buffer.split(b"\n")
            for raw in complete:
                if not raw.strip():
                    continue
                message = json.loads(raw)
                if message.get("type") == "final":
                    final = raw
                    continue
                files = min(int(message.get("files", 0)), n)
                while n_covered < files:
                    covered[n_covered] = read_at
                    n_covered += 1
                if setup_at is None and n_covered >= warmup:
                    setup_at = read_at
    end_at = time.monotonic()
    if stdin_open:
        proc.stdin.close()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Session(
        returncode=proc.returncode,
        setup_s=(setup_at - started) if setup_at is not None else float("nan"),
        wall_s=end_at - started,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        final=final,
        due=due,
        covered=covered,
        gen_lag_ms_max=lag_max * 1000.0,
        backlog_max_files=backlog_max,
        error=error,
    )


def step_ranges(warmup: int, steps) -> dict[str, tuple[int, int]]:
    """Request index range ``[start, stop)`` of each labelled step."""
    out = {}
    start = warmup
    for label, _, count in steps:
        out[label] = (start, start + count)
        start += count
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def backlog_grows(sessions: list[Session], start: int, stop: int,
                  batch: int) -> bool:
    """Whether a step's last batch waited clearly longer than its first.

    Without a growing queue each micro-batch of a step sees the same
    fill wait and routing time; a queue that grows makes every later
    batch wait for the ones before it.
    """
    first, last = [], []
    for session in sessions:
        first += session.latencies_ms(start, start + batch)
        last += session.latencies_ms(stop - batch, stop)
    if not first or not last:
        return True
    mean_first = sum(first) / len(first)
    mean_last = sum(last) / len(last)
    return mean_last > 1.5 * mean_first + 10.0
