"""Kill-and-resume of a parallel, journaled ``repro campaign`` process.

A real CLI process runs an 8-point ``blobs-mini --fast`` grid on two
pool workers (one point per pool submission) with a journal.  Once the
journal holds a completed point the parent is SIGKILLed, which is the
one failure no ``finally`` block can clean up after.  The contract:

* completed points are already on disk (the journal is written per
  chunk, not after the whole pool round);
* the orphaned pool workers exit on their own;
* ``--resume`` replays at least every point journaled before the kill,
  and its report equals a ``--workers 1`` run of the same grid.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc") or not hasattr(signal, "SIGKILL"),
    reason="needs /proc and SIGKILL to find and kill the campaign's workers",
)

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)
#: 1 baseline + 7 stuck-at rates, degradation off: 8 points, so two
#: workers get one point per chunk (adaptive_chunk_size(8, 2) == 1).
GRID = [
    "--preset", "blobs-mini", "--fast", "--no-cache", "--no-degradation",
    "--kinds", "stuck_at", "--rates", "0.004,0.006,0.008,0.01,0.012,0.014,0.016",
]
WORKERS_GONE_S = 10.0
FIRST_LINE_TIMEOUT_S = 180.0


def _campaign(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", *GRID, *args],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _finish(proc) -> str:
    out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0, out
    return out


def _children(pid: int) -> list:
    """Pids whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _stat(int(entry))[1] == pid:
            found.append(int(entry))
    return found


def _stat(pid: int):
    """``(state, ppid)`` of ``pid``; both ``None`` once it is gone."""
    try:
        text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return (None, None)
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def _alive(pid: int) -> bool:
    state, _ = _stat(pid)
    return state is not None and state not in ("Z", "X")


def _journal_lines(path: pathlib.Path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def test_killed_parallel_campaign_resumes_bit_identical(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    proc = _campaign(tmp_path, "--workers", "2", "--journal", str(journal))
    try:
        deadline = time.monotonic() + FIRST_LINE_TIMEOUT_S
        while _journal_lines(journal) < 1:
            assert proc.poll() is None, (
                "campaign finished before any point reached the journal:\n"
                + proc.communicate(timeout=60)[0]
            )
            assert time.monotonic() < deadline, "no journal line in time"
            time.sleep(0.02)
        workers = _children(proc.pid)
        seen = _journal_lines(journal)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()  # orphaned workers may still hold its write end
    assert workers, "the journal was first written after the pool was gone"

    deadline = time.monotonic() + WORKERS_GONE_S
    while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:  # don't leave them behind for the rest of the run
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"pool workers outlived their killed parent: {survivors}"

    resumed = _finish(
        _campaign(
            tmp_path, "--workers", "2", "--journal", str(journal), "--resume",
            "--out", "resumed.json",
        )
    )
    replayed = int(re.search(r"(\d+) replayed", resumed).group(1))
    assert replayed >= seen

    _finish(_campaign(tmp_path, "--workers", "1", "--out", "serial.json"))
    serial = json.loads((tmp_path / "serial.json").read_text())
    parallel = json.loads((tmp_path / "resumed.json").read_text())
    serial.pop("perf")  # per-point wall-clock counters
    parallel.pop("perf")
    assert parallel == serial
