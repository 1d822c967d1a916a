"""End-to-end soak: the real CLI daemon under a flash-crowd loadgen.

This is the tier-1 edition of the CI ``serve-soak`` job (which runs
the full 2-sim-day, 2M-session crowd): launch ``python -m repro
serve`` as a subprocess on a Unix socket, drive it with ``python -m
repro connect --sessions ... --golden``, then SIGTERM it and hold the
whole contract at once —

* the loadgen reports every mutation acked and every telemetry frame
  delivered (``dropped=0``);
* the served result is bit-identical to the in-process golden replay;
* the daemon exits 0 on SIGTERM with a ``serve: shutdown clean`` line
  showing zero leaked tasks and no fd growth;
* the served RunReport lands on disk with the serve section
  (schema_version, fingerprint, applied mutation ledger).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SESSIONS = 150_000
DAYS = 0.25  # 360 ticks; CI soaks the full 2 days


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


@pytest.fixture
def soak(tmp_path):
    sock = tmp_path / "serve.sock"
    log = tmp_path / "serve.log"
    report = tmp_path / "serve_report.json"
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--unix", str(sock), "--seed", "23",
         "--report", str(report), "--log", str(log)],
        env=_env(), cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not sock.exists():
            assert daemon.poll() is None, daemon.stderr.read().decode()
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.1)
        yield {"sock": sock, "log": log, "report": report,
               "daemon": daemon}
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def test_flash_crowd_soak_is_lossless_and_bit_identical(soak):
    connect = subprocess.run(
        [sys.executable, "-m", "repro", "connect",
         "--unix", str(soak["sock"]),
         "--sessions", str(SESSIONS), "--days", str(DAYS),
         "--every", "4", "--golden"],
        env=_env(), cwd=REPO, capture_output=True, text=True,
        timeout=600)
    assert connect.returncode == 0, connect.stdout + connect.stderr
    out = connect.stdout
    assert "dropped=0" in out
    assert "bit-identical vs in-process golden: yes" in out

    daemon = soak["daemon"]
    daemon.send_signal(signal.SIGTERM)
    assert daemon.wait(timeout=60) == 0

    # -- shutdown accounting -------------------------------------------
    log_text = soak["log"].read_text()
    lines = [ln for ln in log_text.splitlines()
             if ln.startswith("serve: shutdown clean")]
    assert len(lines) == 1, log_text
    fields = dict(part.split("=") for part in lines[0].split()[3:])
    assert fields["leaked_tasks"] == "0"
    assert fields["frames_dropped"] == "0"
    assert int(fields["frames_sent"]) > 0
    # No fd growth across the whole serve lifetime (the listener
    # itself is closed by shutdown, so final ≤ baseline).
    assert int(fields["fds_final"]) <= int(fields["fds_baseline"])
    assert not soak["sock"].exists()  # unix socket unlinked

    # -- served RunReport ----------------------------------------------
    report = json.loads(soak["report"].read_text())
    serve = report["serve"]
    assert serve["schema_version"] == 2
    assert serve["frames_dropped"] == 0
    assert serve["fingerprint"].startswith("{")
    assert len(serve["applied_mutations"]) == serve["mutations_total"]
    assert report["meta"]["mode"] == "served"
