"""The ``repro serve`` command and the ``--version`` flag."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]


class TestVersionFlag:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_version_matches_pyproject(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_version_is_single_sourced(self):
        # nothing but the resolver defines a literal version string
        source = (REPO / "src" / "repro" / "__init__.py").read_text()
        assert "_resolve_version" in source
        assert '__version__ = "' not in source


class TestServeCommand:
    def test_serve_help_lists_tunables(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--port", "--queue-limit", "--max-jobs", "--rate",
                     "--executor", "--events"):
            assert flag in out

    def test_serve_boots_answers_and_shuts_down(self):
        """Boot the real CLI in a subprocess, hit /healthz, kill it."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--executor", "thread", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        try:
            line = process.stdout.readline()
            assert "repro serve listening on http://" in line
            port = int(line.rsplit(":", 1)[1])
            deadline = time.monotonic() + 10
            payload = b""
            while time.monotonic() < deadline:
                try:
                    with socket.create_connection(
                        ("127.0.0.1", port), timeout=2
                    ) as sock:
                        sock.sendall(
                            b"GET /healthz HTTP/1.1\r\n"
                            b"Connection: close\r\n\r\n"
                        )
                        while chunk := sock.recv(4096):
                            payload += chunk
                    break
                except OSError:
                    time.sleep(0.1)
            assert b"200 OK" in payload
            assert b'"status": "ok"' in payload
        finally:
            process.terminate()
            process.wait(timeout=10)
            process.stdout.close()

    def test_sigterm_shuts_down_cleanly_and_reaps_the_pool(self):
        """SIGTERM stops the service like Ctrl-C: pool joined, line printed."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--executor", "process", "--workers", "1", "--no-cache"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            start_new_session=True,  # its pool workers share its group
        )
        group = process.pid
        try:
            line = process.stdout.readline()
            assert "repro serve listening on http://" in line
            port = int(line.rsplit(":", 1)[1])
            body = b'{"preset": "four"}'
            payload = b""
            address = ("127.0.0.1", port)
            with socket.create_connection(address, timeout=60) as sock:
                sock.sendall(
                    b"POST /v1/solve HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + b"Connection: close\r\n\r\n"
                    + body
                )
                while chunk := sock.recv(4096):
                    payload += chunk
            assert b"200 OK" in payload
            assert b'"expected_reliability"' in payload

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            output = process.stdout.read()
            assert "repro serve: shut down" in output
            # the server joined its pool: nothing of its group survives
            deadline = time.monotonic() + 10
            while True:
                try:
                    os.killpg(group, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a pool worker survived"
                time.sleep(0.1)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.stdout.close()
