"""Graceful shutdown, restart/resume, and disconnect semantics."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import SecureCompressor
from repro.service import ServiceClient, ServiceConfig, serve_in_background
from repro.service import protocol
from repro.service.store import JobStore

KEY = bytes(range(16))
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, "src")


def small_field(seed: int = 0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.standard_normal((8, 8, 8)).cumsum(axis=0).astype(np.float32)


def wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise TimeoutError(f"timed out waiting for {message}")


class TestSigtermPersistence:
    def test_sigterm_persists_queue_and_second_serve_resumes(self, tmp_path):
        """The acceptance path: kill an ingest-only daemon holding
        queued jobs, then drain them with a second daemon on the same
        store.

        This is the suite's slowest test; the ~1 s is the real
        ``python -m repro.cli serve`` subprocess (interpreter + numpy
        import), which is the point — SIGTERM semantics need a real
        process.  Every wait in here is a bounded poll or a join with
        timeout, never a fixed sleep.
        """
        sock = str(tmp_path / "secz.sock")
        store = str(tmp_path / "jobs.sqlite")
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", sock, "--store", store, "--workers", "0",
             "--key-hex", KEY.hex()],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            wait_for(lambda: os.path.exists(sock), message="socket bind")
            fields = [small_field(i) for i in range(3)]
            with ServiceClient(sock) as client:
                job_ids = [client.submit(field, detached=True)
                           for field in fields]
                assert client.stat()["jobs"]["queued"] == 3
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out.decode()
        assert b"shut down cleanly" in out

        # Every acknowledged job survived as a queued row.
        js = JobStore(store)
        assert js.counts_by_state()["queued"] == 3
        js.close()

        # A second daemon on the same store picks the jobs up and runs
        # them to completion; the original job ids keep working.
        config = ServiceConfig(key=KEY, workers=2)
        with serve_in_background(config, store, socket_path=sock):
            with ServiceClient(sock) as client:
                containers = [client.wait(jid) for jid in job_ids]
                assert client.stat()["store"]["jobs"]["done"] == 3
        sc = SecureCompressor(scheme="encr_huffman", error_bound=1e-3,
                              key=KEY)
        for container, field in zip(containers, fields):
            assert np.abs(sc.decompress(container) - field).max() <= 1e-3

    def test_interrupted_running_job_requeues(self, tmp_path):
        # Forge a store whose daemon died mid-job: the row says
        # `running`, but no process is working on it.
        store_path = str(tmp_path / "jobs.sqlite")
        field = small_field()
        config = ServiceConfig(key=KEY, workers=0)
        sock = str(tmp_path / "a.sock")
        with serve_in_background(config, store_path,
                                 socket_path=sock) as service:
            with ServiceClient(sock) as client:
                job_id = client.submit(field, detached=True)
            job = service.jobs[job_id]
            job.started_at = time.time()
            job.transition(1)  # running
            service.store.mark_running(job)
        js = JobStore(store_path)
        assert js.counts_by_state()["running"] == 1
        js.close()

        with serve_in_background(ServiceConfig(key=KEY, workers=1),
                                 store_path,
                                 socket_path=str(tmp_path / "b.sock")):
            with ServiceClient(str(tmp_path / "b.sock")) as client:
                container = client.wait(job_id)
        assert container[:4] == b"SECZ"


class TestDisconnectSemantics:
    def test_disconnect_cancels_non_detached_queued_job(self, tmp_path):
        sock = str(tmp_path / "secz.sock")
        config = ServiceConfig(key=KEY, workers=0)
        with serve_in_background(config, str(tmp_path / "jobs.sqlite"),
                                 socket_path=sock) as service:
            with ServiceClient(sock) as client:
                job_id = client.submit(small_field())  # not detached
            wait_for(
                lambda: service.jobs[job_id].state_name == "cancelled",
                message="disconnect cancellation",
            )
            with ServiceClient(sock) as client:
                assert client.status(job_id) == "cancelled"

    def test_detached_job_survives_disconnect(self, tmp_path):
        sock = str(tmp_path / "secz.sock")
        config = ServiceConfig(key=KEY, workers=1)
        with serve_in_background(config, str(tmp_path / "jobs.sqlite"),
                                 socket_path=sock):
            with ServiceClient(sock) as client:
                job_id = client.submit(small_field(), detached=True)
            with ServiceClient(sock) as client:
                container = client.wait(job_id)
        assert container[:4] == b"SECZ"

    def test_mid_frame_disconnect_is_harmless(self, tmp_path):
        sock = str(tmp_path / "secz.sock")
        config = ServiceConfig(key=KEY)
        with serve_in_background(config, str(tmp_path / "jobs.sqlite"),
                                 socket_path=sock):
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(sock)
            raw.sendall(protocol.PROTOCOL_MAGIC + b"\x01")  # partial header
            raw.close()
            # The server must survive and keep answering new clients.
            with ServiceClient(sock) as client:
                client.ping()


class TestThreadHygiene:
    def test_no_leaked_prefetcher_threads(self, monkeypatch, tmp_path):
        """A CTR job starts no thread and leaves none behind, even when
        its client disconnects mid-flight; shutdown then stops every
        thread the daemon started."""
        before_serve = set(threading.enumerate())
        sock = str(tmp_path / "secz.sock")
        config = ServiceConfig(key=KEY, workers=1, cipher_mode="ctr",
                               scheme="cmpr_encr")
        with serve_in_background(config, str(tmp_path / "jobs.sqlite"),
                                 socket_path=sock):
            # A first job starts the daemon's one executor thread.
            with ServiceClient(sock) as warm:
                warm.wait(warm.submit(small_field(1)))
            before_job = set(threading.enumerate())
            started = []
            thread_start = threading.Thread.start

            def recording_start(thread):
                started.append(thread.name)
                thread_start(thread)

            monkeypatch.setattr(threading.Thread, "start", recording_start)
            client = ServiceClient(sock)
            job_id = client.submit(small_field(), detached=True)
            # Disconnect while the job may still be running.
            client.close()
            with ServiceClient(sock) as client2:
                client2.wait(job_id)
            monkeypatch.undo()
            assert started == []
            assert set(threading.enumerate()) <= before_job
        wait_for(lambda: set(threading.enumerate()) <= before_serve,
                 timeout=10, message="daemon threads to exit")

    def test_serve_loop_thread_exits(self, tmp_path):
        sock = str(tmp_path / "secz.sock")
        config = ServiceConfig(key=KEY)
        with serve_in_background(config, str(tmp_path / "jobs.sqlite"),
                                 socket_path=sock):
            pass
        assert not [t for t in threading.enumerate()
                    if t.name == "secz-serve-loop"]

    def test_socket_file_removed_on_shutdown(self, tmp_path):
        sock = str(tmp_path / "secz.sock")
        config = ServiceConfig(key=KEY)
        with serve_in_background(config, str(tmp_path / "jobs.sqlite"),
                                 socket_path=sock):
            assert os.path.exists(sock)
        assert not os.path.exists(sock)
