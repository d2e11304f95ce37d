"""End-to-end tests of the ``secz serve`` daemon over a unix socket."""

import socket
import threading

import numpy as np
import pytest

from repro.core.pipeline import SecureCompressor
from repro.service import (
    JobPending,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve_in_background,
)
from repro.service import protocol

KEY = bytes(range(16))


def small_field(seed: int = 0, side: int = 8) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.standard_normal((side,) * 3).cumsum(axis=0).astype(np.float32)


@pytest.fixture()
def endpoint(tmp_path):
    """(socket path, store path) inside this test's tmp dir."""
    return str(tmp_path / "secz.sock"), str(tmp_path / "jobs.sqlite")


def serve(config, endpoint):
    sock, store = endpoint
    return serve_in_background(config, store, socket_path=sock)


class TestRoundTrip:
    def test_submit_wait_fetch(self, endpoint, smooth_field):
        config = ServiceConfig(key=KEY, error_bound=1e-3)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                client.ping()
                job_id = client.submit(smooth_field)
                container = client.wait(job_id)
                assert container[:4] == b"SECZ"
                assert client.status(job_id) == "done"
                # FETCH keeps answering after completion.
                assert client.fetch(job_id) == container
        sc = SecureCompressor(scheme="encr_huffman", error_bound=1e-3,
                              key=KEY)
        restored = sc.decompress(container)
        assert np.abs(restored - smooth_field).max() <= 1e-3

    def test_served_container_bit_identical_to_one_shot(
        self, endpoint, smooth_field
    ):
        # A seeded single-worker daemon must emit exactly the bytes a
        # one-shot seeded compressor does (the acceptance criterion).
        config = ServiceConfig(key=KEY, error_bound=1e-3, workers=1,
                               seed=1234)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                served = client.wait(client.submit(smooth_field))
        one_shot = SecureCompressor(
            scheme="encr_huffman", error_bound=1e-3, key=KEY,
            random_state=np.random.default_rng(1234),
        ).compress(smooth_field).container
        assert served == one_shot

    def test_float64_and_per_job_overrides(self, endpoint):
        field = np.linspace(0, 1, 4 ** 3).reshape(4, 4, 4)
        config = ServiceConfig(key=KEY, error_bound=1e-3)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                job_id = client.submit(field, eb=1e-5, scheme_id=1)
                container = client.wait(job_id)
        sc = SecureCompressor(scheme="cmpr_encr", error_bound=1e-5, key=KEY)
        restored = sc.decompress(container)
        assert restored.dtype == np.float64
        assert np.abs(restored - field).max() <= 1e-5


class TestConcurrency:
    def test_64_concurrent_submissions(self, endpoint):
        config = ServiceConfig(key=KEY, workers=2, queue_limit=128)
        containers = {}
        errors = []

        def one(i):
            try:
                with ServiceClient(endpoint[0]) as client:
                    jid = client.submit(small_field(i), detached=True)
                    containers[i] = client.wait(jid)
            except Exception as exc:  # surfaced after the join
                errors.append((i, exc))

        with serve(config, endpoint):
            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(64)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            with ServiceClient(endpoint[0]) as client:
                stat = client.stat()
        assert not errors
        assert len(containers) == 64
        assert all(c[:4] == b"SECZ" for c in containers.values())
        assert stat["jobs"]["failed"] == 0
        assert stat["counters"]["service.jobs_submitted"] == 64

    def test_warm_daemon_reuses_codecs(self, endpoint, smooth_field):
        config = ServiceConfig(key=KEY, workers=1)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                for offset in range(4):
                    client.wait(client.submit(
                        smooth_field + np.float32(offset)
                    ))
                stat = client.stat()
        assert stat["codec_cache"]["hit_rate"] > 0
        assert stat["counters"]["service.batch_reuse_hits"] >= 1
        assert stat["counters"]["service.queue_wait_ms"] >= 1

    def test_ctr_keystream_overlap_in_stat(self, endpoint):
        # The keystream is made when the scheme encrypts, so no job
        # overlaps or waits on it: both secp-stat/1 keys stay, at 0.0.
        config = ServiceConfig(key=KEY, workers=1, cipher_mode="ctr",
                               scheme="cmpr_encr")
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                client.wait(client.submit(small_field(side=24)))
                stat = client.stat()
        pool = stat["pool"]
        assert pool["jobs_compressed"] == 1
        assert pool["keystream_overlap_ms"] == 0.0
        assert pool["keystream_wait_ms"] == 0.0
        assert stat["counters"]["aes.blocks_keystream"] > 0


class TestQueueSemantics:
    def test_priority_orders_ingested_jobs(self, endpoint):
        # Ingest-only mode: nothing runs, so the persisted queue order
        # is exactly the (priority, submission) order a worker would see.
        config = ServiceConfig(key=KEY, workers=0)
        with serve(config, endpoint) as service:
            with ServiceClient(endpoint[0]) as client:
                low = client.submit(small_field(0), priority=200,
                                    detached=True)
                high = client.submit(small_field(1), priority=1,
                                     detached=True)
                mid = client.submit(small_field(2), priority=50,
                                    detached=True)
            order = [job.job_id for job in service.store.queued_jobs()]
        assert order == [high, mid, low]

    def test_queue_full(self, endpoint):
        config = ServiceConfig(key=KEY, workers=0, queue_limit=2)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                client.submit(small_field(0), detached=True)
                client.submit(small_field(1), detached=True)
                with pytest.raises(ServiceError) as exc:
                    client.submit(small_field(2), detached=True)
        assert exc.value.code == protocol.ERR_QUEUE_FULL

    def test_fetch_before_done_and_cancel(self, endpoint):
        config = ServiceConfig(key=KEY, workers=0)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                job_id = client.submit(small_field(), detached=True)
                assert client.status(job_id) == "queued"
                with pytest.raises(JobPending):
                    client.fetch(job_id)
                client.cancel(job_id)
                assert client.status(job_id) == "cancelled"
                with pytest.raises(ServiceError) as exc:
                    client.fetch(job_id)
                assert exc.value.code == protocol.ERR_CANCELLED
                # A second cancel is an error: the job is terminal.
                with pytest.raises(ServiceError) as exc:
                    client.cancel(job_id)
                assert exc.value.code == protocol.ERR_UNCANCELLABLE

    def test_job_timeout_fails_job(self, endpoint):
        config = ServiceConfig(key=KEY, workers=1, job_timeout=1e-4)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                job_id = client.submit(small_field(side=16), detached=True)
                with pytest.raises(ServiceError) as exc:
                    client.wait(job_id)
                assert exc.value.code == protocol.ERR_JOB_FAILED
                assert "timed out" in str(exc.value)
                stat = client.stat()
        assert stat["counters"]["service.jobs_failed"] == 1


class TestOneJobPerCall:
    """An ingest-only daemon queues the jobs, then a one-worker daemon
    resumes the same store, so every job is queued when the worker
    starts and a worker that grouped queued jobs would group these."""

    @staticmethod
    def _ingest(endpoint, submissions):
        with serve(ServiceConfig(key=KEY, workers=0), endpoint):
            with ServiceClient(endpoint[0]) as client:
                return [client.submit(field, eb=eb, detached=True)
                        for field, eb in submissions]

    def test_bad_field_fails_only_its_own_job(self, endpoint, smooth_field):
        # A NaN is a valid SECP payload that the compressor refuses.
        bad = small_field()
        bad[1, 2, 3] = np.nan
        bad_id, good_id = self._ingest(
            endpoint, [(bad, 1e-3), (smooth_field, 1e-3)]
        )
        with serve(ServiceConfig(key=KEY, workers=1), endpoint):
            with ServiceClient(endpoint[0]) as client:
                with pytest.raises(ServiceError) as exc:
                    client.wait(bad_id)
                container = client.wait(good_id)
                stat = client.stat()
        assert exc.value.code == protocol.ERR_JOB_FAILED
        assert "non-finite" in str(exc.value)
        assert stat["counters"]["service.jobs_failed"] == 1
        restored = SecureCompressor(key=KEY, error_bound=1e-3).decompress(
            container
        )
        assert np.abs(restored - smooth_field).max() <= 1e-3

    def test_same_priority_jobs_start_in_submission_order(self, endpoint):
        ebs = (1e-3, 1e-4, 1e-3, 1e-5)
        job_ids = self._ingest(
            endpoint, [(small_field(i), eb) for i, eb in enumerate(ebs)]
        )
        with serve(ServiceConfig(key=KEY, workers=1), endpoint) as service:
            with ServiceClient(endpoint[0]) as client:
                for job_id in job_ids:
                    client.wait(job_id)
            started = [service.jobs[job_id].started_at for job_id in job_ids]
        # One worker runs one job at a time: each start is strictly
        # after the one submitted before it.
        assert all(a < b for a, b in zip(started, started[1:])), started


class TestProtocolErrors:
    def test_unknown_job(self, endpoint):
        config = ServiceConfig(key=KEY)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                with pytest.raises(ServiceError) as exc:
                    client.status(b"\xff" * 8)
        assert exc.value.code == protocol.ERR_UNKNOWN_JOB

    def test_unknown_scheme_id(self, endpoint):
        config = ServiceConfig(key=KEY)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                with pytest.raises(ServiceError) as exc:
                    client.submit(small_field(), scheme_id=42)
        assert exc.value.code == protocol.ERR_PAYLOAD

    def test_bad_magic_closes_connection(self, endpoint):
        config = ServiceConfig(key=KEY)
        with serve(config, endpoint):
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(10)
            raw.connect(endpoint[0])
            try:
                raw.sendall(b"X" * 20)
                frame = protocol.recv_frame_blocking(raw)
                assert frame.status == protocol.ERR_MAGIC
                # The server hangs up after a framing error.
                assert raw.recv(1) == b""
            finally:
                raw.close()

    def test_payload_above_server_limit(self, endpoint):
        config = ServiceConfig(key=KEY, max_payload=1024, workers=0)
        with serve(config, endpoint):
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(10)
            raw.connect(endpoint[0])
            try:
                header = protocol.FRAME_HEADER.pack(
                    protocol.PROTOCOL_MAGIC, protocol.PROTOCOL_VERSION,
                    protocol.VERB_SUBMIT, 0, b"\x00" * 8, 4096,
                )
                raw.sendall(header)
                frame = protocol.recv_frame_blocking(raw)
                assert frame.status == protocol.ERR_TOO_LARGE
            finally:
                raw.close()

    def test_stat_schema(self, endpoint):
        config = ServiceConfig(key=KEY)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                stat = client.stat()
        assert stat["schema"] == "secp-stat/1"
        assert set(stat["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }
        assert stat["codec_cache"]["capacity"] > 0


class TestConfigValidation:
    def test_key_required_for_keyed_scheme(self, endpoint):
        from repro.service import CompressionService

        with pytest.raises(ValueError, match="requires"):
            CompressionService(ServiceConfig(key=None), endpoint[1])

    def test_seeded_ctr_refused_at_startup(self, endpoint):
        # Refused when the daemon is built, not in every job; a refused
        # policy leaves no job store behind.
        from pathlib import Path

        from repro.service import CompressionService

        config = ServiceConfig(key=KEY, cipher_mode="ctr", seed=1)
        with pytest.raises(ValueError, match="nonce"):
            CompressionService(config, endpoint[1])
        assert not Path(endpoint[1]).exists()

    def test_unknown_cipher_mode_refused_at_startup(self, endpoint):
        # The library API takes any string; the pool's Sealer refuses
        # it when the daemon is built, before a job store exists.
        from pathlib import Path

        from repro.service import CompressionService

        config = ServiceConfig(key=KEY, cipher_mode="gcm")
        with pytest.raises(ValueError, match="unknown cipher mode"):
            CompressionService(config, endpoint[1])
        assert not Path(endpoint[1]).exists()

    def test_keyless_scheme_allowed(self, endpoint, smooth_field):
        config = ServiceConfig(scheme="none", key=None)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                container = client.wait(client.submit(smooth_field))
        sc = SecureCompressor(scheme="none", error_bound=1e-3)
        assert np.abs(sc.decompress(container) - smooth_field).max() <= 1e-3

    def test_keyed_override_on_keyless_server_rejected(
        self, endpoint, smooth_field
    ):
        config = ServiceConfig(scheme="none", key=None)
        with serve(config, endpoint):
            with ServiceClient(endpoint[0]) as client:
                with pytest.raises(ServiceError) as exc:
                    client.submit(smooth_field, scheme_id=3)
        assert exc.value.code == protocol.ERR_PAYLOAD
