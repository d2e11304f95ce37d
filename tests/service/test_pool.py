"""The service's compressor pool: one key schedule per scheme."""

import sys
import threading

import numpy as np

from repro.core.pipeline import SecureCompressor
from repro.service.pool import CompressorPool

KEY = bytes(range(16))


def _field(seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.standard_normal((8, 8, 8)).cumsum(axis=0).astype(np.float32)


def _job(pool: CompressorPool, eb: float, seed: int, out: dict) -> None:
    out[seed] = (eb, pool.compress(_field(seed), "encr_huffman", eb))


class TestSharedSealer:
    def test_key_expanded_once_per_scheme(self, monkeypatch):
        """Construction, three jobs at three error bounds on one
        thread, and one job on each of two more threads expand the
        pool's key once."""
        from repro.crypto import aes

        expanded = []
        real = aes.expand_key
        monkeypatch.setattr(
            aes, "expand_key", lambda key: expanded.append(key) or real(key)
        )
        pool = CompressorPool(scheme="encr_huffman", key=KEY,
                              cipher_mode="ctr")
        containers: dict = {}
        for seed, eb in enumerate((1e-2, 1e-3, 1e-4)):
            _job(pool, eb, seed, containers)
        threads = [
            threading.Thread(target=_job,
                             args=(pool, 1e-3, 10 + i, containers))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(expanded) == 1
        assert pool.jobs_compressed == len(containers) == 5
        reader = SecureCompressor(key=KEY)
        for seed, (eb, container) in containers.items():
            restored = reader.decompress(container)
            assert np.max(np.abs(restored - _field(seed))) <= eb

    def test_threads_share_one_compressor_per_bound(self):
        """More threads than cores, switching often, race to build the
        compressors: each (scheme, eb) still gets exactly one, and no
        job is lost from the count."""
        pool = CompressorPool(key=KEY)
        ebs = (1e-2, 1e-3, 1e-4)
        got: list = []
        containers: dict = {}

        def worker(i: int) -> None:
            for eb in ebs[i % 3:] + ebs[: i % 3]:
                got.append((eb, pool.compressor_for("encr_huffman", eb)))
            _job(pool, ebs[i % 3], 20 + i, containers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 18
        for eb in ebs:
            assert {id(sc) for e, sc in got if e == eb} == {
                id(pool.compressor_for("encr_huffman", eb))
            }
        assert pool.jobs_compressed == len(containers) == 6


class TestBatchReuseHits:
    def test_hit_on_another_thread_not_credited(self, monkeypatch):
        """Thread A compresses a cold field and is held just after its
        codec lookup while this thread compresses a warm field: only
        the warm job counts one ``service.batch_reuse_hits``."""
        from repro.core import trace
        from repro.sz import huffman

        pool = CompressorPool(key=KEY)
        huffman.codec_cache_clear()
        _job(pool, 1e-3, 1, {})  # warms the codec of field 1
        looked_up, release = threading.Event(), threading.Event()
        real = huffman.codec_for
        held: list = []

        def codec_for(code):
            codec = real(code)
            if threading.current_thread().name == "cold":
                looked_up.set()
                held.append(release.wait(timeout=60))
            return codec

        monkeypatch.setattr(huffman, "codec_for", codec_for)
        before = trace.counters_snapshot()
        cold = threading.Thread(target=_job, args=(pool, 1e-3, 2, {}),
                                name="cold")
        cold.start()
        try:
            assert looked_up.wait(timeout=60)
            _job(pool, 1e-3, 1, {})
        finally:
            release.set()
            cold.join(timeout=60)
        assert not cold.is_alive() and held == [True]
        after = trace.counters_snapshot()

        def rise(name):
            return after.get(name, 0) - before.get(name, 0)

        assert rise("huffman.codec_cache_misses") == 1
        assert rise("huffman.codec_cache_hits") == 1
        assert rise("service.batch_reuse_hits") == 1
