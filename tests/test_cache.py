"""Cache subsystem: atomicity, corruption recovery, locking, CLI."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.cache import (
    ArtifactCache,
    CacheEntryError,
    CacheStats,
    FileLock,
    atomic_write_bytes,
    fingerprint_payload,
    is_temp_file,
)
from repro.cache.cli import main as cache_cli
from repro.csr import load_npz, save_npz
from repro.csr.build import from_edge_list


def small_graph(n=30, seed=0):
    rng = np.random.default_rng(seed)
    src = np.arange(n)
    dst = (src + 1) % n
    ex = rng.integers(0, n, size=(n, 2))
    return from_edge_list(
        n, np.concatenate([src, ex[:, 0]]), np.concatenate([dst, ex[:, 1]]),
        name="cached",
    )


FP = fingerprint_payload({"test": 1})

REPO_ROOT = Path(__file__).resolve().parents[1]


def get(cache: ArtifactCache, key="g", fp=FP, generated=None):
    def generate():
        if generated is not None:
            generated.append(1)
        return small_graph()

    return cache.get_or_create(key, fp, generate, save_npz, load_npz)


class TestAtomic:
    def test_write_replaces_atomically(self, tmp_path):
        p = tmp_path / "x.bin"
        atomic_write_bytes(p, b"one")
        atomic_write_bytes(p, b"two")
        assert p.read_bytes() == b"two"
        assert list(tmp_path.iterdir()) == [p]  # no temp litter

    def test_failed_write_leaves_destination_intact(self, tmp_path):
        p = tmp_path / "x.bin"
        atomic_write_bytes(p, b"good")

        def boom(f):
            f.write(b"partial")
            raise RuntimeError("disk on fire")

        from repro.cache import atomic_write

        with pytest.raises(RuntimeError):
            atomic_write(p, boom)
        assert p.read_bytes() == b"good"
        assert list(tmp_path.iterdir()) == [p]

    def test_temp_marker_detection(self, tmp_path):
        assert is_temp_file("g.npz.tmp-abc123~")
        assert not is_temp_file("g.npz")


class TestFingerprint:
    def test_stable_and_param_sensitive(self):
        assert fingerprint_payload({"a": 1}) == fingerprint_payload({"a": 1})
        assert fingerprint_payload({"a": 1}) != fingerprint_payload({"a": 2})

    def test_corpus_fingerprint_tracks_factory_source(self):
        from repro.generators import corpus

        spec = corpus.CORPUS[0]
        fp0 = corpus._fingerprint(spec, 0)
        assert fp0 == corpus._fingerprint(spec, 0)
        assert fp0 != corpus._fingerprint(spec, 1)
        assert fp0 != corpus._fingerprint(corpus.CORPUS[1], 0)


class TestGetOrCreate:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []
        g1 = get(cache, generated=calls)
        g2 = get(cache, generated=calls)
        assert len(calls) == 1
        assert np.array_equal(g1.adjncy, g2.adjncy)
        s = cache.stats()
        assert (s.misses, s.hits, s.regenerations) == (1, 1, 0)
        assert s.bytes_written > 0 and s.generation_seconds > 0

    def test_truncated_entry_quarantined_and_regenerated(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        get(cache)
        data = cache.data_path("g")
        data.write_bytes(data.read_bytes()[:40])
        calls = []
        g = get(cache, generated=calls)
        assert len(calls) == 1
        assert g.n == 30
        s = cache.stats()
        assert s.corruptions == 1 and s.regenerations == 1 and s.quarantines >= 1
        assert list(cache.quarantine_dir().iterdir())
        # healed entry is fully valid again
        assert not [f for f in cache.verify({"g": FP}) if f["state"] != "ok"]

    def test_bitflip_detected_by_checksum(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        get(cache)
        data = cache.data_path("g")
        raw = bytearray(data.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        data.write_bytes(bytes(raw))
        with pytest.raises(CacheEntryError, match="checksum"):
            cache.validate("g", FP)
        calls = []
        get(cache, generated=calls)
        assert len(calls) == 1
        assert cache.stats().corruptions == 1

    def test_missing_sidecar_regenerates(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        get(cache)
        cache.meta_path("g").unlink()
        calls = []
        get(cache, generated=calls)
        assert len(calls) == 1

    def test_stale_fingerprint_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        get(cache, fp="a" * 16)
        calls = []
        get(cache, fp="b" * 16, generated=calls)
        assert len(calls) == 1
        s = cache.stats()
        assert s.stale == 1 and s.regenerations == 1


class TestVerifyGcClear:
    def test_verify_flags_legacy_and_temp(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        get(cache)
        (tmp_path / "old-v2.npz").write_bytes(b"junk")
        (tmp_path / "g.npz.tmp-dead~").write_bytes(b"halfwrite")
        states = {f["key"]: f["state"] for f in cache.verify()}
        assert states["g"] == "ok"
        assert states["old-v2.npz"] == "legacy"
        assert states["g.npz.tmp-dead~"] == "temp"
        cache.heal()
        states = {f["key"]: f["state"] for f in cache.verify()}
        assert states == {"g": "ok"}

    def test_gc_evicts_oldest_to_cap(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(4):
            get(cache, key=f"g{i}")
        sizes = {m["key"]: m["size"] for m in cache.entries()}
        cap = sizes["g2"] + sizes["g3"] + 1
        evicted = cache.gc(cap)
        assert evicted == ["g0", "g1"]
        assert not cache.data_path("g0").exists()
        assert cache.data_path("g3").exists()
        assert cache.stats().evictions == 2

    def test_clear_empties_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        get(cache)
        assert cache.clear() > 0
        assert cache.status()["entries"] == 0


class TestCLI:
    def test_status_json(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path)
        get(cache)
        rc = cache_cli(["--dir", str(tmp_path), "--json", "status"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["counters"]["misses"] == 1

    def test_verify_exit_codes_and_heal(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path)
        get(cache)
        assert cache_cli(["--dir", str(tmp_path), "verify", "--no-fingerprints"]) == 0
        cache.data_path("g").write_bytes(b"scrambled")
        assert cache_cli(["--dir", str(tmp_path), "verify", "--no-fingerprints"]) == 1
        assert cache_cli(
            ["--dir", str(tmp_path), "verify", "--no-fingerprints", "--heal"]
        ) == 0
        capsys.readouterr()
        assert cache_cli(["--dir", str(tmp_path), "verify", "--no-fingerprints"]) == 0

    def test_fingerprint_is_stable(self, capsys):
        assert cache_cli(["fingerprint"]) == 0
        first = capsys.readouterr().out.strip()
        assert cache_cli(["fingerprint"]) == 0
        second = capsys.readouterr().out.strip()
        assert first == second and len(first) == 16

    def test_gc_and_clear(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path)
        for i in range(3):
            get(cache, key=f"g{i}")
        assert cache_cli(["--dir", str(tmp_path), "gc", "--max-bytes", "1"]) == 0
        assert cache.status()["entries"] == 0
        assert cache_cli(["--dir", str(tmp_path), "clear"]) == 0


WORKER = textwrap.dedent(
    """
    import sys, time
    from pathlib import Path
    from repro.cache import ArtifactCache
    from repro.csr import load_npz, save_npz
    from repro.csr.build import from_edge_list
    import numpy as np

    root, sentinel = Path(sys.argv[1]), Path(sys.argv[2])

    def generate():
        with open(sentinel, "a") as f:
            f.write("gen\\n")
        time.sleep(0.4)  # widen the race window
        src = np.arange(50); dst = (src + 1) % 50
        return from_edge_list(50, src, dst, name="conc")

    g = ArtifactCache(root).get_or_create(
        "conc", "f" * 16, generate, save_npz, load_npz)
    assert g.n == 50 and g.m == 50
    print("ok")
    """
)


class TestConcurrency:
    def test_two_processes_one_generation(self, tmp_path):
        """Both workers get valid graphs; the lock admits one generator."""
        script = tmp_path / "worker.py"
        script.write_text(WORKER)
        sentinel = tmp_path / "gens.log"
        env = dict(os.environ, PYTHONPATH="src")
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(tmp_path / "cache"), str(sentinel)],
                env=env, cwd="/root/repo",
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        assert all("ok" in out for out, _ in outs)
        assert sentinel.read_text().count("gen") == 1
        stats = ArtifactCache(tmp_path / "cache").stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_lock_is_exclusive(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            assert lock.held
        assert not lock.held


KILLER = textwrap.dedent(
    """
    import os, signal, sys
    from pathlib import Path
    from repro.cache import ArtifactCache
    from repro.csr import load_npz
    from repro.csr.build import from_edge_list
    import numpy as np

    root = Path(sys.argv[1])

    def generate():
        src = np.arange(40); dst = (src + 1) % 40
        return from_edge_list(40, src, dst, name="killed")

    def save_then_die(g, path):
        # simulate kill -9 landing mid-write: bytes are on their way to a
        # temp file when the process dies, so os.replace never runs
        tmp = Path(str(path) + ".tmp-killer~")
        tmp.write_bytes(b"x" * 4096)
        os.kill(os.getpid(), signal.SIGKILL)

    ArtifactCache(root).get_or_create(
        "killed", "a" * 16, generate, save_then_die, load_npz)
    """
)


class TestCrashSafety:
    def test_sigkill_mid_save_leaves_no_unreadable_entry(self, tmp_path):
        script = tmp_path / "killer.py"
        script.write_text(KILLER)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "cache")],
            env=env, cwd="/root/repo", capture_output=True, timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        cache = ArtifactCache(tmp_path / "cache")
        # nothing at the final path, so nothing unreadable: only the
        # orphaned temp file remains and verify classifies it as such
        assert not cache.data_path("killed").exists()
        findings = cache.verify()
        assert all(f["state"] in ("ok", "temp") for f in findings)
        # and the next reader simply regenerates
        calls = []
        g = cache.get_or_create(
            "killed", "a" * 16,
            lambda: (calls.append(1), small_graph(40))[1],
            save_npz, load_npz,
        )
        assert len(calls) == 1 and g.n == 40
        assert zipfile.is_zipfile(cache.data_path("killed"))

    def test_interrupted_save_npz_preserves_old_file(self, tmp_path, monkeypatch):
        g = small_graph()
        path = tmp_path / "g.npz"
        save_npz(g, path)
        before = path.read_bytes()

        import numpy as np_mod

        def exploding_savez(f, **arrays):
            f.write(b"partial zip bytes")
            raise KeyboardInterrupt  # user ctrl-C mid-write

        monkeypatch.setattr(np_mod, "savez_compressed", exploding_savez)
        with pytest.raises(KeyboardInterrupt):
            save_npz(g, path)
        assert path.read_bytes() == before
        assert load_npz(path).n == g.n


class TestStats:
    def test_ledger_accumulates_across_instances(self, tmp_path):
        a = ArtifactCache(tmp_path)
        get(a)
        b = ArtifactCache(tmp_path)  # fresh handle, same directory
        get(b)
        s = b.stats()
        assert s.misses == 1 and s.hits == 1

    def test_merge(self):
        total = CacheStats(hits=1, generation_seconds=0.5).merge(
            CacheStats(hits=2, misses=1, generation_seconds=0.25)
        )
        assert total.hits == 3 and total.misses == 1
        assert total.generation_seconds == pytest.approx(0.75)

    def test_unknown_counter_keys_ignored(self, tmp_path):
        """A ledger holding a counter this build does not define (e.g.
        ``migrations`` in a cache directory restored from an older run)
        reads without error, and ``cache status`` still exits 0."""
        (tmp_path / "stats.json").write_text(
            json.dumps({"hits": 2, "migrations": 3})
        )
        assert ArtifactCache(tmp_path).stats() == CacheStats(hits=2)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        for flags in ([], ["--json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cache", "--dir", str(tmp_path),
                 *flags, "status"],
                env=env, cwd=REPO_ROOT, capture_output=True, text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
        counters = json.loads(proc.stdout)["counters"]
        assert counters["hits"] == 2 and "migrations" not in counters


class TestQuarantineStamp:
    """pid + per-process-counter stamps: no collisions, never clobber."""

    def _entry(self, cache, name="evidence.npz", body=b"v1"):
        p = cache.root / name
        p.write_bytes(body)
        return p

    def test_same_name_twice_preserves_both(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        a = cache.quarantine(self._entry(cache, body=b"first"))
        b = cache.quarantine(self._entry(cache, body=b"second"))
        assert len(a) == len(b) == 1 and a[0] != b[0]
        assert a[0].read_bytes() == b"first"
        assert b[0].read_bytes() == b"second"
        assert f"-p{os.getpid()}-" in a[0].name

    def test_frozen_clock_still_unique(self, tmp_path, monkeypatch):
        """Same millisecond, same process: the counter disambiguates."""
        from repro.cache import store as cache_store

        monkeypatch.setattr(cache_store.time, "time", lambda: 1234.000)
        cache = ArtifactCache(tmp_path)
        moved = [cache.quarantine(self._entry(cache, body=bytes([i])))[0]
                 for i in range(3)]
        assert len({m.name for m in moved}) == 3
        assert all(m.read_bytes() == bytes([i]) for i, m in enumerate(moved))

    def test_cross_process_same_millisecond(self, tmp_path):
        """Same millisecond, two processes: the pid disambiguates."""
        script = textwrap.dedent("""
            import sys
            from pathlib import Path
            from repro.cache import store
            store.time.time = lambda: 1234.000
            store.itertools = None  # prove seq isn't what saves us
            store._QUARANTINE_SEQ = iter([0])
            cache = store.ArtifactCache(Path(sys.argv[1]))
            p = cache.root / "evidence.npz"
            p.write_bytes(b"x")
            print(cache.quarantine(p)[0].name)
        """)
        names = []
        for _ in range(2):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            out = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                env=env, capture_output=True, timeout=60,
            )
            assert out.returncode == 0, out.stderr.decode()
            names.append(out.stdout.decode().strip())
        assert len(set(names)) == 2  # distinct pids -> distinct stamps
        qdir = tmp_path / "quarantine"
        assert sorted(p.name for p in qdir.iterdir()) == sorted(names)

    def test_fail_closed_when_every_name_taken(self, tmp_path, monkeypatch):
        """A taken destination is never overwritten; exhaustion raises."""
        import itertools

        from repro.cache import store as cache_store

        monkeypatch.setattr(cache_store.time, "time", lambda: 1234.000)
        monkeypatch.setattr(cache_store, "_QUARANTINE_SEQ", itertools.repeat(7))
        cache = ArtifactCache(tmp_path)
        src = self._entry(cache, body=b"new evidence")
        stamp = f"1234000-p{os.getpid()}-7"
        cache.quarantine_dir().mkdir(parents=True, exist_ok=True)
        taken = cache.quarantine_dir() / f"{src.name}.{stamp}.quarantined"
        taken.write_bytes(b"EARLIER EVIDENCE")
        with pytest.raises(CacheEntryError, match="could not quarantine"):
            cache.quarantine(src)
        assert taken.read_bytes() == b"EARLIER EVIDENCE"  # untouched
        assert src.read_bytes() == b"new evidence"  # still in place

    def test_move_no_clobber_unit(self, tmp_path):
        from repro.cache.store import _move_no_clobber

        src = tmp_path / "src"
        dest = tmp_path / "dest"
        src.write_bytes(b"a")
        dest.write_bytes(b"keep")
        assert _move_no_clobber(src, dest) is False
        assert dest.read_bytes() == b"keep" and src.exists()
        fresh = tmp_path / "fresh"
        assert _move_no_clobber(src, fresh) is True
        assert fresh.read_bytes() == b"a" and not src.exists()
