import json
import os
from pathlib import Path

import pytest

from csmverify.cache import FORMAT_VERSION, TableCache, canonical_json_bytes, payload_checksum
from csmverify.errors import CacheCorrupt


def test_roundtrip(tmp_path):
    cache = TableCache(tmp_path)
    payload = {"entries": {"1|2": {"1.2": 3}}, "n": 7}
    cache.store("A", 2, "structure", payload)
    assert cache.load("A", 2, "structure") == payload
    assert cache.load("A", 2, "missing") is None


def test_byte_identical_rewrites(tmp_path):
    cache = TableCache(tmp_path)
    payload = {"rows": {"": {"1": 1}}}
    p1 = cache.store("B", 2, "csm", payload)
    first = p1.read_bytes()
    p2 = cache.store("B", 2, "csm", payload)
    assert p1 == p2
    assert p2.read_bytes() == first


def test_checksum_mismatch_raises(tmp_path):
    cache = TableCache(tmp_path)
    path = cache.store("A", 1, "structure", {"entries": {}})
    envelope = json.loads(path.read_text())
    envelope["payload"] = {"entries": {"tampered": {}}}
    path.write_text(json.dumps(envelope))
    with pytest.raises(CacheCorrupt):
        cache.load("A", 1, "structure")


def test_version_mismatch_forces_recompute(tmp_path):
    cache = TableCache(tmp_path)
    path = cache.store("A", 1, "csm", {"rows": {}})
    envelope = json.loads(path.read_text())
    envelope["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(envelope))
    assert cache.load("A", 1, "csm") is None


def test_garbage_file_raises(tmp_path):
    cache = TableCache(tmp_path)
    path = cache.store("A", 1, "box", {"entries": {}})
    path.write_text("not json at all")
    with pytest.raises(CacheCorrupt):
        cache.load("A", 1, "box")


@pytest.mark.parametrize("body", ["[]", "5"])
def test_non_object_json_raises(tmp_path, body):
    cache = TableCache(tmp_path)
    path = cache.store("A", 1, "csm", {"rows": {}})
    path.write_text(body)
    with pytest.raises(CacheCorrupt, match="not a JSON object"):
        cache.load("A", 1, "csm")


def test_stored_bytes_are_the_canonical_envelope(tmp_path):
    """The file is the canonical JSON of the envelope, whether store is
    handed the payload's checksum or computes it."""
    payload = {"convention": "c", "rows": {"": {"1": 1}, "1": {"1": 2}}}
    envelope = {"format_version": FORMAT_VERSION, "kind": "csm", "series": "B", "rank": 2,
                "checksum": payload_checksum(payload), "payload": payload}
    for name, checksum in (("own", None), ("given", payload_checksum(payload))):
        path = TableCache(tmp_path / name).store("B", 2, "csm", payload, checksum)
        assert path.read_bytes() == canonical_json_bytes(envelope), name


def test_materialize_checksums_each_payload_once(tmp_path, monkeypatch):
    """The table step hands store the checksum it took: the cache computes
    none of its own."""
    import csmverify.cache as cache_mod
    from csmverify.verify import build_engines, materialize_tables

    def refuse(payload):
        raise AssertionError("payload checksummed twice")

    monkeypatch.setattr(cache_mod, "payload_checksum", refuse)
    cache = TableCache(tmp_path)
    checksums = materialize_tables(build_engines("A", 2), cache=cache)
    monkeypatch.undo()
    assert cache.load("A", 2, "csm") is not None
    assert json.loads(cache._path("A", 2, "csm").read_text())["checksum"] == checksums["csm"]


def test_checksum_is_canonical():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert payload_checksum(a) == payload_checksum(b)
    assert canonical_json_bytes(a) == canonical_json_bytes(b)


def test_failed_write_keeps_old_file(tmp_path, monkeypatch):
    """A store that dies halfway through writing the JSON, or at the rename,
    leaves the old file byte-identical and no temporary file behind."""
    cache = TableCache(tmp_path)
    old = {"entries": {"old": 1}}
    path = cache.store("A", 2, "structure", old)
    before = path.read_bytes()
    new = {"entries": {f"k{i}": i for i in range(50)}}

    def half_write(self, data):
        with open(self, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    def failed_rename(src, dst):
        raise OSError("no space left on device")

    for target, name, failure in ((Path, "write_bytes", half_write),
                                  (os, "replace", failed_rename)):
        monkeypatch.setattr(target, name, failure)
        with pytest.raises(OSError, match="no space"):
            cache.store("A", 2, "structure", new)
        monkeypatch.undo()
        assert path.read_bytes() == before, name
        assert [p.name for p in path.parent.iterdir()] == [path.name], name
        assert cache.load("A", 2, "structure") == old


def _store_after_barrier(root, barrier, payload, times):
    cache = TableCache(root)
    barrier.wait()
    for _ in range(times):
        cache.store("A", 3, "structure", payload)


def test_concurrent_store(tmp_path):
    """Two processes storing the same table into one directory at once
    leave one complete file and no temporary file."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    payload = {"entries": {f"{i}|{i + 1}": {str(i): i} for i in range(2000)}}
    barrier = ctx.Barrier(2)
    writers = [ctx.Process(target=_store_after_barrier, args=(tmp_path, barrier, payload, 20))
               for _ in range(2)]
    for p in writers:
        p.start()
    for p in writers:
        p.join(timeout=60)
    assert [p.exitcode for p in writers] == [0, 0]
    folder = tmp_path / "A3"
    assert not [p.name for p in folder.iterdir() if p.name.endswith(".tmp")]
    path = TableCache(tmp_path)._path("A", 3, "structure").with_suffix(".json")
    assert json.loads(path.read_text())["checksum"] == payload_checksum(payload)
    assert TableCache(tmp_path).load("A", 3, "structure") == payload
