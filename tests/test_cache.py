import json
import os
import tracemalloc

import pytest

from csmverify import cli
from csmverify.cache import (
    FORMAT_VERSION,
    TableCache,
    canonical_json_bytes,
    chunks_checksum,
    csm_chunks,
    payload_checksum,
    structure_chunks,
)
from csmverify.errors import CacheCorrupt
from csmverify.verify import build_engines, materialize_tables
from payload_oracle import csm_payload, envelope, structure_payload


def _chunks(payload: dict, pieces: int = 4) -> list[str]:
    """The canonical JSON text of a dict, cut into a few chunks."""
    text = canonical_json_bytes(payload).decode("utf-8")
    step = -(-len(text) // pieces)
    return [text[i:i + step] for i in range(0, len(text), step)]


def _store(cache: TableCache, series, rank, kind, payload: dict):
    return cache.store(series, rank, kind, _chunks(payload), payload_checksum(payload))


def test_roundtrip(tmp_path):
    cache = TableCache(tmp_path)
    payload = {"entries": {"1|2": {"1.2": 3}}, "n": 7}
    _store(cache, "A", 2, "structure", payload)
    assert cache.load("A", 2, "structure") == payload
    assert cache.load("A", 2, "missing") is None


def test_byte_identical_rewrites(tmp_path):
    cache = TableCache(tmp_path)
    payload = {"rows": {"": {"1": 1}}}
    p1 = _store(cache, "B", 2, "csm", payload)
    first = p1.read_bytes()
    p2 = _store(cache, "B", 2, "csm", payload)
    assert p1 == p2
    assert p2.read_bytes() == first


def test_checksum_mismatch_raises(tmp_path):
    cache = TableCache(tmp_path)
    path = _store(cache, "A", 1, "structure", {"entries": {}})
    envelope = json.loads(path.read_text())
    envelope["payload"] = {"entries": {"tampered": {}}}
    path.write_text(json.dumps(envelope))
    with pytest.raises(CacheCorrupt):
        cache.load("A", 1, "structure")


def test_version_mismatch_forces_recompute(tmp_path):
    cache = TableCache(tmp_path)
    path = _store(cache, "A", 1, "csm", {"rows": {}})
    envelope = json.loads(path.read_text())
    envelope["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(envelope))
    assert cache.load("A", 1, "csm") is None


def test_garbage_file_raises(tmp_path):
    cache = TableCache(tmp_path)
    path = _store(cache, "A", 1, "box", {"entries": {}})
    path.write_text("not json at all")
    with pytest.raises(CacheCorrupt):
        cache.load("A", 1, "box")


@pytest.mark.parametrize("body", ["[]", "5"])
def test_non_object_json_raises(tmp_path, body):
    cache = TableCache(tmp_path)
    path = _store(cache, "A", 1, "csm", {"rows": {}})
    path.write_text(body)
    with pytest.raises(CacheCorrupt, match="not a JSON object"):
        cache.load("A", 1, "csm")


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_encoders_stream_the_oracle_payloads(engines, series, rank):
    """Each encoder's chunks join to the canonical JSON of the oracle's dict,
    byte for byte, and their checksum is the dict's."""
    stack = engines(series, rank)
    for encoder, oracle in ((structure_chunks, structure_payload), (csm_chunks, csm_payload)):
        engine = stack.coh if encoder is structure_chunks else stack.csm
        expected = canonical_json_bytes(oracle(engine))
        assert "".join(encoder(engine)).encode("utf-8") == expected, encoder.__name__
        assert chunks_checksum(encoder(engine)) == payload_checksum(oracle(engine))


@pytest.mark.parametrize("series,rank,first,second", [
    ("A", 2, "2|2.1", "|"),         # the identity row sorts last, not first
    ("A", 2, "1|1.2", "1|2"),       # v by key string, not by index
    ("A", 3, "1.2|1.2", "1|1"),     # "1.2|" before "1|", unlike the word pairs
])
def test_structure_rows_sort_as_key_strings(engines, series, rank, first, second):
    """Rows go in the string order of "key(u)|key(v)", which the order of
    the pairs (key(u), key(v)) and the order by index both break."""
    keys = list(json.loads("".join(structure_chunks(engines(series, rank).coh)))["entries"])
    assert keys.index(first) < keys.index(second)


def test_table_export_is_the_oracle_envelope(engines, tmp_path, capsys):
    """table --cache-dir writes the canonical JSON of the oracle envelope."""
    assert cli.main(["table", "--type", "B", "--rank", "3", "--cache-dir", str(tmp_path)]) == 0
    payload = csm_payload(engines("B", 3).csm)
    assert TableCache(tmp_path)._path("B", 3, "csm").read_bytes() \
        == canonical_json_bytes(envelope("B", 3, "csm", payload))
    assert f"checksum {payload_checksum(payload)}" in capsys.readouterr().out


def test_stored_bytes_are_the_canonical_envelope(engines, tmp_path):
    """The file store streams from an encoder is the canonical JSON of the
    envelope around the oracle's payload."""
    stack = engines("B", 2)
    for kind, encoder, engine, oracle in (("csm", csm_chunks, stack.csm, csm_payload),
                                          ("structure", structure_chunks, stack.coh,
                                           structure_payload)):
        path = TableCache(tmp_path).store("B", 2, kind, encoder(engine),
                                          chunks_checksum(encoder(engine)))
        assert path.read_bytes() == canonical_json_bytes(envelope("B", 2, kind, oracle(engine))), kind


def _count_streams(monkeypatch, *modules) -> list[str]:
    """The names of the encoders the modules stream from, one per stream; a
    dict payload checksummed fails the test."""
    import csmverify.cache as cache_mod

    streams = []

    def counted(encoder):
        def stream(engine):
            streams.append(encoder.__name__)
            return encoder(engine)
        return stream

    def refuse(payload):
        raise AssertionError("dict payload checksummed")

    monkeypatch.setattr(cache_mod, "payload_checksum", refuse)
    for module in modules:
        for encoder in (structure_chunks, csm_chunks):
            if hasattr(module, encoder.__name__):
                monkeypatch.setattr(module, encoder.__name__, counted(encoder))
    return streams


def test_materialize_checksums_each_payload_once(tmp_path, monkeypatch):
    """materialize_tables streams each payload once, for its checksum, and
    writes nothing."""
    import csmverify.verify as verify_mod

    streams = _count_streams(monkeypatch, verify_mod)
    stack = build_engines("A", 2)
    monkeypatch.chdir(tmp_path)
    checksums = materialize_tables(stack)
    assert sorted(streams) == ["csm_chunks", "structure_chunks"]
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    assert checksums == {"structure": payload_checksum(structure_payload(stack.coh)),
                         "csm": payload_checksum(csm_payload(stack.csm))}


def test_table_export_streams_the_csm_payload_twice(tmp_path, monkeypatch, capsys):
    """table --cache-dir streams the CSM payload once for its checksum and
    once more into the export, under the checksum it printed: the cache
    computes none of its own."""
    import csmverify.verify as verify_mod

    streams = _count_streams(monkeypatch, verify_mod, cli)
    assert cli.main(["table", "--type", "A", "--rank", "2", "--cache-dir", str(tmp_path)]) == 0
    assert sorted(streams) == ["csm_chunks", "csm_chunks", "structure_chunks"]
    monkeypatch.undo()
    stack = build_engines("A", 2)
    checksum = payload_checksum(csm_payload(stack.csm))
    assert f"csm table for A2: computed, checksum {checksum}" in capsys.readouterr().out
    cache = TableCache(tmp_path)
    assert cache.load("A", 2, "csm") == csm_payload(stack.csm)
    assert json.loads(cache._path("A", 2, "csm").read_text())["checksum"] == checksum


def test_materialize_holds_no_payload():
    """With both B3 tables built, checksumming them by streaming peaks below
    a quarter of what the dict route takes (deterministic: about 16 KiB
    against 337 KiB)."""
    stack = build_engines("B", 3)
    stack.coh.build_structure_table()
    stack.csm.build_table()
    tracemalloc.start()
    try:
        materialize_tables(stack)
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        payload_checksum(structure_payload(stack.coh))
        payload_checksum(csm_payload(stack.csm))
        built = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed * 4 < built, (streamed, built)


def test_checksum_is_canonical():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert payload_checksum(a) == payload_checksum(b)
    assert canonical_json_bytes(a) == canonical_json_bytes(b)
    assert chunks_checksum(_chunks(a, pieces=3)) == payload_checksum(a)


def test_failed_write_keeps_old_file(tmp_path, monkeypatch):
    """A store whose chunk source dies halfway through, or that fails at the
    rename, leaves the old file byte-identical and no temporary file behind."""
    cache = TableCache(tmp_path)
    old = {"entries": {"old": 1}}
    path = _store(cache, "A", 2, "structure", old)
    before = path.read_bytes()
    new = {"entries": {f"k{i}": i for i in range(50)}}
    chunks = _chunks(new, pieces=10)

    def half_then_fail():
        yield from chunks[: len(chunks) // 2]
        # the temporary file is open and half written when the source dies
        assert [p.name for p in path.parent.iterdir() if p.name.endswith(".tmp")]
        raise OSError("no space left on device")

    def failed_rename(src, dst):
        raise OSError("no space left on device")

    for name, source in (("half write", half_then_fail()), ("rename", chunks)):
        if name == "rename":
            monkeypatch.setattr(os, "replace", failed_rename)
        with pytest.raises(OSError, match="no space"):
            cache.store("A", 2, "structure", source, payload_checksum(new))
        monkeypatch.undo()
        assert path.read_bytes() == before, name
        assert [p.name for p in path.parent.iterdir()] == [path.name], name
        assert cache.load("A", 2, "structure") == old


def _store_after_barrier(root, barrier, coh, checksum, times):
    cache = TableCache(root)
    barrier.wait()
    for _ in range(times):
        cache.store("B", 3, "structure", structure_chunks(coh), checksum)


def test_concurrent_store(tmp_path):
    """Two processes streaming the same table into one directory at once
    leave one complete file and no temporary file."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    coh = build_engines("B", 3).coh
    checksum = chunks_checksum(structure_chunks(coh))
    barrier = ctx.Barrier(2)
    writers = [ctx.Process(target=_store_after_barrier,
                           args=(tmp_path, barrier, coh, checksum, 20))
               for _ in range(2)]
    for p in writers:
        p.start()
    for p in writers:
        p.join(timeout=60)
    assert [p.exitcode for p in writers] == [0, 0]
    folder = tmp_path / "B3"
    assert not [p.name for p in folder.iterdir() if p.name.endswith(".tmp")]
    path = TableCache(tmp_path)._path("B", 3, "structure")
    assert json.loads(path.read_text())["checksum"] == checksum
    assert TableCache(tmp_path).load("B", 3, "structure") == structure_payload(coh)
