"""Versioned, checksummed table export files.

``csmverify table --cache-dir D`` writes the CSM table here as its
checksummed export, ``D/<series><rank>/csm-v1.json``; no verification run
reads a table back.  The file is the canonical JSON (sorted keys, fixed
separators) of an envelope carrying the format version and a sha256
checksum of the payload.  On reading a file back, a version mismatch reads
as absent, and anything that is not such an envelope, or fails its
checksum, raises CacheCorrupt.  Files are written to a temporary name in
the same directory and renamed into place, so a writer that dies midway
leaves the previous file intact.

Both table payloads, which the checksums are taken over, are encoded here
and only here: an element is keyed by its canonical reduced word, letters
joined by dots (the identity is ``""``), and a row by the ``|``-joined keys
of the elements that index it.  A payload is never built: its encoder
streams the canonical JSON text, in order, as ``str`` chunks of at most a
few rows, and the checksum and the export writer each consume one stream.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

from .csm import CONVENTION
from .errors import CacheCorrupt

FORMAT_VERSION = 1


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json_bytes(obj) -> bytes:
    return _canonical_json(obj).encode("utf-8")


def payload_checksum(payload: dict) -> str:
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


def chunks_checksum(chunks: Iterable[str]) -> str:
    """The sha256 of the text an encoder streams, equal to
    ``payload_checksum`` of the payload it encodes."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


class _WordKeys:
    """Each element's key, its JSON-quoted form and that form as an object
    member's prefix (``"key":``), the elements in key order (the order of
    sort_keys), and each element's place in it."""

    def __init__(self, group):
        keys = [".".join(map(str, word)) for word in group._words]
        self.quoted = [_canonical_json(key) for key in keys]
        self.member = [quoted + ":" for quoted in self.quoted]
        self.order = sorted(range(group.order), key=keys.__getitem__)
        self.rank = [0] * group.order
        for place, idx in enumerate(self.order):
            self.rank[idx] = place
        # a "u|v" key sorts by key(u) + "|" first: "1.2|..." before "1|..."
        self.row_order = sorted(range(group.order), key=lambda idx: keys[idx] + "|")

    def row(self, entries: dict[int, int]) -> str:
        member = self.member
        return "{" + ",".join([member[w] + str(entries[w])
                               for w in sorted(entries, key=self.rank.__getitem__)]) + "}"


def structure_chunks(coh) -> Iterator[str]:
    """The structure table's nonempty rows with u <= v, never written:
    ``{"entries":{"<u>|<v>":{"<w>":c,...},...}}``, one chunk per u."""
    coh.build_structure_table()
    table, keys = coh._table, _WordKeys(coh.group)
    yield '{"entries":{'
    sep = ""
    for ui in keys.row_order:
        row, head = table[ui], keys.quoted[ui][:-1] + "|"
        rows = [f"{head}{keys.quoted[vi][1:]}:{keys.row(row[vi])}"
                for vi in keys.order if vi >= ui and row[vi]]
        if rows:
            yield sep + ",".join(rows)
            sep = ","
    yield "}}"


def csm_chunks(csm) -> Iterator[str]:
    """The CSM cell table and its operator order, the CSM export's payload:
    ``{"convention":...,"rows":{"<u>":{"<w>":c,...},...}}``, one chunk per row."""
    csm.build_table()
    cells, keys = csm._cells, _WordKeys(csm.group)
    yield f'{{"convention":{_canonical_json(CONVENTION)},"rows":{{'
    sep = ""
    for ui in keys.order:
        yield f"{sep}{keys.quoted[ui]}:{keys.row(cells[ui].coeffs)}"
        sep = ","
    yield "}}"


class TableCache:
    """One directory of table files, keyed by (series, rank, kind)."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def folder(self, series: str, rank: int) -> Path:
        return self.root / f"{series}{rank}"

    def _path(self, series: str, rank: int, kind: str) -> Path:
        return self.folder(series, rank) / f"{kind}-v{FORMAT_VERSION}.json"

    def store(self, series: str, rank: int, kind: str, chunks: Iterable[str],
              checksum: str) -> Path:
        """Write the payload an encoder streams, under the checksum the
        caller took of the same stream; returns the file path written."""
        # the envelope's keys in sorted order, the payload streamed between
        head = (f'{{"checksum":{_canonical_json(checksum)},"format_version":{FORMAT_VERSION},'
                f'"kind":{_canonical_json(kind)},"payload":')
        tail = f',"rank":{_canonical_json(rank)},"series":{_canonical_json(series)}}}'
        path = self._path(series, rank, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        # one temporary name per process: concurrent writers never share one
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(head)
                for chunk in chunks:
                    fh.write(chunk)
                fh.write(tail)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def load(self, series: str, rank: int, kind: str) -> dict | None:
        """Payload, or None when absent or written by another format
        version.  Raises CacheCorrupt on anything else that is not a
        checksum-valid envelope."""
        path = self._path(series, rank, kind)
        if not path.exists():
            return None
        try:
            envelope = json.loads(path.read_bytes())
        except json.JSONDecodeError as exc:
            raise CacheCorrupt(f"{path}: not valid JSON") from exc
        if not isinstance(envelope, dict):
            raise CacheCorrupt(f"{path}: not a JSON object")
        if envelope.get("format_version") != FORMAT_VERSION:
            return None
        payload = envelope.get("payload")
        if payload is None or payload_checksum(payload) != envelope.get("checksum"):
            raise CacheCorrupt(f"{path}: checksum mismatch")
        return payload
