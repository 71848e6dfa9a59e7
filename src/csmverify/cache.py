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
of the elements that index it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .csm import CONVENTION
from .errors import CacheCorrupt

FORMAT_VERSION = 1


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def payload_checksum(payload: dict) -> str:
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


def _word_keyed(group, rows: dict[tuple[int, ...], dict[int, int]]) -> dict:
    """Rows and their entries keyed by words, in index order."""
    keys = [".".join(map(str, word)) for word in group._words]
    return {
        "|".join(keys[i] for i in key): {keys[w]: c for w, c in sorted(row.items())}
        for key, row in sorted(rows.items())
    }


def structure_payload(coh) -> dict:
    """The structure table's nonempty rows with u <= v, never written."""
    coh.build_structure_table()
    table, order = coh._table, coh.group.order
    rows = {(ui, vi): table[ui][vi]
            for ui in range(order) for vi in range(ui, order) if table[ui][vi]}
    return {"entries": _word_keyed(coh.group, rows)}


def csm_payload(csm) -> dict:
    """The CSM cell table and its operator order: the CSM export."""
    csm.build_table()
    rows = {(ui,): csm._cells[ui].coeffs for ui in range(csm.group.order)}
    return {"convention": CONVENTION, "rows": _word_keyed(csm.group, rows)}


class TableCache:
    """One directory of table files, keyed by (series, rank, kind)."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, series: str, rank: int, kind: str) -> Path:
        return self.root / f"{series}{rank}" / f"{kind}-v{FORMAT_VERSION}.json"

    def store(self, series: str, rank: int, kind: str, payload: dict,
              checksum: str | None = None) -> Path:
        """Write the payload under its checksum, computed here unless the
        caller already has it; returns the file path written."""
        envelope = {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "series": series,
            "rank": rank,
            "checksum": checksum or payload_checksum(payload),
            "payload": payload,
        }
        path = self._path(series, rank, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        # one temporary name per process: concurrent writers never share one
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(canonical_json_bytes(envelope))
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
