"""Versioned, checksummed on-disk table files.

``csmverify table`` writes the CSM table here as its checksummed export;
no verification run reads a table back.  Payloads are canonical JSON
(sorted keys, fixed separators) wrapped in an envelope carrying the format
version and a sha256 checksum.  Files under the size threshold are stored
as plain JSON; larger ones switch to a length-prefixed binary container
with a zlib-compressed JSON body.  On reading a file back, a version
mismatch reads as absent, and a checksum or container failure raises
CacheCorrupt.  Files are written to a temporary name in the same directory
and renamed into place, so a writer that dies midway leaves the previous
file intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from pathlib import Path

from .errors import CacheCorrupt

FORMAT_VERSION = 1
PLAIN_JSON_LIMIT = 10 * 1024 * 1024
_MAGIC = b"CSMV"

ENV_CACHE_DIR = "CSMVERIFY_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "csmverify"


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def payload_checksum(payload: dict) -> str:
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


class TableCache:
    """One directory of cached tables, keyed by (series, rank, kind)."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, series: str, rank: int, kind: str) -> Path:
        return self.root / f"{series}{rank}" / f"{kind}-v{FORMAT_VERSION}"

    def store(self, series: str, rank: int, kind: str, payload: dict,
              checksum: str | None = None) -> Path:
        """Write the payload under its checksum, computed here unless the
        caller already has it; returns the file path actually written."""
        envelope = {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "series": series,
            "rank": rank,
            "checksum": checksum or payload_checksum(payload),
            "payload": payload,
        }
        data = canonical_json_bytes(envelope)
        base = self._path(series, rank, kind)
        base.parent.mkdir(parents=True, exist_ok=True)
        json_path = base.with_suffix(".json")
        bin_path = base.with_suffix(".bin")
        if len(data) <= PLAIN_JSON_LIMIT:
            path, other, parts = json_path, bin_path, (data,)
        else:
            path, other, parts = bin_path, json_path, _container(zlib.compress(data, 6))
        # one temporary name per process: concurrent writers never share one
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                for part in parts:
                    fh.write(part)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        other.unlink(missing_ok=True)
        return path

    def load(self, series: str, rank: int, kind: str) -> dict | None:
        """Payload, or None when absent or written by another format
        version.  Raises CacheCorrupt on a checksum or container failure."""
        base = self._path(series, rank, kind)
        json_path = base.with_suffix(".json")
        bin_path = base.with_suffix(".bin")
        if json_path.exists():
            data = json_path.read_bytes()
        elif bin_path.exists():
            raw = bin_path.read_bytes()
            if raw[:4] != _MAGIC:
                raise CacheCorrupt(f"{bin_path}: bad magic")
            if len(raw) < 16:
                raise CacheCorrupt(f"{bin_path}: truncated header")
            (version,) = struct.unpack("<I", raw[4:8])
            if version != FORMAT_VERSION:
                return None
            (length,) = struct.unpack("<Q", raw[8:16])
            body = raw[16:16 + length]
            if len(body) != length:
                raise CacheCorrupt(f"{bin_path}: truncated body")
            try:
                data = zlib.decompress(body)
            except zlib.error as exc:
                raise CacheCorrupt(f"{bin_path}: {exc}") from exc
        else:
            return None
        try:
            envelope = json.loads(data)
        except json.JSONDecodeError as exc:
            raise CacheCorrupt(f"{base}: not valid JSON") from exc
        if envelope.get("format_version") != FORMAT_VERSION:
            return None
        payload = envelope.get("payload")
        if payload is None or payload_checksum(payload) != envelope.get("checksum"):
            raise CacheCorrupt(f"{base}: checksum mismatch")
        return payload


def _container(body: bytes):
    """The binary container, piece by piece: magic, version, length, body."""
    yield _MAGIC
    yield struct.pack("<I", FORMAT_VERSION)
    yield struct.pack("<Q", len(body))
    yield body
