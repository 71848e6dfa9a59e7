"""The table payloads built whole, as dicts: the oracle for the streaming
encoders in ``csmverify.cache``.

Each payload is the dict whose canonical JSON (``canonical_json_bytes``)
the matching encoder streams chunk by chunk; the checksum of a table is
``payload_checksum`` of its dict here.  An element is keyed by its
canonical reduced word, letters joined by dots, and a row by the
``|``-joined keys of the elements that index it.
"""

from csmverify.cache import FORMAT_VERSION, payload_checksum
from csmverify.csm import CONVENTION


def _word_keyed(group, rows: dict[tuple[int, ...], dict[int, int]]) -> dict:
    """Rows and their entries keyed by words, in index order."""
    keys = [".".join(map(str, word)) for word in group._words]
    return {
        "|".join(keys[i] for i in key): {keys[w]: c for w, c in sorted(row.items())}
        for key, row in sorted(rows.items())
    }


def structure_payload(coh) -> dict:
    """The structure table's nonempty rows with u <= v."""
    coh.build_structure_table()
    table, order = coh._table, coh.group.order
    rows = {(ui, vi): table[ui][vi]
            for ui in range(order) for vi in range(ui, order) if table[ui][vi]}
    return {"entries": _word_keyed(coh.group, rows)}


def csm_payload(csm) -> dict:
    """The CSM cell table and its operator order: the CSM export's payload."""
    csm.build_table()
    rows = {(ui,): csm._cells[ui].coeffs for ui in range(csm.group.order)}
    return {"convention": CONVENTION, "rows": _word_keyed(csm.group, rows)}


def envelope(series: str, rank: int, kind: str, payload: dict) -> dict:
    """The export file's object around a payload."""
    return {"format_version": FORMAT_VERSION, "kind": kind, "series": series, "rank": rank,
            "checksum": payload_checksum(payload), "payload": payload}
