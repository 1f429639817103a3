"""Sealed JSONL records: canonical JSON plus a mandatory CRC-32.

Every durable log in the package (campaign, reduction and dedup journals,
the service store) writes its lines through :func:`seal_record` and reads
them back through :func:`parse_record`.  The module depends on the
standard library only, so any layer can import it without pulling in
:mod:`repro.core` (which itself imports the dedup journal).
"""

from __future__ import annotations

import json
import zlib


def seal_record(record: dict) -> bytes:
    """One journal line for *record*: canonical JSON plus a ``crc`` field.

    The CRC-32 covers the canonical (sorted-keys) JSON of the record
    *without* the ``crc`` field, so a loader can recompute it from the
    parsed payload.  Torn trailing lines were always caught by the JSON
    parser; the checksum extends that to *interior* corruption — a flipped
    byte that still happens to parse (``"seed": 3`` -> ``"seed": 7``) now
    fails verification instead of silently resurfacing as a wrong record.
    """
    body = json.dumps(record, sort_keys=True)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return (
        json.dumps({**record, "crc": crc}, sort_keys=True).encode("utf-8")
        + b"\n"
    )


def parse_record(line: str) -> dict | None:
    """Parse and verify one journal line; ``None`` for anything corrupt.

    The checksum is *mandatory*: a record without a valid ``crc`` is
    rejected, because treating crc-less lines as legacy would let a single
    flipped byte in the ``"crc"`` key itself silently disarm verification
    (the corruption fuzz tests construct exactly that line).  Journals
    written before checksumming simply re-run their seeds.  The returned
    dict never contains the ``crc`` field.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None  # truncated by a mid-write kill, or garbage
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    body = json.dumps(record, sort_keys=True)
    if crc != zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF:
        return None  # interior corruption (or a pre-checksum record)
    return record
