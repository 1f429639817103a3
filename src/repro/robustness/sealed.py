"""Sealed JSONL logs: canonical JSON plus a mandatory CRC-32 per line.

Every durable log in the package (the campaign, reduction and dedup
journals, the service store's ``meta.jsonl`` and ``result.json``) is a
record schema over one :class:`SealedLog`, which owns the crash rules
they share: a line is a record only once its ``\\n`` has landed, and the
next append truncates a torn tail in place (found by reading the last
byte), so a log that catches up after a crash is byte-identical to one
never interrupted; an optional header binds the file to one input; and
whole-file replacement is one atomic rewrite.  What a schema trusts of the
lines it reads is the schema's business.  The module is stdlib-only, so
any layer can import it without pulling in :mod:`repro.core`; callers hand
it their :class:`~repro.robustness.chaos.FileOps`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any


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


class SealedLog:
    """An append-only file of sealed records over a ``FileOps`` seam."""

    def __init__(self, path: Path | str, fileops: Any) -> None:
        self.path = Path(path)
        self.fileops = fileops

    def append(self, record: dict) -> None:
        """Seal, write and fsync one record, first cutting a torn tail."""
        line = seal_record(record)
        fileops = self.fileops
        with fileops.open(self.path, "a+b") as handle:
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.seek(0)
                    handle.truncate(handle.read().rfind(b"\n") + 1)
            fileops.write(handle, line)
            fileops.fsync(handle)

    def read(self) -> list[dict | None]:
        """One verified record — ``None`` if corrupt — per complete line;
        a torn tail is not a line.  A missing file reads as empty."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        lines = data.decode("utf-8", errors="replace").split("\n")
        return [parse_record(line) for line in lines[:-1]]

    def bind(
        self, header: dict, *, resume: bool, mismatch: str
    ) -> list[dict | None]:
        """Open a log bound to *header*; returns the lines after it.

        With ``resume=True`` an existing file whose first line is a
        header must equal *header* (else ``ValueError(mismatch)``: its
        records answer for some other input) and its later lines are
        returned.  A fresh run, a missing file, or one whose first line
        is not a verified header restarts the log with just *header*.
        """
        if resume:
            records = self.read()
            first = records[0] if records else None
            if first is not None and first.get("header"):
                if first != header:
                    raise ValueError(mismatch)
                return records[1:]
        fileops = self.fileops
        with fileops.open(self.path, "wb") as handle:
            fileops.write(handle, seal_record(header))
            fileops.fsync(handle)
        return []

    def truncate_lines(self, lines: int) -> None:
        """Keep only the first *lines* complete lines (cutting any torn
        tail too); a no-op when the file already ends there."""
        data = self.path.read_bytes()
        cut = 0
        for _ in range(lines):
            cut = data.index(b"\n", cut) + 1
        if cut < len(data):
            fileops = self.fileops
            with fileops.open(self.path, "r+b") as handle:
                handle.truncate(cut)
                fileops.fsync(handle)

    def rewrite(self, records: list[dict]) -> None:
        """Atomically replace the file with *records*: a ``.tmp`` sibling,
        fsync, ``replace``, directory fsync.  A crash at any byte leaves
        the old file or the new one; a torn tmp is never read."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        fileops = self.fileops
        with fileops.open(tmp, "wb") as handle:
            for record in records:
                fileops.write(handle, seal_record(record))
            fileops.fsync(handle)
        fileops.replace(tmp, self.path)
        fileops.fsync_dir(self.path.parent)
