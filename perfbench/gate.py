"""Correctness gate: compare a json-lines record stream with a pinned one.

Records are compared as the bytes ``verify`` wrote, with the timing fields
``elapsed_ms`` (records) and ``elapsed_s`` (summary) removed; everything
else must stay byte-identical.  A pin holds the exit code, the summary
counts, a SHA-256 of the whole stream and a 16-bit CRC of each record, so
that a mismatch can be counted per instance without storing the stream.
A differing record whose CRC happens to match is still caught by the
stream digest and then counts as at least one failed instance.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned"

_ELAPSED = re.compile(rb',"elapsed_(?:ms|s)":[-+.0-9eE]+')


@dataclass(frozen=True)
class Pin:
    exit_code: int
    counts: dict  # instances, passed, failed, errors
    sha256: str
    crcs: array  # one 16-bit CRC per record, in stream order

    @property
    def instances(self) -> int:
        return self.counts["instances"]


def read_stream(path: Path) -> tuple[list[bytes], bytes | None]:
    """The record lines and the summary line (None if absent), without timing fields."""
    lines = _ELAPSED.sub(b"", path.read_bytes()).splitlines()
    summary = lines.pop() if lines and lines[-1].startswith(b'{"summary":') else None
    return lines, summary


def _digest(records: list[bytes], summary: bytes) -> str:
    h = hashlib.sha256()
    for line in (*records, summary):
        h.update(line + b"\n")
    return h.hexdigest()


def _crc(record: bytes) -> int:
    return zlib.crc32(record) & 0xFFFF


def make_pin(path: Path, exit_code: int) -> Pin:
    records, summary = read_stream(path)
    if summary is None:
        raise ValueError(f"{path} has no summary record; refusing to pin it")
    totals = json.loads(summary)["summary"]
    counts = {k: totals[k] for k in ("instances", "passed", "failed", "errors")}
    crcs = array("H", (_crc(r) for r in records))
    return Pin(exit_code, counts, _digest(records, summary), crcs)


def _little_endian(crcs: array) -> array:
    if sys.byteorder == "big":
        crcs.byteswap()
    return crcs


def save_pin(name: str, pin: Pin, argv: list[str], directory: Path = PINNED) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    meta = {"argv": argv, "exit_code": pin.exit_code, **pin.counts, "sha256": pin.sha256}
    (directory / f"{name}.json").write_text(json.dumps(meta, indent=1) + "\n")
    (directory / f"{name}.crc16").write_bytes(_little_endian(array("H", pin.crcs)).tobytes())


def load_pin(name: str, directory: Path = PINNED) -> Pin:
    meta = json.loads((directory / f"{name}.json").read_text())
    crcs = array("H")
    crcs.frombytes((directory / f"{name}.crc16").read_bytes())
    counts = {k: meta[k] for k in ("instances", "passed", "failed", "errors")}
    return Pin(meta["exit_code"], counts, meta["sha256"], _little_endian(crcs))


def check_stream(pin: Pin, path: Path, exit_code: int) -> tuple[int, int]:
    """(pinned instances that came out differently, records written).

    A different exit code or a missing summary fails every instance.
    """
    records, summary = read_stream(path) if path.exists() else ([], None)
    if exit_code != pin.exit_code or summary is None:
        return pin.instances, len(records)
    differing = sum(
        i >= len(records) or _crc(records[i]) != pin.crcs[i] for i in range(len(pin.crcs))
    )
    differing += max(0, len(records) - len(pin.crcs))
    if differing == 0 and _digest(records, summary) != pin.sha256:
        differing = 1
    return min(differing, pin.instances), len(records)
