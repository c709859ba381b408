"""Bit-exact binary capture container.

Layout (all little-endian regardless of host):

    bytes 0..3   magic "A2GS"
    bytes 4..7   uint32 format version (currently 1)
    bytes 8..11  uint32 header JSON length L
    bytes 12..   L bytes of UTF-8 JSON header
    then         payload: snapshots in time order, port-major, tones
                 innermost, each complex value a numpy "<c8" (two
                 IEEE-754 float32: real, imaginary)

The header carries the record type (MEAS, B2B or CAL for calibrated
responses), config and geometry hashes, counts, the tone plan and the
per-snapshot metadata. Payload length is snapshots*ports*tones*8 bytes.
"""

import json
import os
import struct
import warnings

import numpy as np

from .capture_sim import CaptureRecord
from .config import (DEFAULTS, SCHEMA, SchemaError, _integer, _merge, _number,
                     _one_of, _section, _text, _vector)
from .waveform import TonePlan

MAGIC = b"A2GS"
FORMAT_VERSION = 1
RECORD_TYPES = ("MEAS", "B2B", "CAL")


class CaptureFileError(ValueError):
    """Malformed capture file (magic, version, header, truncation)."""


class HashMismatch(CaptureFileError):
    """Embedded provenance hash does not match the expected one."""


def write_capture(path, records, config_hash="", geometry_hash="", record_type=None):
    """Write CaptureRecords to ``path``; ``record_type`` None takes the
    first record's.

    All records must share dimensions and tone plan. Complex samples are
    quantized to float32 pairs; a second write of the read-back file is
    byte-identical.
    """
    if not records:
        raise ValueError("no records to write")
    first = records[0]
    if record_type is None:
        record_type = first.record_type
    if record_type not in RECORD_TYPES:
        raise ValueError(f"record_type must be one of {RECORD_TYPES}")

    shape = first.h_f.shape
    for i, r in enumerate(records):
        if r.h_f.shape != shape:
            raise ValueError(f"record {i} shape {r.h_f.shape} differs from {shape}")

    header = {
        "record_type": record_type,
        "config_hash": config_hash,
        "geometry_hash": geometry_hash,
        "snapshot_count": len(records),
        "port_count": int(shape[0]),
        "tone_count": int(shape[1]),
        "tone_plan": first.tone_plan.to_dict(),
        "timestamps": [float(r.timestamp) for r in records],
        "tx_positions": [np.asarray(r.tx_position, dtype=float).tolist() for r in records],
        "tx_tilts": [np.asarray(r.tx_tilt, dtype=float).tolist() for r in records],
        "snapshot_indices": [int(r.snapshot_index) for r in records],
        "snr_db": first.snr_db,
        "seed": int(first.seed),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for r in records:
            fh.write(r.h_f.astype("<c8").tobytes())


def _tone_plan(value, path):
    """Rule: a tone plan object, checked by the scenario's tone_plan rules."""
    plan = _merge(DEFAULTS["tone_plan"], value, path)
    return _section(SCHEMA["tone_plan"], plan, path, TonePlan)


# Rule of every header field, from the scenario rules; each list of
# _PER_SNAPSHOT holds one element per snapshot.
_HEADER = {
    "record_type": _one_of(*RECORD_TYPES),
    "config_hash": _text,
    "geometry_hash": _text,
    "snapshot_count": _integer(minimum=1),
    "port_count": _integer(minimum=1),
    "tone_count": _integer(minimum=0),
    "tone_plan": _tone_plan,
    "snr_db": _number(nullable=True),
    "seed": _integer(),
}
_PER_SNAPSHOT = {
    "timestamps": _number(),
    "tx_positions": _vector(3),
    "tx_tilts": _vector(2),
    "snapshot_indices": _integer(minimum=0),
}


def _parse_header(blob):
    """Decode the JSON header and check the fields read_capture relies on.

    Returns (header, TonePlan of the header's tone plan).
    """
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # undecodable bytes, bad JSON, an oversized integer
        raise CaptureFileError(f"header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CaptureFileError("header is not a JSON object")
    missing = [key for key in (*_HEADER, *_PER_SNAPSHOT) if key not in header]
    if missing:
        raise CaptureFileError(f"header lacks {missing}")
    try:
        checked = {key: rule(header[key], key) for key, rule in _HEADER.items()}
        for key, rule in _PER_SNAPSHOT.items():
            _vector(header["snapshot_count"], rule)(header[key], key)
    except SchemaError as exc:
        raise CaptureFileError(f"header {exc}") from exc
    plan = checked["tone_plan"]
    if plan.tone_count != header["tone_count"]:
        raise CaptureFileError(f"header tone_plan has {plan.tone_count} tones, "
                               f"tone_count is {header['tone_count']}")
    return header, plan


def read_capture(path, expected_config_hash=None, strict_hash=False):
    """Read a capture file back into CaptureRecords.

    Returns (records, header). A config-hash mismatch against
    ``expected_config_hash`` warns by default and raises with
    ``strict_hash``. Every record carries the header's record_type
    (MEAS, B2B or CAL).
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CaptureFileError(f"bad magic {magic!r}, expected {MAGIC!r}")
        raw = fh.read(8)
        if len(raw) < 8:
            raise CaptureFileError("truncated header")
        version, hlen = struct.unpack("<II", raw)
        if version != FORMAT_VERSION:
            raise CaptureFileError(f"unsupported format version {version}")
        blob = fh.read(hlen)
        if len(blob) < hlen:
            raise CaptureFileError("truncated header JSON")
        header, plan = _parse_header(blob)

        snapshots = header["snapshot_count"]
        ports = header["port_count"]
        tones = header["tone_count"]
        expected = snapshots * ports * tones * 8
        # sized from the file, so a corrupt count cannot trigger a huge read
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < expected:
            raise CaptureFileError(
                f"truncated payload: expected {expected} bytes, got {available}")
        if available > expected:
            raise CaptureFileError("trailing bytes after payload")
        payload = fh.read(expected)

    if expected_config_hash is not None and header["config_hash"] != expected_config_hash:
        message = (f"config hash mismatch: file has {header['config_hash'][:12]}..., "
                   f"expected {expected_config_hash[:12]}...")
        if strict_hash:
            raise HashMismatch(message)
        warnings.warn(message)

    data = np.frombuffer(payload, "<c8").astype(np.complex128)
    data = data.reshape(snapshots, ports, tones)

    records = []
    for s in range(snapshots):
        records.append(CaptureRecord(
            h_f=data[s],
            tone_plan=plan,
            timestamp=header["timestamps"][s],
            tx_position=np.array(header["tx_positions"][s]),
            tx_tilt=np.array(header["tx_tilts"][s]),
            snr_db=header["snr_db"],
            seed=header["seed"],
            snapshot_index=header["snapshot_indices"][s],
            record_type=header["record_type"],
        ))
    return records, header
