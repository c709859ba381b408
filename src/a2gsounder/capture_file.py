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

Neither direction holds the series: write_capture writes the header
from a Layout and then every payload byte through one callback, rows,
a positioned write of whole port rows at their own offset, from
whichever thread made them, so a synthesis worker or the B2B series
writes each 16-port block as it is finished and no snapshot is held
whole; read_capture checks the header and size and returns a
CaptureFile that reads a snapshot, or one port's rows, only when asked.
"""

import contextlib
import itertools
import json
import math
import operator
import os
import struct
import threading
import warnings
from collections import deque
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from .capture_sim import CaptureRecord
from .config import (DEFAULTS, SCHEMA, SchemaError, _integer, _merge, _number,
                     _one_of, _section, _text, _vector)
from .waveform import TonePlan

MAGIC = b"A2GS"
FORMAT_VERSION = 1
RECORD_TYPES = ("MEAS", "B2B", "CAL")


class CaptureFileError(ValueError):
    """Malformed capture file (magic, version, header, size, a non-finite sample)."""


class HashMismatch(CaptureFileError):
    """Embedded provenance hash does not match the expected one."""


@dataclass(frozen=True)
class Layout:
    """Every header field but the two hashes: the record type, tone plan
    and port count, the SNR and seed, and per snapshot its timestamp,
    slot-0 TX position, tilt and index.

    A scenario fixes all of them before the first snapshot is computed,
    so write_capture can write the header first and then stream the
    payload.
    """

    record_type: str
    tone_plan: TonePlan
    port_count: int
    timestamps: Sequence
    tx_positions: Sequence
    tx_tilts: Sequence
    snapshot_indices: Sequence
    snr_db: float = None
    seed: int = 0

    @classmethod
    def of(cls, records):
        """The layout of a list of CaptureRecords; tone plan, port count,
        record type, SNR and seed are the first record's."""
        if not records:
            raise ValueError("no records to write")
        first = records[0]
        return cls(first.record_type, first.tone_plan, first.h_f.shape[0],
                   [r.timestamp for r in records], [r.tx_position for r in records],
                   [r.tx_tilt for r in records], [r.snapshot_index for r in records],
                   first.snr_db, first.seed)

    def header(self, config_hash, geometry_hash):
        """This layout's fields and the two hashes: the header object write_capture encodes."""
        return {
            "record_type": self.record_type,
            "config_hash": config_hash,
            "geometry_hash": geometry_hash,
            "snapshot_count": len(self.timestamps),
            "port_count": int(self.port_count),
            "tone_count": int(self.tone_plan.tone_count),
            "tone_plan": asdict(self.tone_plan),
            "timestamps": [float(t) for t in self.timestamps],
            "tx_positions": [_floats(p) for p in self.tx_positions],
            "tx_tilts": [_floats(t) for t in self.tx_tilts],
            "snapshot_indices": [int(i) for i in self.snapshot_indices],
            "snr_db": self.snr_db,
            "seed": int(self.seed),
        }

    def record(self, s, h_f):
        """Snapshot ``s`` as a CaptureRecord carrying ``h_f``."""
        return CaptureRecord(
            h_f=h_f,
            tone_plan=self.tone_plan,
            timestamp=self.timestamps[s],
            tx_position=np.array(self.tx_positions[s]),
            tx_tilt=np.array(self.tx_tilts[s]),
            snr_db=self.snr_db,
            seed=self.seed,
            snapshot_index=self.snapshot_indices[s],
            record_type=self.record_type,
        )


def _floats(vector):
    return np.asarray(vector, dtype=float).tolist()


def _check_record(record, s, layout):
    """ValueError unless ``record`` is snapshot ``s`` of ``layout``, whatever its
    record type."""
    shape = (layout.port_count, layout.tone_plan.tone_count)
    if record.h_f.shape != shape:
        raise ValueError(f"record {s} shape {record.h_f.shape} differs from {shape}")
    for name, written in vars(layout.record(s, record.h_f)).items():
        if name in ("h_f", "record_type"):  # the payload; a type record_type= may replace
            continue
        got = getattr(record, name)
        # as Python values, as the header holds them: a vector as a list
        if np.asarray(got).tolist() != np.asarray(written).tolist():
            raise ValueError(f"record {s} {name} {got} differs from the header's {written}")


def _pwrite(fd, data, position):
    """Write the bytes of the C-contiguous array ``data`` to ``fd`` at
    ``position``, looping on short writes."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, position)
        view, position = view[done:], position + done


@contextlib.contextmanager
def replacing(path, mode="w"):
    """A temporary file beside ``path``, named anew on each call and open in
    ``mode`` (text: no newline translation), renamed to ``path`` when the block
    ends; an error removes it, leaving any earlier file at ``path`` untouched."""
    partial = f"{os.fspath(path)}.{os.urandom(4).hex()}.partial"
    try:
        with open(partial, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(partial, path)
    finally:  # after an error; after the rename there is nothing to remove
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)


def write_capture(path, records, config_hash="", geometry_hash="", record_type=None,
                  layout=None):
    """Write CaptureRecords to ``path``: the header, then each snapshot's
    payload rows at their offset.

    ``records`` is an iterable of the records in snapshot order, or a
    producer: a function that write_capture calls once with its
    ``rows``, for snapshots written a block at a time or made on several
    threads, and that writes every port of every snapshot once, from
    any threads, before it returns. ``layout`` carries the header
    fields, so neither form need hold the series. Without it the fields
    come from ``records``: a CaptureFile's own, or those of the records,
    which are then all taken first. A ``record_type`` replaces the
    layout's.

    Every payload byte is written by ``rows(s, k, block)``: ``block``,
    cast to a C-contiguous ``<c8`` array (a ``<c8`` block is written as
    it is, any other is copied), holds ports k, k+1, ... of snapshot
    ``s`` and is written with positioned writes at their offset. A
    snapshot's rows are written in port order. Each record of the
    iterable form is checked against the layout and written as rows(s,
    0, h_f). A lock guards only the count of each snapshot's rows: a
    row block written twice (a whole record among them), out of order
    or beyond the snapshot, and a snapshot left short raise ValueError.
    Complex samples are quantized to float32 pairs; a second write of
    the read-back file is byte-identical.

    The file is written through replacing(), so any error, whether a
    record that disagrees with the header or one raised while
    ``records`` computes a snapshot, leaves no file at ``path`` and is
    raised again.
    """
    if layout is None:
        layout = getattr(records, "layout", None)
    if layout is None:
        if callable(records):
            raise ValueError("a producer needs a layout")
        records = list(records)
        layout = Layout.of(records)
    if record_type is not None:
        layout = replace(layout, record_type=record_type)
    if layout.record_type not in RECORD_TYPES:
        raise ValueError(f"record_type must be one of {RECORD_TYPES}")
    header = layout.header(config_hash, geometry_hash)
    count, ports, tones = (header[key] for key in ("snapshot_count", "port_count", "tone_count"))
    if count == 0:
        raise ValueError("no records to write")
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    done = [0] * count  # rows written of each snapshot, in port order
    lock = threading.Lock()

    with replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        offset = fh.tell()
        fh.flush()  # the payload bypasses the file object's buffer

        def check_index(s):
            if not 0 <= s < count:
                raise ValueError(f"more records than the header's {count} snapshots")

        def rows(s, k, block):
            check_index(s)
            block = np.ascontiguousarray(block, "<c8")
            if block.ndim != 2 or block.shape[1] != tones or k + len(block) > ports:
                raise ValueError(f"rows {k}.. of shape {block.shape} do not fit snapshot {s} "
                                 f"of {ports} x {tones}")
            with lock:
                if k != done[s]:
                    raise ValueError(f"snapshot {s} is written twice" if k < done[s] else
                                     f"snapshot {s} ports {done[s]}..{k - 1} are skipped")
                done[s] += len(block)
            _pwrite(fh.fileno(), block, offset + (s * ports + k) * tones * 8)

        def put(s, record):
            check_index(s)
            _check_record(record, s, layout)
            rows(s, 0, record.h_f)

        if callable(records):
            records(rows)
        else:  # map keeps no record while the next is computed, as enumerate's tuple would
            deque(map(put, itertools.count(), records), maxlen=0)
        complete = done.count(ports)
        if complete != count:
            s = next(s for s, n in enumerate(done) if n != ports)
            raise ValueError(f"{complete} records for a header of {count} snapshots: "
                             f"snapshot {s} has {done[s]} of {ports} ports written")


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


class CaptureFile(Sequence):
    """The snapshots of a capture file whose header and size read_capture
    has checked, as a sequence of CaptureRecords.

    Nothing of the payload is held: indexing (or read, into a given
    array) reads that one snapshot, and port_rows one port's row of each
    snapshot, from the file at its offset. A record's ``h_f``, like a
    port row, is the ``<c8`` payload as read, half the bytes of a
    complex128 copy; its consumers compute in complex128 or float64 from
    it. The reads are plain positioned reads, not a memory map, so a
    file that loses bytes after it was opened raises CaptureFileError
    rather than a bus error. So does a sample that is not a finite
    number, when it is read.
    """

    def __init__(self, path, layout, payload_offset):
        self.path = path
        self.layout = layout
        self._offset = payload_offset

    def __len__(self):
        return len(self.layout.timestamps)

    @property
    def shape(self):
        """(ports, tones) of every snapshot."""
        return self.layout.port_count, self.layout.tone_plan.tone_count

    def __getitem__(self, index):
        if isinstance(index, slice):  # a list of the records, as a list slice
            return [self[s] for s in range(len(self))[index]]
        return self.read(range(len(self))[operator.index(index)])

    def read(self, s, out=None):
        """Snapshot ``s`` (0 <= s < len, else IndexError) as a CaptureRecord
        whose ``h_f`` is its payload read into ``out``, a C-contiguous
        little-endian complex64 array of ``shape`` (any other raises
        ValueError), or a fresh array."""
        if not 0 <= s < len(self):
            raise IndexError(f"snapshot {s} out of range for {len(self)} snapshots")
        if out is not None and not (out.dtype == np.dtype("<c8") and out.flags.c_contiguous
                                    and out.shape == self.shape):
            raise ValueError(f"out must be a C-contiguous <c8 array of shape {self.shape}")
        ports, tones = self.shape
        with self._open() as fh:
            h_f = self._read(fh, s, 0, ports * tones, out).reshape(ports, tones)
        return self.layout.record(s, h_f)

    def port_rows(self, port):
        """Row ``port`` of every snapshot in time order, each a ``<c8`` tone
        vector as read; no other bytes of the payload are read."""
        if not 0 <= port < self.layout.port_count:
            raise IndexError(f"port {port} out of range for {self.layout.port_count} ports")
        with self._open() as fh:
            for s in range(len(self)):
                yield self._read(fh, s, port, self.layout.tone_plan.tone_count)

    def _open(self):
        try:
            return open(self.path, "rb")
        except OSError as exc:
            raise CaptureFileError(f"cannot reopen {self.path}: {exc}") from exc

    def _read(self, fh, s, port, count, out=None):
        """``count`` samples of snapshot ``s`` from ``port``'s first tone on,
        in ``out`` (see read) or a fresh array."""
        tones = self.layout.tone_plan.tone_count
        data = np.empty(count, "<c8") if out is None else out.reshape(count)
        try:
            fh.seek(self._offset + (s * self.layout.port_count + port) * tones * 8)
            got = fh.readinto(data)
        except OSError as exc:
            raise CaptureFileError(f"cannot read snapshot {s} of {self.path}: {exc}") from exc
        if got != data.nbytes:
            raise CaptureFileError(f"{self.path} is truncated at snapshot {s}, port {port}: "
                                   "it lost bytes after it was opened")
        floats = data.view("<f4")  # NaN propagates through min and max, +-inf shows in one
        if not (math.isfinite(floats.min()) and math.isfinite(floats.max())):
            raise CaptureFileError(f"{self.path} snapshot {s} has a sample that is not finite")
        return data


def read_capture(path, expected_config_hash=None, strict_hash=False):
    """Open a capture file; returns (records, header).

    The header and the payload size are checked here, so a malformed
    file raises now; ``records`` is a CaptureFile, which reads each
    snapshot from the file only when it is asked for. A config-hash
    mismatch against ``expected_config_hash`` warns by default and
    raises with ``strict_hash``. Every record carries the header's
    record_type (MEAS, B2B or CAL).
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

        expected = header["snapshot_count"] * header["port_count"] * header["tone_count"] * 8
        offset = fh.tell()
        # sized from the file, so every later snapshot read lies inside it
        available = os.fstat(fh.fileno()).st_size - offset
        if available < expected:
            raise CaptureFileError(
                f"truncated payload: expected {expected} bytes, got {available}")
        if available > expected:
            raise CaptureFileError("trailing bytes after payload")

    if expected_config_hash is not None and header["config_hash"] != expected_config_hash:
        message = (f"config hash mismatch: file has {header['config_hash'][:12]}..., "
                   f"expected {expected_config_hash[:12]}...")
        if strict_hash:
            raise HashMismatch(message)
        warnings.warn(message)

    layout = Layout(header["record_type"], plan, header["port_count"], header["timestamps"],
                    header["tx_positions"], header["tx_tilts"], header["snapshot_indices"],
                    header["snr_db"], header["seed"])
    return CaptureFile(path, layout, offset), header
