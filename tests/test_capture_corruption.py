"""Property: a corrupted capture file fails closed.

Any truncation or single-byte change of a valid file either raises
CaptureFileError when it is opened or still reads, snapshot by
snapshot and port by port, as records whose transfer functions have
the shape the header declares. Payload bytes may hold any finite
float, so a change there can read back without error; one that makes
a sample NaN or infinite raises CaptureFileError when it is read.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2gsounder.capture_file import CaptureFileError, read_capture, write_capture
from a2gsounder.capture_sim import CaptureRecord
from a2gsounder.waveform import TonePlan


def tiny_capture(path):
    plan = TonePlan(tone_count=4)
    rng = np.random.default_rng(0)
    records = [CaptureRecord(timestamp=0.05 * s, tx_position=[12.0, 0.0, 1.5 + s],
                             tx_tilt=[0.01, -0.02], tone_plan=plan, snr_db=30.0, seed=7,
                             snapshot_index=s,
                             h_f=rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
               for s in range(2)]
    write_capture(path, records, config_hash="c" * 64, geometry_hash="g" * 64)
    return path.read_bytes()


def corruptions(size):
    truncated = st.integers(0, size - 1).map(lambda n: ("truncate", n, 0))
    flipped = st.tuples(st.just("flip"), st.integers(0, size - 1), st.integers(1, 255))
    return st.one_of(truncated, flipped)


def corrupt(blob, edit):
    kind, at, mask = edit
    if kind == "truncate":
        return blob[:at]
    return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]


def test_corrupted_capture_raises_or_reads_declared_shape(tmp_path_factory):
    folder = tmp_path_factory.mktemp("corrupt")
    blob = tiny_capture(folder / "valid.bin")
    path = folder / "corrupt.bin"

    @settings(max_examples=200, deadline=None)
    @given(corruptions(len(blob)))
    def check(edit):
        path.write_bytes(corrupt(blob, edit))
        try:
            records, header = read_capture(path)
        except CaptureFileError:
            return
        # read_capture checked the header and the size, so every lazy
        # read of a finite payload, by snapshot or by port, must succeed
        assert len(records) == header["snapshot_count"]
        size = header["snapshot_count"] * header["port_count"] * header["tone_count"] * 8
        if not np.isfinite(np.frombuffer(path.read_bytes()[-size:], "<f4")).all():
            with pytest.raises(CaptureFileError, match="not finite"):
                for s in range(len(records)):
                    records[s]
            return
        for s in range(len(records)):
            record = records[s]
            assert record.h_f.shape == (header["port_count"], record.tone_plan.tone_count)
        for row in records.port_rows(header["port_count"] - 1):
            assert row.shape == (header["tone_count"],)

    check()
