"""Back-to-back calibration and sounder stability analysis.

Calibration multiplies each measured transfer function by attenuation /
reference, the known attenuator response over the back-to-back
reference, leaving the antenna+channel response per port; a Reference
checks the reference and computes that factor once for every
measurement.
Stability statistics reduce a B2B series to one relative
amplitude/phase sample per snapshot against the first snapshot.
"""

from dataclasses import dataclass, replace

import numpy as np

from .processing import cast_by_blocks


# a reference tone this far below the reference's median magnitude
# indicates corrupt calibration data
REFERENCE_FLOOR_DB = 120.0

# the fields that make a record, or a capture Layout, calibrated
CAL_FIELDS = {"record_type": "CAL", "snr_db": None, "seed": 0}


class CalibrationError(ValueError):
    pass


@dataclass
class StabilityReport:
    """Per-snapshot relative amplitude/phase against the first snapshot."""

    amplitude_std_db: float
    phase_std_deg: float
    rel_amp_db: np.ndarray
    rel_phase_deg: np.ndarray


class Reference:
    """A back-to-back reference snapshot checked once for any number of
    measurements, held as the complex128 factor attenuation / reference
    on its tone grid, computed once.

    A reference tone that is not finite, or more than REFERENCE_FLOOR_DB
    below the reference's median magnitude, raises, naming the port and
    tone, rather than being regularized.
    """

    def __init__(self, ref, attenuator):
        ref_mag = np.absolute(ref.h_f, dtype=np.float64)  # float64 of a complex64 read too
        _reject(ref_mag, ~np.isfinite(ref_mag), "not finite")
        floor = _median(ref_mag) * 10.0 ** (-REFERENCE_FLOOR_DB / 20.0)
        _reject(ref_mag, ref_mag <= floor, "below floor")
        self.tone_plan = ref.tone_plan
        # complex128 attenuation over a complex64 or complex128 reference
        self.factor = attenuator.response(ref.tone_plan)[np.newaxis, :] / ref.h_f


def _reject(ref_mag, bad, what):
    if bad.any():
        port, tone = np.argwhere(bad)[0]
        raise CalibrationError(f"reference tone {what} at port {port}, tone {tone} "
                               f"(|Y_ref| = {ref_mag[port, tone]:.3e})")


def _median(values):
    """float(np.median(values)) as np.median computes it, np.mean of the
    middle one or two values of np.partition, without the NaN check
    that imports numpy.ma (~1.2 MiB): ``values`` are finite."""
    flat = values.ravel()
    middle = flat.size // 2
    kth = [middle] if flat.size % 2 else [middle - 1, middle]
    return float(np.mean(np.partition(flat, kth)[kth[0]:middle + 1]))


def calibrate(meas, reference, out=None):
    """Antenna+channel response: meas multiplied by attenuation / ref,
    the factor the Reference computed once.

    ``reference`` is a Reference. Returns ``meas``'s CaptureRecord with
    the calibrated ``h_f`` as a CAL record (CAL_FIELDS). The complex128
    product goes, 16 ports at a time (cast_by_blocks), into a fresh
    array or ``out`` of the factor's shape: complex128, such as the
    response of the Workspace whose payload ``meas.h_f`` was read into,
    or that ``<c8`` payload itself.
    """
    if meas.h_f.shape != reference.factor.shape:
        raise CalibrationError(
            f"measurement {meas.h_f.shape} and reference {reference.factor.shape} "
            "dimensions differ")
    if meas.tone_plan != reference.tone_plan:
        raise CalibrationError("measurement and reference tone plans differ")
    if out is None:
        out = np.empty(reference.factor.shape, np.complex128)
    return replace(meas, h_f=cast_by_blocks(out, meas.h_f, reference.factor), **CAL_FIELDS)


def stability_stats(rows):
    """Snapshot-to-snapshot stability of one port of a B2B series.

    ``rows`` is that port's tone vector of each snapshot in time order,
    any iterable such as ``CaptureFile.port_rows(k)`` (``<c8`` rows as
    read) or ``(r.h_f[k] for r in records)``; it is read one row at a
    time. Each row is taken to complex128 once and reduced to the mean
    over tones of the complex ratio against the first row (the
    noise-optimal scalar); amplitude is reported as 20*log10 magnitude
    and phase as the argument in degrees.
    """
    ratios = []
    for row in rows:
        row = np.asarray(row, np.complex128)  # float64 arithmetic on a complex64 read too
        if not ratios:
            if np.any(np.abs(row) == 0.0):
                raise CalibrationError("first snapshot has a zero tone")
            # row/first evaluated as row*conj(first)/|first|^2 in explicit
            # real arithmetic: identical snapshots divide to exactly 1 (no
            # fused multiply-add residue), so an unchanged series reports 0
            fr, fi = row.real, row.imag
            denom = fr * fr + fi * fi
        tr, ti = row.real, row.imag
        re = (tr * fr + ti * fi) / denom
        im = (ti * fr - tr * fi) / denom
        ratios.append(complex(np.mean(re), np.mean(im)))
    if len(ratios) < 2:
        raise CalibrationError("stability analysis needs at least 2 snapshots")
    ratios = np.array(ratios)
    rel_amp_db = 20.0 * np.log10(np.abs(ratios))
    rel_phase_deg = np.degrees(np.angle(ratios))
    return StabilityReport(
        amplitude_std_db=float(np.std(rel_amp_db)),
        phase_std_deg=float(np.std(rel_phase_deg)),
        rel_amp_db=rel_amp_db,
        rel_phase_deg=rel_phase_deg,
    )
