"""Independent oracles and single-item references shared by the unit
and acceptance tests.

The oracles deliberately avoid the library's own code paths: the
eigenvalue oracle goes through the characteristic polynomial and
bisection instead of LAPACK, and the transfer-function oracle evaluates
the path sum with its own scalar trigonometry. The references are
one-item views of the library that the library itself never needs: one
port's gain for one plane wave, and a system response that changes
nothing. ``complex128_metrics`` is the analysis front end as it ran
before the complex64 delay domain, the reference that one is held to.
"""

import math

import numpy as np

from a2gsounder.capture_sim import CaptureRecord, SystemResponse
from a2gsounder.processing import (GatedCIR, column_power_profile, correlation_and_eigen,
                                   los_bin_power_db, rms_delay_spread, rx_power)

SPEED_OF_LIGHT = 299_792_458.0


def port_gain(geometry, port_id, arrival_direction, incident_jones):
    """Complex voltage gain of one port of ``geometry`` for one plane wave:
    row ``port_id`` of ArrayGeometry.port_gains for that single path.

    ``arrival_direction`` is a unit 3-vector in the array frame pointing
    toward the source; ``incident_jones`` is the (V, H) field at the array.
    """
    return complex(geometry.port_gains([arrival_direction], [incident_jones])[port_id, 0])


def ideal_system_response(tones, n_ports):
    """Flat chain, unity port gains, no drift."""
    return SystemResponse(
        common_chain=np.ones(tones.tone_count, dtype=np.complex128),
        per_port_gain=np.ones(n_ports, dtype=np.complex128),
        phase_drift_deg=0.0,
        amplitude_jitter_db=0.0,
        seed=0,
    )


def charpoly_coefficients(r):
    """Faddeev-LeVerrier coefficients of det(xI - R), leading 1 first."""
    n = r.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(r)
    for k in range(1, n + 1):
        m = r @ (m + coeffs[-1] * np.eye(n))
        coeffs.append(float(-np.trace(m).real / k))
    return np.array(coeffs)


def eigvals_charpoly_bisect(r, grid_points=4001, iterations=120):
    """Eigenvalues of a Hermitian PSD matrix with distinct eigenvalues.

    Roots of the characteristic polynomial are isolated by sign changes
    on a grid over [-trace/4, 1.5*trace] and pinned by bisection.
    Returns eigenvalues sorted descending; raises if it cannot isolate
    n distinct roots (caller should use a finer grid then).
    """
    n = r.shape[0]
    coeffs = charpoly_coefficients(r)

    def poly(x):
        acc = np.zeros_like(np.asarray(x, dtype=np.float64))
        for c in coeffs:
            acc = acc * x + c
        return acc

    trace = float(np.trace(r).real)
    scale = max(trace, 1e-300)
    grid = np.linspace(-0.25 * scale, 1.5 * scale, grid_points)
    values = poly(grid)

    signs = np.sign(values)
    crossings = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    roots = [float(grid[i]) for i in np.nonzero(values == 0.0)[0]]
    for i in crossings:
        a, b = float(grid[i]), float(grid[i + 1])
        fa = float(values[i])
        for _ in range(iterations):
            mid = 0.5 * (a + b)
            fm = float(poly(mid))
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    if len(roots) != n:
        if grid_points < 300_000:
            return eigvals_charpoly_bisect(r, grid_points=grid_points * 8,
                                           iterations=iterations)
        raise ValueError(f"isolated {len(roots)} roots, expected {n}")
    return np.sort(np.array(roots))[::-1]


def transfer_function_oracle(paths, geometry, tones, mounting_rotation=0.0):
    """Direct path-sum transfer function, scalar math per port and path.

    ``paths`` is SlotPaths: a one-row SlotPaths is seen by every port,
    and with one row per port, row k feeds port k. Independent of the
    library's vectorized response evaluation: port positions are rebuilt
    from the cylinder formula, pattern and polarization handling use
    local scalar trig, and tone phases use a plain exp over the
    frequency vector.
    """
    freqs = np.asarray(tones.tone_frequencies)
    columns, rows = geometry.columns, geometry.rows
    radius, dz = geometry.radius, geometry.vertical_spacing
    pat = geometry.pattern
    floor = 10.0 ** (pat.backlobe_floor_db / 20.0)
    leak = 0.0 if math.isinf(pat.xpd_db) else 10.0 ** (-pat.xpd_db / 20.0)

    out = np.zeros((columns * rows * 2, tones.tone_count), dtype=np.complex128)
    if len(paths) not in (1, len(out)):
        raise ValueError(f"{len(paths)} path rows for {len(out)} ports")
    cr, sr = math.cos(-mounting_rotation), math.sin(-mounting_rotation)
    for column in range(columns):
        boresight = 2.0 * math.pi * column / columns
        px = radius * math.cos(boresight)
        py = radius * math.sin(boresight)
        for row in range(rows):
            pz = (row - (rows - 1) / 2.0) * dz
            for pol in (0, 1):  # V, H
                port = column * rows * 2 + row * 2 + pol
                slot = 0 if len(paths) == 1 else port
                for i in range(paths.counts[slot]):
                    dw = paths.directions[slot, i]
                    d = (cr * dw[0] - sr * dw[1], sr * dw[0] + cr * dw[1], dw[2])
                    az = math.atan2(d[1], d[0])
                    el = math.asin(max(-1.0, min(1.0, d[2])))
                    amp = (max(math.cos(az - boresight), 0.0) ** pat.q_azimuth
                           * max(math.cos(el), 0.0) ** pat.q_elevation)
                    amp = max(amp, floor)
                    jv, jh = paths.jones[slot, i]
                    co, cross = (jv, jh) if pol == 0 else (jh, jv)
                    advance = (px * d[0] + py * d[1] + pz * d[2]) / SPEED_OF_LIGHT
                    out[port] += amp * (co + leak * cross) * np.exp(
                        -2j * math.pi * freqs * (paths.delays[slot, i] - advance))
    return out


def complex128_metrics(meas, ref, attenuation, geometry, gate):
    """Metric columns of one snapshot by the complex128 front end.

    The measurement is divided by the reference and multiplied by the
    attenuator response, transformed by a complex128 unitary inverse
    DFT, and gated on the power np.abs(h)**2 by the dual threshold and
    delay gate of processing.threshold_and_gate. The gated response,
    whose power GatedCIR squares again, feeds processing's reductions.
    Returns snapshot_metrics' columns from p_rx on.
    """
    h_f = meas.h_f / ref.h_f * attenuation
    h = np.fft.ifft(h_f, axis=1, norm="ortho")
    power = np.abs(h) ** 2
    n_bins = power.shape[1]
    tail = max(1, int(math.ceil(gate.noise_window_fraction * n_bins)))
    noise_floor = np.mean(power[:, n_bins - tail:], axis=1)
    peak = np.max(power, axis=1)
    threshold = np.maximum(noise_floor * 10.0 ** (gate.noise_margin_db / 10.0),
                           peak * 10.0 ** (-gate.peak_margin_db / 10.0))
    delays = meas.tone_plan.delay_bins
    keep = power >= threshold[:, np.newaxis]
    first = delays[np.argmax(keep, axis=1)]
    gated = np.where(keep & (delays[np.newaxis, :] <= first[:, np.newaxis] + gate.delay_gate),
                     h, 0.0)
    gated[~(keep.any(axis=1) & (peak > 0.0))] = 0.0
    cir = GatedCIR(h_tau=gated, delays=delays, noise_floor=noise_floor, threshold=threshold)

    spread = rms_delay_spread(cir)
    columns = column_power_profile(cir, geometry)
    eig = correlation_and_eigen(CaptureRecord(h_f=h_f, tone_plan=meas.tone_plan))
    e = eig.eigenvalues
    p_rx = rx_power(cir)
    row = {
        "p_rx": p_rx,
        "p_rx_db": 10.0 * math.log10(p_rx) if p_rx > 0 else -math.inf,
        "sigma_tau_s": spread.sigma_tau_s,
        "sigma_tau_dbs": spread.sigma_tau_dbs,
        "strongest_port": spread.strongest_port,
        "los_bin_power_db": los_bin_power_db(cir, spread.strongest_port),
        "gamma12_db": eig.gamma12_db,
        "gamma14_db": eig.gamma14_db,
        "eigen_span_db": (math.inf if len(e) < 2 or e[0] <= 0 or e[-1] <= 0
                          else 10.0 * math.log10(e[0] / e[-1])),
        "argmax_v_column": int(np.argmax(columns[:, 0])),
    }
    for col, (v_db, h_db) in enumerate(columns):
        row[f"col{col}_v_db"] = v_db
        row[f"col{col}_h_db"] = h_db
    return row
