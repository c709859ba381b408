"""Independent oracles and single-item references shared by the unit
and acceptance tests.

The oracles deliberately avoid the library's own code paths: the
eigenvalue oracle goes through the characteristic polynomial and
bisection instead of LAPACK, and the transfer-function oracle evaluates
the path sum with its own scalar trigonometry. The references are
one-item views of the library that the library itself never needs: one
port's gain for one plane wave, and a system response that changes
nothing.
"""

import math

import numpy as np

from a2gsounder.capture_sim import SystemResponse

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
    """Direct path-sum transfer function, scalar math per port and path,
    of the one-row SlotPaths ``paths`` that every port sees.

    Independent of the library's vectorized response evaluation: port
    positions are rebuilt from the cylinder formula, pattern and
    polarization handling use local scalar trig, and tone phases use a
    plain exp over the frequency vector.
    """
    freqs = np.asarray(tones.tone_frequencies)
    columns, rows = geometry.columns, geometry.rows
    radius, dz = geometry.radius, geometry.vertical_spacing
    pat = geometry.pattern
    floor = 10.0 ** (pat.backlobe_floor_db / 20.0)
    leak = 0.0 if math.isinf(pat.xpd_db) else 10.0 ** (-pat.xpd_db / 20.0)

    out = np.zeros((columns * rows * 2, tones.tone_count), dtype=np.complex128)
    cr, sr = math.cos(-mounting_rotation), math.sin(-mounting_rotation)
    for i in range(paths.counts[0]):
        dw = paths.directions[0, i]
        d = (cr * dw[0] - sr * dw[1], sr * dw[0] + cr * dw[1], dw[2])
        az = math.atan2(d[1], d[0])
        el = math.asin(max(-1.0, min(1.0, d[2])))
        jv, jh = paths.jones[0, i]
        for column in range(columns):
            boresight = 2.0 * math.pi * column / columns
            amp = (max(math.cos(az - boresight), 0.0) ** pat.q_azimuth
                   * max(math.cos(el), 0.0) ** pat.q_elevation)
            amp = max(amp, floor)
            px = radius * math.cos(boresight)
            py = radius * math.sin(boresight)
            for row in range(rows):
                pz = (row - (rows - 1) / 2.0) * dz
                advance = (px * d[0] + py * d[1] + pz * d[2]) / SPEED_OF_LIGHT
                phase = np.exp(-2j * math.pi * freqs * (paths.delays[0, i] - advance))
                base = column * rows * 2 + row * 2
                out[base] += amp * (jv + leak * jh) * phase
                out[base + 1] += amp * (jh + leak * jv) * phase
    return out
