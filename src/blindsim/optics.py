"""Threshold-detector optics: polarization angles, Malus splitting, click logic.

Everything downstream reduces to two facts about a blinded station: a
polarizing splitter divides a bright pulse between its outputs by Malus's
law, and each output fires its detector only while the incident intensity
is strictly above the click threshold. Intensities are expressed in units
of that threshold throughout.

Together they make a blinded station a step function of the offset between
pulse polarization and setting: each detector fires inside a fixed angle
window whose half-width depends only on the pulse intensity. The simulation
kernel uses that window rule (window_half_width, window_codes); Malus
splitting and the strict threshold (split_intensities, click_codes) remain
the reference physics that Eve's predictions and single blinding's code
table are computed with. A streamed double-blind session evaluates both
arithmetics once per lambda bucket to build its tables, and per round only
where a bucket straddles a window edge or a click threshold
(protocol._bucket_tables).
"""

from __future__ import annotations

import enum
import math

import numpy as np

# polarization angles are pi-periodic
PERIOD = math.pi
HALF_PERIOD = math.pi / 2.0
CLICK_THRESHOLD = 1.0  # intensities are in units of the click threshold


def canon_angle(theta):
    """Reduce an angle (radians) to its canonical representative in [0, pi).

    Works on scalars and numpy arrays. Idempotent, and np.mod rounding up to
    the period itself (tiny negative inputs) is corrected so the result is
    always strictly below pi.
    """
    wrapped = np.mod(theta, PERIOD)
    wrapped = np.where(wrapped >= PERIOD, wrapped - PERIOD, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def quarter_turn(theta):
    """canon_angle(theta + pi/2) for theta in [0, pi), bit for bit (vectorized).

    x = theta + pi/2 lies in [pi/2, 3pi/2): below pi it is its own
    canonical angle, and from pi on x - pi is exact (Sterbenz), as the fmod
    in canon_angle is. x - 0.0 is x, and this is several times faster than
    np.mod or a masked subtract.
    """
    x = np.add(theta, HALF_PERIOD, dtype=np.float64)
    x -= (x >= PERIOD) * PERIOD
    return x


def wrap_diff(delta):
    """Reduce an angle difference to [-pi/2, pi/2)."""
    shifted = np.mod(delta + HALF_PERIOD, PERIOD)
    shifted = np.where(shifted >= PERIOD, shifted - PERIOD, shifted)
    out = shifted - HALF_PERIOD
    if np.ndim(delta) == 0:
        return float(out)
    return out


class Outcome(enum.IntEnum):
    """Verdict of one station in one round.

    Integer codes double as the array encoding used by the vectorized
    engine: +1 and -1 are the two detectors, 0 is no click, 2 flags the
    pathological both-detectors case.
    """

    MINUS = -1
    NO_CLICK = 0
    PLUS = 1
    DOUBLE_CLICK = 2


def split_intensities(intensity, polarization, setting):
    """Malus-law intensities behind the two splitter outputs (vectorized).

    Evaluated in the half-angle form I*(1 +- cos 2(pol - setting))/2 so the
    pair stays exactly complementary; at intensity 2 the representable
    neighborhood of the cos = 0 boundary then rounds to the threshold itself
    (no click) instead of sitting one ulp above it.
    """
    intensity, polarization, setting = np.broadcast_arrays(intensity, polarization, setting)
    # two buffers, reused in place, in the operation order of I*(1 +- c2)/2
    c2 = np.subtract(polarization, setting, out=np.empty(setting.shape))
    c2 *= 2.0
    np.cos(c2, out=c2)
    i0 = np.add(1.0, c2, out=np.empty(c2.shape))
    np.multiply(intensity, i0, out=i0)
    i0 /= 2.0
    i1 = np.subtract(1.0, c2, out=c2)
    np.multiply(intensity, i1, out=i1)
    i1 /= 2.0
    return i0, i1


def click_codes(i0, i1):
    """Outcome codes for intensity pairs in threshold units: a detector fires iff above CLICK_THRESHOLD."""
    c0 = np.asarray(i0) > CLICK_THRESHOLD
    c1 = np.asarray(i1) > CLICK_THRESHOLD
    codes = c0.astype(np.int8) - c1.astype(np.int8)
    return np.where(c0 & c1, np.int8(Outcome.DOUBLE_CLICK), codes).astype(np.int8)


def window_half_width(intensity: float) -> float:
    """Half-width w of the offset window inside which a pulse fires a detector.

    A pulse of intensity I in (1, 2] threshold units fires the + output iff
    I(1 + cos 2u)/2 > 1, i.e. cos 2u > 2/I - 1 = cos 2w, so
    w = acos(2/I - 1)/2: pi/4 at I = 2, and alpha for the weak pulse
    1/cos^2(alpha). Above 2 the windows would overlap (double clicks), at or
    below 1 nothing fires.
    """
    if not 1.0 < intensity <= 2.0:
        raise ValueError(f"intensity must lie in (1, 2] threshold units, got {intensity}")
    return 0.5 * math.acos(2.0 / intensity - 1.0)


def window_codes(offset, half_width):
    """Outcome codes of a blinded station from the polarization-setting offset (vectorized).

    offset is polarization minus setting, both canonical, so it lies in
    (-pi, pi); u = |offset| in [0, pi) is the offset modulo pi up to the
    mirror u -> pi - u, under which both windows are symmetric. The +
    detector fires iff u < w or u > pi - w, i.e. iff u lies within w of a
    multiple of pi; the - detector fires iff |u - pi/2| < w; otherwise the
    station is silent. half_width w (scalar or per-round) comes from
    window_half_width, so w <= pi/4 and the windows never overlap.
    """
    # one float temporary, reused in place: u, then its distance from pi/2,
    # then its distance from the nearest multiple of pi
    dist = np.array(offset, dtype=np.float64)
    np.abs(dist, out=dist)
    dist -= HALF_PERIOD
    np.abs(dist, out=dist)
    minus = dist < half_width
    np.subtract(HALF_PERIOD, dist, out=dist)
    plus = dist < half_width
    return plus.astype(np.int8) - minus.astype(np.int8)
