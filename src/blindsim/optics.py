"""Threshold-detector optics: polarization angles, Malus splitting, click logic.

Everything downstream reduces to two facts about a blinded station: a
polarizing splitter divides a bright pulse between its outputs by Malus's
law, and each output fires its detector only while the incident intensity
is strictly above the click threshold. Intensities are expressed in units
of that threshold throughout.
"""

from __future__ import annotations

import enum
import math

import numpy as np

# polarization angles are pi-periodic
PERIOD = math.pi
HALF_PERIOD = math.pi / 2.0


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
    c2 = np.cos(2.0 * (np.asarray(polarization) - np.asarray(setting)))
    i0 = np.asarray(intensity) * (1.0 + c2) / 2.0
    i1 = np.asarray(intensity) * (1.0 - c2) / 2.0
    return i0, i1


def click_codes(i0, i1, threshold=1.0):
    """Outcome codes for intensity pairs against a strict click threshold."""
    c0 = np.asarray(i0) > threshold
    c1 = np.asarray(i1) > threshold
    codes = c0.astype(np.int8) - c1.astype(np.int8)
    return np.where(c0 & c1, np.int8(Outcome.DOUBLE_CLICK), codes).astype(np.int8)

