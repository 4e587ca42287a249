"""Least-squares fitting helpers shared by the scan and decay modules."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class LogLogFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


def loglog_fit(x, y) -> LogLogFit:
    """Least-squares line through (log x, log y), in closed form.

    With ``dx``, ``dy`` the centred logs, the slope is ``sum(dx dy) /
    sum(dx^2)`` and the line passes through the means.  Requires at least 3
    strictly positive samples; returns the slope, intercept (of log y) and
    the coefficient of determination.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 paired samples")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log fit requires positive samples")
    lx = np.log(x)
    ly = np.log(y)
    mx, my = lx.mean(), ly.mean()
    dx, dy = lx - mx, ly - my
    slope = (dx @ dy) / (dx @ dx)
    intercept = my - slope * mx
    resid = dy - slope * dx
    ss_tot = dy @ dy
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - (resid @ resid) / ss_tot
    return LogLogFit(float(slope), float(intercept), float(r2))
