"""Real intervals with open/closed/infinite endpoints and an explicit empty value.

Endpoints are ordinary binary floats. Emptiness is a flag, never an inverted
endpoint pair, so degenerate arithmetic cannot silently produce a "negative"
interval. Membership tests take a tolerance: closed endpoints are widened by
it, open endpoints stay strict after widening the complement, and tol=0 gives
exact set membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-12

_INF = math.inf


def _fmt_endpoint(x: float) -> str:
    if x == _INF:
        return "inf"
    if x == -_INF:
        return "-inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


@dataclass(frozen=True, slots=True)
class Interval:
    """A connected subset of the real line, possibly empty or unbounded."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    is_empty: bool = False

    def __post_init__(self) -> None:
        if self.is_empty:
            # canonical empty representation so equality is structural
            object.__setattr__(self, "lo", 0.0)
            object.__setattr__(self, "hi", 0.0)
            object.__setattr__(self, "lo_closed", False)
            object.__setattr__(self, "hi_closed", False)
            return
        lo, hi = float(self.lo), float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoint is NaN")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        if lo == hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both ends")
        if lo == -_INF and self.lo_closed:
            raise ValueError("infinite endpoint cannot be closed")
        if hi == _INF and self.hi_closed:
            raise ValueError("infinite endpoint cannot be closed")
        if lo == _INF or hi == -_INF:
            raise ValueError("interval endpoint at wrong infinity")

    # -- constructors -------------------------------------------------

    @staticmethod
    def closed(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, True, True)

    @staticmethod
    def open(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, False, False)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x, True, True)

    @staticmethod
    def empty() -> "Interval":
        return EMPTY

    @staticmethod
    def at_least(lo: float) -> "Interval":
        return Interval(lo, _INF, True, False)

    @staticmethod
    def at_most(hi: float) -> "Interval":
        return Interval(-_INF, hi, False, True)

    @staticmethod
    def real_line() -> "Interval":
        return Interval(-_INF, _INF, False, False)

    @staticmethod
    def parse(text: str) -> "Interval":
        """Parse the textual form: "[a,b]", "(a,b]", "(-inf,b]", "empty"."""
        if not isinstance(text, str):
            raise ValueError(f"cannot parse interval: {text!r}")
        s = text.strip()
        if s.lower() == "empty":
            return EMPTY
        if len(s) < 5 or s[0] not in "[(" or s[-1] not in "])":
            raise ValueError(f"cannot parse interval: {text!r}")
        body = s[1:-1]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"cannot parse interval: {text!r}")
        lo = float(parts[0])
        hi = float(parts[1])
        return Interval(lo, hi, s[0] == "[", s[-1] == "]")

    # -- basic queries ------------------------------------------------

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{_fmt_endpoint(self.lo)},{_fmt_endpoint(self.hi)}{rb}"

    @property
    def is_degenerate(self) -> bool:
        return (not self.is_empty) and self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return (not self.is_empty) and math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return self.hi - self.lo

    def contains(self, x, tol: float = DEFAULT_TOL):
        """Membership with tolerance; accepts scalars or numpy arrays."""
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        if self.is_empty:
            res = np.zeros(xs.shape, dtype=bool)
            return bool(res) if scalar else res
        if self.lo_closed:
            ok = xs >= self.lo - tol
        else:
            ok = xs > self.lo + tol
        if self.hi_closed:
            ok = ok & (xs <= self.hi + tol)
        else:
            ok = ok & (xs < self.hi - tol)
        return bool(ok) if scalar else ok

    def subset_of(self, other: "Interval", tol: float = 0.0) -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        if other.lo != -_INF:
            d = self.lo - other.lo
            if d < -tol:
                return False
            if abs(d) <= tol and not (other.lo_closed or not self.lo_closed):
                return False
        if other.hi != _INF:
            d = other.hi - self.hi
            if d < -tol:
                return False
            if abs(d) <= tol and not (other.hi_closed or not self.hi_closed):
                return False
        return True

    def close_to(self, other: "Interval", tol: float = 1e-9) -> bool:
        """Endpoint-wise closeness (relative); closedness flags are ignored."""
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty

        def near(a: float, b: float) -> bool:
            if a == b:
                return True
            if not (math.isfinite(a) and math.isfinite(b)):
                return False
            return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))

        return near(self.lo, other.lo) and near(self.hi, other.hi)

    # -- set algebra --------------------------------------------------

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        if self.lo > other.lo:
            lo, lo_c = self.lo, self.lo_closed
        elif other.lo > self.lo:
            lo, lo_c = other.lo, other.lo_closed
        else:
            lo, lo_c = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_c = self.hi, self.hi_closed
        elif other.hi < self.hi:
            hi, hi_c = other.hi, other.hi_closed
        else:
            hi, hi_c = self.hi, self.hi_closed and other.hi_closed
        if lo > hi or (lo == hi and not (lo_c and hi_c)):
            return EMPTY
        return Interval(lo, hi, lo_c, hi_c)

    def hull(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        if self.lo < other.lo:
            lo, lo_c = self.lo, self.lo_closed
        elif other.lo < self.lo:
            lo, lo_c = other.lo, other.lo_closed
        else:
            lo, lo_c = self.lo, self.lo_closed or other.lo_closed
        if self.hi > other.hi:
            hi, hi_c = self.hi, self.hi_closed
        elif other.hi > self.hi:
            hi, hi_c = other.hi, other.hi_closed
        else:
            hi, hi_c = self.hi, self.hi_closed or other.hi_closed
        return Interval(lo, hi, lo_c, hi_c)

    def difference(self, other: "Interval") -> list["Interval"]:
        """Set difference self \\ other as a list of at most two intervals."""
        if self.is_empty:
            return []
        if other.is_empty or self.intersect(other).is_empty:
            return [self]
        pieces: list[Interval] = []
        # piece below other.lo
        if other.lo != -_INF:
            lo_piece_hi_closed = not other.lo_closed
            if self.lo < other.lo or (self.lo == other.lo and self.lo_closed and lo_piece_hi_closed):
                try:
                    pieces.append(Interval(self.lo, other.lo, self.lo_closed, lo_piece_hi_closed))
                except ValueError:
                    pass
        # piece above other.hi
        if other.hi != _INF:
            hi_piece_lo_closed = not other.hi_closed
            if self.hi > other.hi or (self.hi == other.hi and self.hi_closed and hi_piece_lo_closed):
                try:
                    pieces.append(Interval(other.hi, self.hi, hi_piece_lo_closed, self.hi_closed))
                except ValueError:
                    pass
        return [p for p in pieces if not p.is_empty]

    def shifted(self, offset: float) -> "Interval":
        """Image under x -> x + offset: the floats `image_monotone` gives, without its sampled check."""
        if self.is_empty:
            return EMPTY
        lo, hi = self.lo + offset, self.hi + offset
        if lo == hi:
            return Interval.point(lo)
        return Interval(lo, hi, self.lo_closed and math.isfinite(lo), self.hi_closed and math.isfinite(hi))

    # -- sampling -----------------------------------------------------

    def grid(self, n: int = 101, window: float = 8.0) -> np.ndarray:
        """Uniform sample points; unbounded ends are cut at +-window."""
        if self.is_empty:
            return np.empty(0)
        if self.is_degenerate:
            return np.array([self.lo])
        lo = self.lo if math.isfinite(self.lo) else -window
        hi = self.hi if math.isfinite(self.hi) else window
        if lo >= hi:
            # carrier lies entirely outside the default window
            if math.isfinite(self.lo):
                lo, hi = self.lo, self.lo + 2 * window if not math.isfinite(self.hi) else self.hi
            else:
                lo, hi = self.hi - 2 * window, self.hi
        return np.linspace(lo, hi, n)

    def interior_grid(self, n: int = 101, window: float = 8.0, shrink: float = 1e-7) -> np.ndarray:
        """Like grid() but with finite endpoints pulled inward by a relative margin."""
        if self.is_empty or self.is_degenerate:
            return self.grid(n, window)
        lo = self.lo if math.isfinite(self.lo) else -window
        hi = self.hi if math.isfinite(self.hi) else window
        if lo >= hi:
            return self.grid(n, window)
        pad = shrink * (1.0 + max(abs(lo), abs(hi)))
        if math.isfinite(self.lo):
            lo += pad
        if math.isfinite(self.hi):
            hi -= pad
        return np.linspace(lo, hi, n)


EMPTY = Interval(0.0, 0.0, False, False, True)


def _strictly_increasing(xs: np.ndarray) -> bool:
    return bool(np.all(np.diff(xs) > 0))


def image_monotone(iv: Interval, fn: Callable[[np.ndarray], np.ndarray], samples: int = 33) -> Interval:
    """Image of an interval under a strictly monotone continuous map.

    Endpoint images determine orientation; a sampled grid check rejects maps
    that are not strictly monotone on the interval. An interval a few ulps
    wide has no strictly increasing sample grid to check on, so it maps to
    the interval between its endpoint images unchecked (a point when they
    round to the same float). Open/closed endpoints map to open/closed
    images (infinite images are open).
    """
    if iv.is_empty:
        return EMPTY
    a = float(fn(np.asarray(iv.lo, dtype=float)))
    if math.isnan(a):
        raise ValueError(f"map undefined at endpoint {iv.lo}")
    if iv.is_degenerate:
        return Interval.point(a)
    b = float(fn(np.asarray(iv.hi, dtype=float)))
    if math.isnan(b):
        raise ValueError(f"map undefined at endpoint {iv.hi}")
    xs = iv.grid(samples + 2)[1:-1]
    if a == b:
        if _strictly_increasing(xs):
            raise ValueError("map is not strictly monotone: equal endpoint images")
        return Interval.point(a)
    increasing = a < b
    ys = np.asarray(fn(xs), dtype=float)
    if np.any(np.isnan(ys)):
        raise ValueError("map undefined inside the interval")
    d = np.diff(ys)
    if not np.all(d > 0 if increasing else d < 0) and _strictly_increasing(xs):
        direction = "increasing" if increasing else "decreasing"
        raise ValueError(f"map is not strictly {direction} on sampled grid")
    if increasing:
        lo, hi, lo_c, hi_c = a, b, iv.lo_closed, iv.hi_closed
    else:
        lo, hi, lo_c, hi_c = b, a, iv.hi_closed, iv.lo_closed
    if not math.isfinite(lo):
        lo_c = False
    if not math.isfinite(hi):
        hi_c = False
    return Interval(lo, hi, lo_c, hi_c)
