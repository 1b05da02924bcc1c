"""Star product on the cylinder picture and its small-step expansion.

A crossed-product element with steps n maps to the function sum f_n(x)e^{in phi}
on interval x cylinder; multiplying elements and mapping back defines the star
product of such functions. Fourier modes are recovered by an equispaced
quadrature that is exact for the trigonometric degrees in play, all of them
read from one FFT of the samples; content above the declared degree cannot be
distinguished from lower modes, so it raises.

As the step shrinks, the star commutator contracts to a first-order bracket
whose coefficient is the step-derivative of the bijection family at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .interval import Interval
from .bijection import BijectionFamily
from .crossed import CrossedProductAlgebra, CrossedProductElement
from .functions import SupportedFunction, zero_function


ALIAS_TOL = 1e-9  # mode weight psi_inv reports as aliasing, or drops as no mode
ORDER_WINDOW = (0.9, 1.1)  # the fitted decay order classical_limit_check accepts
BRACKET_RTOL = 0.1  # and the largest relative error of its commutator against the bracket


class AliasingError(ValueError):
    """Fourier content above the declared top mode folded into the window."""


@dataclass
class CylinderFunction:
    """Finite Fourier sum over the angle, coefficients supported on the interval."""

    carrier: Interval
    coefficients: dict[int, SupportedFunction]
    algebra: CrossedProductAlgebra | None = None

    @property
    def top_mode(self) -> int:
        return max((abs(n) for n in self.coefficients), default=0)

    def eval(self, xs, phis) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        out = np.zeros((xs.size, phis.size), dtype=complex)
        memo: dict = {}
        for n, fn in self.coefficients.items():
            out += fn(xs, memo)[:, None] * np.exp(1j * n * phis)[None, :]
        return out

    def phi_derivative(self) -> "CylinderFunction":
        return CylinderFunction(
            self.carrier,
            {n: fn.scale(1j * n) for n, fn in self.coefficients.items() if n != 0},
            self.algebra,
        )

    def coefficient(self, n: int) -> SupportedFunction:
        return self.coefficients.get(n, zero_function(self.carrier))


def psi(x: CrossedProductElement) -> CylinderFunction:
    """Forward leg of the mode correspondence: steps become Fourier modes."""
    return CylinderFunction(x.algebra.carrier, dict(x.terms), x.algebra)


def psi_inv(f, algebra: CrossedProductAlgebra | None = None, max_n: int | None = None) -> CrossedProductElement:
    """Recover an element from a cylinder function by angular quadrature.

    f may be a CylinderFunction or a plain callable f(xs, phi). The node count
    K = 4*max_n + 1 makes the trapezoidal mode integrals exact through degree
    2*max_n, which is what lets the aliasing probe below actually see folded
    content instead of silently absorbing it. At nodes phi_j = -pi + 2 pi j/K,
    mode n is (-1)^n/K times entry n mod K of the FFT of f(x, phi_j) over j.
    Mode weights are read on 101 points and compared with ALIAS_TOL = 1e-9.
    """
    if isinstance(f, CylinderFunction):
        algebra = algebra or f.algebra
        max_n = f.top_mode if max_n is None else max_n
        sample = f.eval
    else:
        if algebra is None or max_n is None:
            raise ValueError("callable input needs an explicit algebra and top mode")

        def sample(xs, phis):
            return np.stack([np.broadcast_to(f(xs, float(phi)), xs.shape) for phi in phis], axis=1).astype(complex)

    if algebra is None:
        raise ValueError("no algebra to rebuild the element in")
    max_n = int(max_n)
    K = 4 * max_n + 1
    nodes = -math.pi + 2.0 * math.pi * np.arange(K) / K

    def spectrum(xs):
        return np.fft.fft(sample(xs, nodes), axis=1)

    probe = algebra.carrier.grid()
    peaks = np.max(np.abs(spectrum(probe)), axis=0, initial=0.0) / K
    for n in range(max_n + 1, 2 * max_n + 1):
        for sign in (1, -1):
            peak = float(peaks[(sign * n) % K])
            if peak > ALIAS_TOL:
                raise AliasingError(
                    f"mode {sign * n} carries weight {peak:.3g} above the declared top mode {max_n}"
                )

    terms = {}
    for n in range(-max_n, max_n + 1):
        support = algebra.interval_n(n)
        if support.is_empty:
            continue
        fn = SupportedFunction(support, None, algebra.carrier, op="mode", args=(spectrum, n % K, (-1) ** n / K))
        inner = support.interior_grid()
        peak = float(np.max(np.abs(fn(inner)))) if inner.size else 0.0
        if peak <= ALIAS_TOL:
            continue
        terms[n] = fn
    return algebra.element(terms)


def star(f: CylinderFunction, g: CylinderFunction) -> CylinderFunction:
    """Multiply two cylinder functions through the crossed product that f, or else g, is attached to."""
    algebra = f.algebra or g.algebra
    x = psi_inv(f, algebra)
    y = psi_inv(g, algebra)
    return psi(x * y)


# -- small-step expansion --------------------------------------------


@dataclass(frozen=True)
class PoissonCoefficient:
    """Step-derivative of the family at zero: alpha_h(u) = u + h*beta(u) + O(h^2)."""

    beta: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    @staticmethod
    def for_family(family: BijectionFamily) -> "PoissonCoefficient":
        if family.beta is not None:
            return PoissonCoefficient(family.beta, f"{family.kind} closed form")
        return PoissonCoefficient.finite_difference(family)

    @staticmethod
    def finite_difference(family: BijectionFamily) -> "PoissonCoefficient":
        """beta as the centered difference of the family in the step, at steps +-1e-4."""
        raw = family.raw_forward

        def beta(u):
            u = np.asarray(u, dtype=float)
            return (np.asarray(raw(1e-4, u)) - np.asarray(raw(-1e-4, u))) / 2e-4

        return PoissonCoefficient(beta, f"{family.kind} centered difference")


def _beta_function(beta: PoissonCoefficient, carrier: Interval) -> SupportedFunction:
    return SupportedFunction(carrier, lambda xs: np.asarray(beta.beta(xs), dtype=complex), carrier)


def poisson_bracket(f: CylinderFunction, g: CylinderFunction, beta: PoissonCoefficient) -> CylinderFunction:
    """beta * (df/dx dg/dphi - df/dphi dg/dx), mode by mode."""
    if f.carrier != g.carrier:
        raise ValueError("bracket arguments live on different carriers")
    b = _beta_function(beta, f.carrier)
    out: dict[int, SupportedFunction] = {}
    for k, fk in f.coefficients.items():
        for l, gl in g.coefficients.items():
            term = b * (fk.derivative() * gl.scale(1j * l) - fk.scale(1j * k) * gl.derivative())
            key = k + l
            out[key] = out[key] + term if key in out else term
    return CylinderFunction(f.carrier, out)


def _margin_grid(carrier: Interval, hbar: float, grid_size: int) -> np.ndarray:
    """grid_size points from 2 hbar inside each finite end of carrier; unbounded ends are cut at +-8."""
    lo = carrier.lo + 2.0 * hbar if math.isfinite(carrier.lo) else -8.0
    hi = carrier.hi - 2.0 * hbar if math.isfinite(carrier.hi) else 8.0
    if lo >= hi:
        raise ValueError("margin swallowed the whole interval; step too large")
    return np.linspace(lo, hi, grid_size)


def classical_limit_check(
    f_coeffs: Mapping[int, SupportedFunction],
    g_coeffs: Mapping[int, SupportedFunction],
    family: BijectionFamily,
    hbars: Sequence[float],
    grid_size: int = 101,
) -> dict:
    """Contract the star product toward the pointwise product and fit the rate.

    For each step value the first-order defect
        R(h) = max | (f*g - fg)/h - i beta df/dphi dg/dx |
    is evaluated on a compact window clear of the interval ends, then a
    log-log fit of R against h estimates the decay order, which must lie in
    [0.9, 1.1]. The window margin is 2h, h the largest step in the sweep,
    held fixed, so every row takes its sup over the same set; letting the
    window grow as h shrinks would fold window motion into the fitted order.
    The star commutator divided by -i*h is compared against the bracket of
    the family's beta at the smallest step, to a relative error of 0.1. A
    defect that vanishes identically reports `fitted_order` None and passes
    the order test; a zero bracket beside a nonzero commutator reports
    `bracket_rel_err` None and fails the bracket test. The
    check is one evaluation pass, so each coefficient is evaluated once on
    the window.
    """
    hbars = sorted(float(h) for h in hbars)
    if not hbars or hbars[0] <= 0:
        raise ValueError("need positive step values")
    beta = PoissonCoefficient.for_family(family)
    b = _beta_function(beta, family.interval)
    xs = _margin_grid(family.interval, hbars[-1], grid_size)
    memo: dict = {}

    rows = []
    smallest = None
    for h in hbars:
        fam_h = family.at(h)
        alg = CrossedProductAlgebra(fam_h.generator)
        x = alg.element(dict(f_coeffs))
        y = alg.element(dict(g_coeffs))
        prod = x * y

        # i * beta * d_phi f * d_x g, mode by mode, from the clipped coefficients
        corr: dict[int, SupportedFunction] = {}
        for k, fk in x.terms.items():
            for l, gl in y.terms.items():
                term = b * (fk.scale(1j * k) * gl.derivative())
                key = k + l
                corr[key] = corr[key] + term if key in corr else term

        worst = 0.0
        for n in set(prod.terms) | set(corr):
            pv = prod.terms[n](xs, memo) if n in prod.terms else np.zeros(xs.shape, complex)
            pw = np.zeros(xs.shape, complex)
            for k, fk in x.terms.items():
                l = n - k
                if l in y.terms:
                    pw += fk(xs, memo) * y.terms[l](xs, memo)
            cv = corr[n](xs, memo) if n in corr else np.zeros(xs.shape, complex)
            defect = (pv - pw) / h - 1j * cv
            worst = max(worst, float(np.max(np.abs(defect))))
        rows.append({"hbar": h, "residual": worst})
        if h == hbars[0]:
            smallest = (x, y, prod)

    logs = [(math.log(r["hbar"]), math.log(r["residual"])) for r in rows if r["residual"] > 1e-15]
    if len(logs) >= 2:
        lx = np.array([p[0] for p in logs])
        ly = np.array([p[1] for p in logs])
        fitted_order = float(np.polyfit(lx, ly, 1)[0])
        order_ok = ORDER_WINDOW[0] <= fitted_order <= ORDER_WINDOW[1]
    else:
        fitted_order = None  # defect vanished identically: faster than any power
        order_ok = True

    x, y, prod = smallest
    h = hbars[0]
    comm = prod - y * x
    fcf = CylinderFunction(family.interval, dict(f_coeffs))
    gcf = CylinderFunction(family.interval, dict(g_coeffs))
    bracket = poisson_bracket(fcf, gcf, beta)
    keys = set(comm.terms) | set(bracket.coefficients)
    num = 0.0
    den = 0.0
    for n in keys:
        cv = comm.terms[n](xs, memo) if n in comm.terms else np.zeros(xs.shape, complex)
        bv = bracket.coefficient(n)(xs, memo)
        num = max(num, float(np.max(np.abs(cv / (-1j * h) - bv))))
        den = max(den, float(np.max(np.abs(bv))))
    bracket_rel_err = num / den if den > 0 else (0.0 if num == 0 else None)
    bracket_ok = bracket_rel_err is not None and bracket_rel_err <= BRACKET_RTOL

    return {
        "rows": rows,
        "fitted_order": fitted_order,
        "order_ok": bool(order_ok),
        "bracket_rel_err": bracket_rel_err,
        "bracket_ok": bracket_ok,
        "beta_label": beta.label,
        "pass": bool(order_ok and bracket_ok),
    }
