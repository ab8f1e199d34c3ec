"""Hyperbolic super-resonances of metal-clad cylindrical resonators.

A cylinder of radius R and length d made of a hyperbolic medium exhibits a
massive mode degeneracy when

    Re sqrt(-eps_perp(w_r)/eps_par(w_r)) = 4 R m / d,   m = 1, 2, ...

At that condition the dipole-dipole coupling between emitters on opposite
sides of the resonator, separated by spacers of thickness h, is resonantly
enhanced.  This module locates the resonance, evaluates the Bessel-zero
coupling series and its closed forms, the self-decoherence rate, and the
design-feasibility window h* << h <= h_c.

Series conventions (signs fixed by the lossless limit and by |r_eff| <= 1
for passive media; see the module tests):

    p1.E2 = -(2 pi p1 p2 / R^3) sum_n x_n^2 exp(-x_n h/R) / D_n
    D_n   = cos(theta_n) + beta sin(theta_n),     theta_n = q x_n d / R
    beta  = (eps0 q / eps_perp - eps_perp / (eps0 q)) / 2
    q     = sqrt(-eps_perp/eps_par)   (principal branch)

with x_n the true zeros of J0.  The equivalent bounce-resummed form uses
1/D_n = 2 A e^{i theta}/(1 - r_eff e^{2 i theta}), A = 1/(1 + i beta),
r_eff = ((1 + i v)/(1 - i v))^2, v = (eps0/eps_par) sqrt(-eps_par/eps_perp):
the product of the reflection factors at the two bounce points of the
periodic ray.  It is evaluated with one exponential per term, w = e^{+-i theta}
with the sign that keeps |w| <= 1.  J and Gamma are Re and Im of p1.E2 in meV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import jn_zeros

from .constants import E2_PER_NM_MEV, omega_to_mev
from .errors import DivergenceError, NoResonanceError, NonHyperbolicError
from .material import HyperbolicBand, MaterialModel, UniaxialPermittivity, permittivity_at
from .optics import require_hyperbolic, sqrt_ratio, sqrt_ratio_inv

_BRENTQ_RTOL = 8.9e-16  # ~4 eps, the tightest brentq accepts


@dataclass(frozen=True)
class ResonatorGeometry:
    R: float                        # nm, cylinder radius (ellipse semi-minor scale)
    d: float                        # nm, cylinder length
    h: float                        # nm, spacer thickness per emitter side
    eps_spacer: complex = 11.7 + 0.0j  # silicon support layer
    eccentricity: float = 0.0       # 0 = circular cross-section

    def __post_init__(self):
        if not (self.R > 0 and self.d > 0 and self.h >= 0):
            raise ValueError(f"need R>0, d>0, h>=0; got R={self.R}, d={self.d}, h={self.h}")
        if not 0 <= self.eccentricity < 1:
            raise ValueError(f"eccentricity must be in [0,1), got {self.eccentricity}")


@dataclass(frozen=True)
class PairResponse:
    J: float                   # meV, Re(p1.E2)
    Gamma: float               # meV, Im(p1.E2)
    n_terms: int
    truncation_estimate: float  # meV, bound on the dropped tail

    @property
    def magnitude(self) -> float:
        return float(np.hypot(self.J, self.Gamma))


@dataclass(frozen=True)
class HsrCouplingForms:
    """Both closed forms for J12 at the super-resonance, plus their ratio."""
    j_loss_length: float  # 8 p^2 / (h*^3 + 2 h^3), h* = d |Im q|
    j_bounce: float       # 4 p^2 / (h^3 + 32 (|Im q / Re q| R)^3)
    ratio: float          # j_loss_length / j_bounce (1.0 exactly on-resonance)


@dataclass(frozen=True)
class DesignWindow:
    h_star: float   # nm
    h_c: float      # nm
    ratio: float    # h_c / h_star (inf for lossless)
    feasible: bool
    margin: float   # the "<<" multiplier used for feasibility


# --- Bessel zeros -------------------------------------------------------------

_J0_ZEROS = np.empty(0)


def bessel_j0_zeros(n: int) -> np.ndarray:
    """First n zeros of J0, cached.

    True zeros (x_1 = 2.40483) rather than the asymptote pi(n - 1/4)
    (= 2.35619 at n=1); the asymptote is accurate to <1e-3 from n=3 on and
    serves only as a mental model here.
    """
    global _J0_ZEROS
    if n > _J0_ZEROS.size:
        _J0_ZEROS = jn_zeros(0, max(n, 2 * _J0_ZEROS.size, 64))
    return _J0_ZEROS[:n]


# --- the resonance condition ---------------------------------------------------

def hsr_frequency(model: MaterialModel, R: float, d: float, m: int,
                  band: HyperbolicBand) -> float:
    """Super-resonance frequency: root of Re sqrt(-eps_perp/eps_par) = 4Rm/d in the band."""
    if m < 1:
        raise ValueError(f"resonance order m must be >= 1, got {m}")
    target = 4.0 * R * m / d
    lo = band.omega_low * (1 + 1e-9) + 1e-9
    hi = band.omega_high * (1 - 1e-9)
    grid = np.linspace(lo, hi, 257)
    req = sqrt_ratio(permittivity_at(model, grid)).real
    idx = np.flatnonzero(np.diff(np.sign(req - target)) != 0)
    if idx.size == 0:
        raise NoResonanceError(
            f"4Rm/d = {target:.4g} is outside the attainable ratio range "
            f"[{req.min():.4g}, {req.max():.4g}] over the band "
            f"[{band.omega_low:.1f}, {band.omega_high:.1f}] cm^-1")
    i = idx[0]
    return float(brentq(lambda w: sqrt_ratio(permittivity_at(model, w)).real - target,
                        grid[i], grid[i + 1], xtol=1e-12, rtol=_BRENTQ_RTOL, maxiter=200))


def hsr_aspect(model: MaterialModel, omega: float, m: int) -> float:
    """Aspect ratio d/R putting the order-m super-resonance at omega."""
    if m < 1:
        raise ValueError(f"resonance order m must be >= 1, got {m}")
    eps = permittivity_at(model, omega)
    require_hyperbolic(eps)
    return 4.0 * m / sqrt_ratio(eps).real


def jc_coupling_g(p: float, omega: float, d: float, h: float, m: int) -> float:
    """Single-emitter cavity coupling at the order-m super-resonance.

    hbar g = (1 - cos(pi m / 2))/2 * sqrt(p^2 hbar w / (3 d h^2)) in meV;
    vanishes identically for m = 0 mod 4 (a warning, not an error).
    """
    if not (d > 0 and h > 0):
        raise ValueError(f"need d > 0 and h > 0, got d={d}, h={h}")
    pref = 0.5 * (1.0 - np.cos(np.pi * m / 2.0))
    if pref == 0.0:
        warnings.warn(f"coupling prefactor vanishes for resonance order m={m}",
                      stacklevel=2)
        return 0.0
    return float(pref * np.sqrt(p * p * E2_PER_NM_MEV * omega_to_mev(omega) / (3.0 * d * h * h)))


# --- the coupling series --------------------------------------------------------

def _series_ingredients(eps: UniaxialPermittivity, eps0: complex):
    q = sqrt_ratio(eps)
    beta = 0.5 * (eps0 * q / eps.eps_perp - eps.eps_perp / (eps0 * q))
    A = 1.0 / (1.0 + 1j * beta)
    v = (eps0 / eps.eps_parallel) * sqrt_ratio_inv(eps)
    r_eff = ((1.0 + 1j * v) / (1.0 - 1j * v)) ** 2
    return q, beta, A, r_eff


def effective_reflection(eps: UniaxialPermittivity, eps0: complex) -> complex:
    """Round-trip reflection factor of the periodic ray, |r_eff| <= 1 for passive media."""
    return _series_ingredients(eps, eps0)[3]


def _inv_D_direct(theta: np.ndarray, beta: complex) -> np.ndarray:
    """1/(cos theta + beta sin theta); overflow-safe for large |Im theta|."""
    with np.errstate(over="ignore", invalid="ignore"):
        D = np.cos(theta) + beta * np.sin(theta)
        out = np.where(np.abs(theta.imag) > 300.0, 0.0, 1.0 / np.where(D == 0, np.inf, D))
    return out


def _inv_D_resummed(theta: np.ndarray, A: complex, r_eff: complex) -> np.ndarray:
    """Bounce-resummed identity 2A e^{i th}/(1 - r e^{2 i th}), stable both branches."""
    grow = theta.imag < 0  # Im th < 0: w = e^{-i th} and 2A w/(w^2 - r), so |w| <= 1
    w = np.exp(1j * np.where(grow, -theta, theta))
    w2 = w * w
    return 2.0 * A * w / np.where(grow, w2 - r_eff, 1.0 - r_eff * w2)


def _rho_cav(theta: np.ndarray, r1: complex) -> np.ndarray:
    """Cavity reflection r1 (1 - e^{2 i th})/(1 - r1^2 e^{2 i th}); u = e^{+-2 i th}, |u| <= 1."""
    grow = theta.imag < 0
    u = np.exp(2j * np.where(grow, -theta, theta))
    return r1 * np.where(grow, u - 1.0, 1.0 - u) / np.where(grow, u - r1 * r1, 1.0 - r1 * r1 * u)


def _tail_bound(x_last: float, kappa: np.ndarray, amp: float) -> np.ndarray:
    """Bound sum_{x > x_last} x^2 e^{-kappa x} * amp / pi via the integral, per cell."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = x_last
        integral = np.exp(-kappa * x) * (x * x / kappa + 2 * x / kappa**2 + 2 / kappa**3)
        return np.where(kappa <= 0, np.inf, amp * integral / np.pi)


def _pair_series(eps: UniaxialPermittivity, eps0: complex, R: float, d: np.ndarray,
                 h: float, p1: float, p2: float, placement: str, formulation: str,
                 tol: float, n_terms: int | None = None):
    """The coupling series for a vector of resonator lengths d sharing one omega.

    Returns (total, n, bound) per cell: the complex sum p1.E2 in meV, the
    number of terms used and the tail bound in meV.  Each cell is evaluated
    as a (cells x terms) block; in adaptive mode (n_terms None) every cell
    follows the same 64 -> 4096 block doubling and leaves the active set once
    its own tail bound is below tol relative.
    """
    cells = d.size
    if p1 == 0 or p2 == 0:
        return np.zeros(cells, dtype=complex), np.zeros(cells, dtype=int), np.zeros(cells)
    q, beta, A, r_eff = _series_ingredients(eps, eps0)
    # asymptotic per-term decay rate in x (spacer decay + one-way absorption)
    h_exp = h if placement == "opposite_sides" else 2.0 * h
    kappa = h_exp / R + abs(q.imag) * d / R * (1 if placement == "opposite_sides" else 0)

    prefac = 2.0 * np.pi * p1 * p2 / R**3 * E2_PER_NM_MEV
    if placement == "self":
        v = (eps0 / eps.eps_parallel) * sqrt_ratio_inv(eps)
        r1 = -(1.0 + 1j * v) / (1.0 - 1j * v)

    def block_sums(x: np.ndarray, dcol: np.ndarray) -> np.ndarray:
        theta = q * x * dcol / R
        if placement == "opposite_sides":
            if formulation == "direct":
                inv = _inv_D_direct(theta, beta)
            else:
                inv = _inv_D_resummed(theta, A, r_eff)
            return np.sum(-prefac * x**2 * np.exp(-x * h / R) * inv, axis=1)
        return np.sum(prefac * x**2 * np.exp(-2.0 * x * h / R) * _rho_cav(theta, r1), axis=1)

    amp = abs(prefac) * max(2.0 * abs(A) / max(1.0 - abs(r_eff), 1e-3), 4.0)

    if n_terms is not None:
        x = bessel_j0_zeros(n_terms)
        return (block_sums(x, d[:, None]), np.full(cells, n_terms),
                _tail_bound(float(x[-1]), kappa, amp))

    # adaptive: grow in blocks until each cell's tail bound is below tol relative
    total = np.zeros(cells, dtype=complex)
    n = np.zeros(cells, dtype=int)
    bound = np.full(cells, np.inf)
    active = np.arange(cells)
    n_done = 0
    block = 64
    max_terms = 32768
    while active.size:
        x = bessel_j0_zeros(n_done + block)[n_done:]
        total[active] += block_sums(x, d[active, None])
        n_done += block
        n[active] = n_done
        b = _tail_bound(float(x[-1]), kappa[active], amp)
        bound[active] = b
        t = total[active]
        scale = np.maximum(np.maximum(np.abs(t.real), np.abs(t.imag)), 1e-300)
        active = active[~((b <= tol * scale) | (b <= 1e-18))]
        if active.size and n_done >= max_terms:
            where = f" in {active.size} of {cells} cells" if cells > 1 else ""
            warnings.warn(f"pair_response series stopped at {n_done} terms with tail bound "
                          f"{bound[active].max():.3g} meV{where}", stacklevel=3)
            break
        block = min(2 * block, 4096)
    return total, n, bound


def pair_response(model: MaterialModel, geom: ResonatorGeometry, omega: float,
                  p1: float, p2: float, placement: str = "opposite_sides",
                  n_terms: int | None = None, formulation: str = "resummed",
                  orientation: str = "z", tol: float = 1e-10) -> PairResponse:
    """Spin-exchange J and decay Gamma from the Bessel-zero coupling series.

    placement="opposite_sides": emitters above and below the resonator, the
    configuration with the series quoted in the module docstring.
    placement="self": the like-side response of one emitter to its own
    reflected field, evaluated as the bounce-resummed cavity reflection

        p.E_self = (2 pi p^2 / R^3) sum_n x_n^2 e^{-2 x_n h / R} rho_cav(x_n),
        rho_cav  = r1 (1 - e^{2 i theta}) / (1 - r1^2 e^{2 i theta}),

    with r1 the single-bounce factor of r_eff = r1^2.  Its imaginary part is
    the series counterpart of the material-absorption decoherence rate; use
    gamma_self() for the quantitative closed forms.  It is exactly real for
    lossless media and diverges as h -> 0 (the well-known point-emitter
    decoherence divergence in a continuous hyperbolic medium).

    When n_terms is None the series is extended adaptively until a rigorous
    exponential tail bound drops below tol (relative); the achieved bound is
    reported as truncation_estimate (meV).  formulation selects the direct
    D_n sum or the algebraically identical bounce-resummed evaluation.
    """
    if orientation != "z":
        raise NotImplementedError("only dipoles along the symmetry axis are supported")
    if placement not in ("opposite_sides", "self"):
        raise ValueError(f"unknown placement {placement!r}")
    if formulation not in ("resummed", "direct"):
        raise ValueError(f"unknown formulation {formulation!r}")
    if placement == "self" and geom.h <= 0:
        raise DivergenceError(
            "self response diverges for h -> 0 (point emitter in a continuous "
            "hyperbolic medium)")
    if p1 == 0 or p2 == 0:
        return PairResponse(0.0, 0.0, 0, 0.0)
    eps = permittivity_at(model, omega)
    if n_terms is not None and n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    total, n, bound = _pair_series(eps, complex(geom.eps_spacer), geom.R,
                                   np.array([geom.d], dtype=float), geom.h, p1, p2,
                                   placement, formulation, tol, n_terms)
    return PairResponse(float(total[0].real), float(total[0].imag), int(n[0]),
                        float(bound[0]))


# --- closed forms ----------------------------------------------------------------

def coupling_J12_hsr(model: MaterialModel, geom: ResonatorGeometry, omega_r: float,
                     p: float, order: int = 1) -> HsrCouplingForms:
    """Both closed forms of the super-resonance coupling, as a labeled pair.

    j_loss_length = 8 p^2 / (h*^3 + 2 h^3) with the loss length
    h* = d |Im sqrt(-eps_perp/eps_par)|; j_bounce = 4 p^2 / (h^3 +
    32 (|Im q / Re q| R)^3).  When the geometry satisfies the order-m
    resonance condition d = 4Rm/Re q, the two are algebraically identical
    and ratio = 1; off-resonance they differ through where the loss length
    is evaluated.
    """
    eps = permittivity_at(model, omega_r)
    require_hyperbolic(eps)
    q = sqrt_ratio(eps)
    h, R, d = geom.h, geom.R, geom.d
    hstar = d * abs(q.imag)
    p2 = p * p * E2_PER_NM_MEV
    j_a = 8.0 * p2 / (hstar**3 + 2.0 * h**3)
    j_b = 4.0 * p2 / (h**3 + 32.0 * (abs(q.imag / q.real) * R * order) ** 3)
    return HsrCouplingForms(j_loss_length=float(j_a), j_bounce=float(j_b),
                            ratio=float(j_a / j_b))


def elliptic_correction(J: float, e_h: float) -> float:
    """Coupling in the elliptic-cylinder geometry: J' = (1 - e^2)/(2e) * J."""
    if not 0 < e_h < 1:
        raise DivergenceError(
            f"elliptic correction requires 0 < e_h < 1 (diverges in the circular "
            f"limit), got {e_h}")
    return (1.0 - e_h * e_h) / (2.0 * e_h) * J


def gamma_self(model: MaterialModel, geom: ResonatorGeometry, omega: float,
               p: float, method: str = "closed_form") -> float:
    """Material-absorption decoherence rate of one emitter, in meV.

    method="quadrature" evaluates

        Gamma = p^2/(2 h^3) |Re[eps0 (eps_perp - eps_par) q / eps_par^2]|
                * Int_0^inf dt t^2 e^-t tanh(|Im q| (d/h) t)

    by adaptive quadrature (relative 1e-8); "closed_form" the interpolating
    expression prefactor / sqrt(1 + h^2/(3 h*)^2); "closed_form_alt" the
    variant with prefactor |Re[(eps_perp/eps_par)^2 (1 - eps_perp/eps_par)]|
    and the same h dependence.  All three vanish for lossless media and
    diverge as h -> 0.
    """
    if not geom.h > 0:
        raise DivergenceError("gamma_self diverges for h -> 0")
    eps = permittivity_at(model, omega)
    q = sqrt_ratio(eps)
    h, d = geom.h, geom.d
    hstar = d * abs(q.imag)
    p2h3 = p * p * E2_PER_NM_MEV / h**3
    if method == "closed_form_alt":
        pref = abs((((eps.eps_perp / eps.eps_parallel) ** 2)
                    * (1.0 - eps.eps_perp / eps.eps_parallel)).real)
        if hstar == 0.0:
            return 0.0
        return float(p2h3 * pref * 3.0 * hstar / np.sqrt(h * h + 9.0 * hstar * hstar))
    pref = abs((complex(geom.eps_spacer) * (eps.eps_perp - eps.eps_parallel)
                * q / eps.eps_parallel**2).real)
    if method == "closed_form":
        if hstar == 0.0:
            return 0.0
        return float(p2h3 * pref / np.sqrt(1.0 + h * h / (3.0 * hstar) ** 2))
    if method == "quadrature":
        b = abs(q.imag) * d / h
        if b == 0.0:
            return 0.0
        val, _ = quad(lambda t: t * t * np.exp(-t) * np.tanh(b * t),
                      0.0, np.inf, epsrel=1e-8, limit=200)
        return float(0.5 * p2h3 * pref * val)
    raise ValueError(f"unknown method {method!r}")


def bulk_axis_J12(eps: UniaxialPermittivity, p: float, R: float) -> float:
    """Coupling of two dipoles on the axis of a bulk hyperbolic cylinder.

    J12 = p^2/(8 R^3) * Re[(1/eps_perp)(1 + eps_par eps_perp)/(1 - eps_par
    eps_perp)] / (Im sqrt(-eps_par/eps_perp))^3 in meV; the ultra-strong
    coupling estimate for emitters embedded in the medium itself.
    """
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    prod = eps.eps_parallel * eps.eps_perp
    if prod == 1:
        raise ZeroDivisionError("eps_par * eps_perp = 1: pole of the bulk response")
    im_inv = sqrt_ratio_inv(eps).imag
    if not im_inv > 0:
        raise NonHyperbolicError("requires Im sqrt(-eps_par/eps_perp) > 0 (lossy hyperbolic)")
    factor = ((1.0 / eps.eps_perp) * (1.0 + prod) / (1.0 - prod)).real
    return float(p * p * E2_PER_NM_MEV / (8.0 * R**3) * factor / im_inv**3)


def design_window(model: MaterialModel, geom: ResonatorGeometry, omega: float,
                  r_eg: float, margin: float = 10.0) -> DesignWindow:
    """Feasibility window h* << h <= h_c for the spacer thickness.

    h* = d |Im sqrt(-eps_perp/eps_par)| is the loss length below which
    self-decoherence dominates; h_c = 40 (e^2 r_eg^2 / hbar w)^(1/3) the
    largest spacer retaining strong coupling.  feasible iff
    h >= margin * h* and h <= h_c.
    """
    if not r_eg > 0:
        raise ValueError(f"r_eg must be positive, got {r_eg}")
    eps = permittivity_at(model, omega)
    q = sqrt_ratio(eps)
    h_star = geom.d * abs(q.imag)
    h_c = 40.0 * (E2_PER_NM_MEV * r_eg * r_eg / omega_to_mev(omega)) ** (1.0 / 3.0)
    ratio = float("inf") if h_star == 0 else h_c / h_star
    feasible = geom.h >= margin * h_star and geom.h <= h_c
    return DesignWindow(h_star=float(h_star), h_c=float(h_c), ratio=float(ratio),
                        feasible=bool(feasible), margin=margin)


# --- the resonance map -------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceMap:
    omegas: np.ndarray        # cm^-1, rows
    aspects: np.ndarray       # d/R, columns
    log10_magnitude: np.ndarray  # log10 |J + i Gamma| (meV), shape (n_omega, n_aspect)


def resonance_map(model: MaterialModel, geom: ResonatorGeometry,
                  omega_range: tuple[float, float], aspect_range: tuple[float, float],
                  shape: tuple[int, int] = (64, 64), p: float = 1.0,
                  tol: float = 1e-8) -> ResonanceMap:
    """log10 |pair response| over an (omega, d/R) grid at fixed R, h, p.

    The ridge of maxima traces the super-resonance locus
    Re sqrt(-eps_perp/eps_par)(w) = 4 m / (d/R).  Each omega row is one
    block evaluation of the opposite-sides series of pair_response (resummed
    formulation) over all aspects, so memory stays bounded by one row.
    """
    n_w, n_a = shape
    omegas = np.linspace(*omega_range, n_w)
    aspects = np.linspace(*aspect_range, n_a)
    d = aspects * geom.R
    if not np.all(d > 0):
        raise ValueError(f"need d/R > 0 over the map, got aspect range {aspect_range}")
    out = np.empty((n_w, n_a))
    for i, w in enumerate(omegas):
        total, _, _ = _pair_series(permittivity_at(model, w), complex(geom.eps_spacer),
                                   geom.R, d, geom.h, p, p, "opposite_sides", "resummed",
                                   tol)
        out[i] = np.log10(np.maximum(np.hypot(total.real, total.imag), 1e-300))
    return ResonanceMap(omegas=omegas, aspects=aspects, log10_magnitude=out)


def hsr_locus_aspect(model: MaterialModel, omega, m: int = 1):
    """d/R of the order-m super-resonance at omega, or None outside the band.

    An array of omegas gives an array of d/R, NaN outside the band.
    """
    eps = permittivity_at(model, omega)
    with np.errstate(divide="ignore", invalid="ignore"):  # eps_par = 0 is outside the band
        req = np.sqrt(-eps.eps_perp / eps.eps_parallel).real
        aspect = np.where(eps.is_hyperbolic & (req > 0), 4.0 * m / req, np.nan)
    if aspect.ndim:
        return aspect
    return None if np.isnan(aspect) else float(aspect)
