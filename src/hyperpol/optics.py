"""Quasistatic electrodynamics of point dipoles in uniaxial (hyperbolic) media.

TM dispersion, the conical emission direction, the closed-form dipole field,
and the focal structure of a cylindrical hyperbolic waveguide.  Everything is
Gaussian-unit: a dipole moment in e*nm at a distance in nm produces fields in
e/nm^2; dotting with another moment and multiplying by E2_PER_NM_MEV gives
meV.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import free_space_k
from .errors import ConeSingularityError, NonHyperbolicError, SingularMediumError
from .material import UniaxialPermittivity


@dataclass(frozen=True)
class DipoleSource:
    moment: np.ndarray    # (3,) in e*nm
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))  # nm

    def __post_init__(self):
        object.__setattr__(self, "moment", np.asarray(self.moment, dtype=complex))
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if self.moment.shape != (3,) or self.position.shape != (3,):
            raise ValueError("moment and position must be 3-vectors")


@dataclass(frozen=True)
class FieldSample:
    position: np.ndarray   # nm
    e_field: np.ndarray    # complex (3,), e/nm^2
    intensity: float       # |E|^2


@dataclass(frozen=True)
class FocalStructure:
    delta_z: float        # nm, spacing of consecutive foci (m=1)
    widths: list[float]   # nm, delta-z_m for m = 1..m_max
    a0: float             # nm, atomic-scale cutoff


@dataclass(frozen=True)
class FieldGrid:
    rho: tuple[float, float, int]  # (min, max, n) in nm
    z: tuple[float, float, int]

    def rho_axis(self) -> np.ndarray:
        return np.linspace(*self.rho[:2], self.rho[2])

    def z_axis(self) -> np.ndarray:
        return np.linspace(*self.z[:2], self.z[2])


# --- sqrt-ratio helpers -----------------------------------------------------
#
# q = sqrt(-eps_perp/eps_par) on the principal branch has Re q > 0 and
# Im q <= 0 for passive media inside a hyperbolic band; formulas quoting
# |Im sqrt(...)| use the absolute value.

def sqrt_ratio(eps: UniaxialPermittivity):
    """q for one permittivity (a complex) or for arrays of them (an array)."""
    if np.any(eps.eps_parallel == 0):
        raise SingularMediumError("eps_parallel = 0")
    q = np.sqrt(-eps.eps_perp / eps.eps_parallel)
    return q if q.ndim else complex(q)


def sqrt_ratio_inv(eps: UniaxialPermittivity) -> complex:
    if eps.eps_perp == 0:
        raise SingularMediumError("eps_perp = 0")
    return complex(np.sqrt(-eps.eps_parallel / eps.eps_perp))


def require_hyperbolic(eps: UniaxialPermittivity) -> None:
    if not eps.is_hyperbolic:
        raise NonHyperbolicError(
            f"Re[eps_par*eps_perp] >= 0 at omega={eps.omega} cm^-1 "
            f"(eps_par={eps.eps_parallel:.4g}, eps_perp={eps.eps_perp:.4g})")


# --- operations --------------------------------------------------------------

def tm_kperp(eps: UniaxialPermittivity, k_parallel: float, omega: float) -> complex:
    """Transverse wavenumber of the TM branch.

    Solves eps_par k_par^2 + eps_perp k_perp^2 = eps_par eps_perp (w/c)^2 for
    k_perp, choosing the decaying/outgoing branch Im k_perp >= 0 (Re >= 0 on
    the real axis).  Units rad/nm; omega in cm^-1.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if eps.eps_perp == 0:
        raise SingularMediumError("eps_perp = 0: TM dispersion is singular")
    k0 = free_space_k(omega)
    kperp2 = eps.eps_parallel * k0**2 - (eps.eps_parallel / eps.eps_perp) * k_parallel**2
    kperp = complex(np.sqrt(kperp2))
    if kperp.imag < 0 or (kperp.imag == 0 and kperp.real < 0):
        kperp = -kperp
    return kperp


def emission_angle(eps: UniaxialPermittivity) -> float:
    """Conical emission direction, theta = arctan sqrt(-Re eps_par / Re eps_perp).

    Uses real parts (ray picture).  On the emission cone z = rho * tan(theta),
    so theta is the polar angle measured from the plane normal to the symmetry
    axis.  Raises for non-hyperbolic input.
    """
    require_hyperbolic(eps)
    # Re[eps_par*eps_perp] < 0 makes the ratio positive for both band types
    ratio = -eps.eps_parallel.real / eps.eps_perp.real
    return float(np.arctan(np.sqrt(ratio)))


def _field(eps: UniaxialPermittivity, moment: np.ndarray, rvec: np.ndarray):
    """Dipole field at displacements rvec (..., 3) from the source, and its singular mask.

    Returns (e, singular): the complex field (..., 3) in e/nm^2 and a boolean
    mask (...) of the points on the lossless resonance cone or on the source
    itself, where the field is not defined and e holds no meaningful value.
    """
    if eps.eps_parallel == 0:
        raise SingularMediumError("eps_parallel = 0")
    if eps.eps_perp == 0:
        raise SingularMediumError("eps_perp = 0: the field divides by sqrt(eps_par eps_perp)")
    x, y, z = np.moveaxis(rvec, -1, 0)
    a = eps.eps_perp / eps.eps_parallel
    s = x * x + y * y + a * z * z
    # catastrophic cancellation = the lossless resonance cone (s = scale = 0 on the source)
    scale = x * x + y * y + abs(a) * z * z
    singular = np.abs(s) <= 1e-12 * scale
    px, py, pz = moment
    u = px * x + py * y + a * pz * z
    norm = np.sqrt(eps.eps_parallel * eps.eps_perp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s32 = s ** -1.5
        s52 = s ** -2.5
        e = ((3.0 * s52 * u)[..., None] * np.stack([x, y, a * z], axis=-1)
             - s32[..., None] * np.array([px, py, a * pz])) / norm
    return e, singular


def dipole_field(eps: UniaxialPermittivity, src: DipoleSource, r) -> FieldSample:
    """Closed-form quasistatic field of a point dipole in the uniaxial medium.

    From the anisotropic Poisson equation, the potential of a dipole p at the
    origin is phi = -(p . grad f)/sqrt(eps_par eps_perp) with
    f = 1/sqrt(rho^2 + (eps_perp/eps_par) z^2); the field is E = -grad phi,
    evaluated here with analytic derivatives (principal-branch complex roots):

        E = [3 s^{-5/2} u (x, y, a z) - s^{-3/2} (p_x, p_y, a p_z)]
            / sqrt(eps_par eps_perp)

    where a = eps_perp/eps_par, s = x^2+y^2+a z^2, u = p_x x + p_y y + a p_z z.
    In the isotropic limit this is the static dipole field (2p/z^3 on axis).
    For lossless hyperbolic media s vanishes on the resonance cone
    z = rho*sqrt(-eps_par/eps_perp); evaluation there raises, as does a
    vanishing permittivity component (SingularMediumError).
    """
    r = np.asarray(r, dtype=float)
    rvec = r - src.position
    e, singular = _field(eps, src.moment, rvec)
    if not np.any(rvec):
        raise ValueError("field point coincides with the source")
    if singular:
        raise ConeSingularityError(
            "on the lossless resonance cone z = rho*sqrt(-eps_par/eps_perp)")
    return FieldSample(position=r, e_field=e, intensity=float(np.sum(np.abs(e) ** 2)))


def waveguide_foci(eps: UniaxialPermittivity, R: float, a0: float = 0.3,
                   m_max: int = 5) -> FocalStructure:
    """Auto-focusing structure of a point source on the axis of a hyperbolic cylinder.

    Focal spacing Delta z = 2 m R / Re sqrt(-eps_perp/eps_par) (reported for
    m=1) and widths delta-z_m = max{a0, 2 m |Im sqrt(-eps_perp/eps_par)|
    / |eps_perp/eps_par|^{3/4} * R}, absorption-limited but never below the
    atomic cutoff a0.
    """
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    require_hyperbolic(eps)
    q = sqrt_ratio(eps)
    if not q.real > 0:
        raise NonHyperbolicError("Re sqrt(-eps_perp/eps_par) must be positive")
    delta_z = 2.0 * R / q.real
    mag34 = abs(eps.eps_perp / eps.eps_parallel) ** 0.75
    widths = [max(a0, 2.0 * m * abs(q.imag) / mag34 * R) for m in range(1, m_max + 1)]
    return FocalStructure(delta_z=float(delta_z), widths=widths, a0=a0)


def field_map(eps: UniaxialPermittivity, src: DipoleSource, grid: FieldGrid) -> np.ndarray:
    """|E|^2 on a (z, rho) grid; NaN marks cone-singular points and the source.

    Row-major: rows indexed by z, columns by rho (y coordinate fixed to 0).
    Raises SingularMediumError when a permittivity component vanishes.
    """
    z, rho = np.meshgrid(grid.z_axis(), grid.rho_axis(), indexing="ij")
    points = np.stack([rho, np.zeros_like(rho), z], axis=-1)
    e, singular = _field(eps, src.moment, points - src.position)
    intensity = np.sum(np.abs(e) ** 2, axis=-1)
    intensity[singular] = np.nan
    return intensity
