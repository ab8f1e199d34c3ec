"""Driven XY-exchange Lindblad dynamics for small qubit registers.

The register Hamiltonian (rotating frame of the drive, energies in meV)

    H = sum_j (hbar w_j / 2) sz_j
        - sum_{i != j} theta_i theta_j J_ij  seg_i sge_j
        + sum_j (Omega_j e^{-i Delta_j t} seg_j + Omega_j* e^{+i Delta_j t} sge_j)

and the dissipator

    L[rho] = sum_{ij} c_ij (2 sge_i rho seg_j - seg_i sge_j rho - rho seg_i sge_j),
    c_ij = theta_i theta_j Gamma_ij + delta_ij (1 - theta_j) gamma_j,

with d rho/dt = (i/hbar)[rho, H] + L[rho]/hbar; J, Gamma, gamma are energies
(meV) and hbar = 0.6582119 meV ps converts to rates.  The drive line is
implemented as the Hermitian pair (the raising operator plus its conjugate).
Basis ordering: qubit 0 is the least significant bit, |g> = 0, |e> = 1.
Each segment builds its generator once.  ``evolve`` applies it in operator
form (d x d products, d = 2^N); ``channel_superoperator`` and
``liouvillian_matrix`` form the dense 4^N x 4^N generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .constants import HBAR_MEV_PS
from .errors import ChannelError, TraceDriftError
from .integrate import integrate

_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)   # |e><e| - |g><g|
_SEG = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|
_SGE = _SEG.T.conj()
_I2 = np.eye(2, dtype=complex)

MAX_QUBITS = 12


def gamma_from_lifetime(tau_ps: float) -> float:
    """Linewidth (meV) of a state with lifetime tau: gamma = hbar/(2 tau).

    The factor-2 convention maps a population lifetime to the decoherence
    energy entering the dissipator; donor coherence times of ~300 ps map to
    gamma ~ 1.1 ueV.
    """
    if not tau_ps > 0:
        raise ValueError(f"lifetime must be positive, got {tau_ps}")
    return HBAR_MEV_PS / (2.0 * tau_ps)


@dataclass(frozen=True)
class QubitSpec:
    omega_eg: float            # meV transition energy (possibly Stark-shifted)
    p: float                   # e*nm dipole magnitude
    gamma_background: float = 0.0  # meV, dielectric-regime decoherence
    theta: bool = False        # in the hyperbolic band?
    detuning: float = 0.0      # meV vs drive

    def __post_init__(self):
        if self.gamma_background < 0 or self.p < 0:
            raise ValueError("gamma_background and p must be >= 0")


@dataclass
class CouplingMatrix:
    J: np.ndarray      # (N, N) meV, symmetric, zero diagonal used
    Gamma: np.ndarray  # (N, N) meV, symmetric, PSD

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        self.Gamma = np.asarray(self.Gamma, dtype=float)
        if self.J.shape != self.Gamma.shape or self.J.ndim != 2 \
                or self.J.shape[0] != self.J.shape[1]:
            raise ValueError("J and Gamma must be square matrices of equal shape")
        if not np.allclose(self.J, self.J.T, atol=1e-12):
            raise ValueError("J must be symmetric")
        if not np.allclose(self.Gamma, self.Gamma.T, atol=1e-12):
            raise ValueError("Gamma must be symmetric")
        self.Gamma = _project_psd(self.Gamma)


def _project_psd(gamma: np.ndarray, noise_floor: float = 1e-10) -> np.ndarray:
    """Clip eigenvalues in (-noise_floor, 0) to zero; error below the floor."""
    vals, vecs = np.linalg.eigh(gamma)
    if vals.min() < -noise_floor:
        raise ValueError(
            f"Gamma matrix is indefinite (min eigenvalue {vals.min():.3g}); "
            "not a valid dissipator")
    if vals.min() < 0:
        vals = np.clip(vals, 0.0, None)
        return (vecs * vals) @ vecs.T
    return gamma


@dataclass(frozen=True)
class Segment:
    duration: float                     # ps
    theta: tuple[bool, ...]             # per qubit
    drive: tuple[complex, ...] = ()     # meV, p*.E amplitude; empty = off
    detuning: tuple[float, ...] = ()    # meV

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("segment duration must be positive")


@dataclass(frozen=True)
class ControlSchedule:
    segments: tuple[Segment, ...]

    @property
    def total_time(self) -> float:
        return sum(s.duration for s in self.segments)


@dataclass
class Trajectory:
    times: np.ndarray           # ps
    states: list[np.ndarray]    # density matrices

    def populations(self) -> np.ndarray:
        return np.array([np.real(np.diag(r)) for r in self.states])

    def purity(self) -> np.ndarray:
        return np.array([float(np.real(np.trace(r @ r))) for r in self.states])

    def trace_error(self) -> np.ndarray:
        return np.array([abs(np.trace(r) - 1.0) for r in self.states])


@dataclass
class GateResult:
    final_rho: np.ndarray | None
    process_matrix: np.ndarray   # d^2 x d^2 superoperator, column-stacking
    avg_fidelity: float
    gate_time: float             # ps
    trajectory: Trajectory | None = None


# --- operator construction -----------------------------------------------------

def _site_op(op: np.ndarray, j: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at site j (qubit 0 = least significant)."""
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(op if k == j else _I2, out)
    return out


class _Register:
    """Cached operators for an N-qubit register."""

    def __init__(self, n: int):
        if n > MAX_QUBITS:
            raise ValueError(f"dense representation bounded at N={MAX_QUBITS}, got {n}")
        self.n = n
        self.dim = 2 ** n
        self.sz = [_site_op(_SZ, j, n) for j in range(n)]
        self.seg = [_site_op(_SEG, j, n) for j in range(n)]
        self.sge = [_site_op(_SGE, j, n) for j in range(n)]


_REGISTRY: dict[int, _Register] = {}


def _register(n: int) -> _Register:
    if n not in _REGISTRY:
        _REGISTRY[n] = _Register(n)
    return _REGISTRY[n]


def _seg_arrays(qubits, segment: Segment):
    n = len(qubits)
    theta = np.array([1.0 if t else 0.0 for t in segment.theta], dtype=float)
    if theta.size != n:
        raise ValueError("segment theta flags must match the qubit count")
    drive = np.array(segment.drive, dtype=complex) if segment.drive else np.zeros(n, complex)
    if drive.size != n:
        raise ValueError("segment drive amplitudes must match the qubit count")
    det = np.array(segment.detuning, dtype=float) if segment.detuning else np.zeros(n)
    if det.size != n:
        raise ValueError("segment detunings must match the qubit count")
    return theta, drive, det


def _drive_operator(reg: _Register, drive, det, t: float) -> np.ndarray:
    """sum_j (a_j seg_j + a_j* sge_j) with a_j = drive_j e^{-i det_j t / hbar} (meV)."""
    out = np.zeros((reg.dim, reg.dim), dtype=complex)
    for j in np.flatnonzero(drive):
        # drive amplitude is p*.E; it multiplies the raising operator
        a = drive[j] * np.exp(-1j * det[j] * t / HBAR_MEV_PS)
        out += a * reg.seg[j] + np.conj(a) * reg.sge[j]
    return out


def build_hamiltonian(qubits: list[QubitSpec], couplings: CouplingMatrix,
                      segment: Segment, t: float = 0.0) -> np.ndarray:
    """Register Hamiltonian (meV) at time t within the segment."""
    n = len(qubits)
    if couplings.J.shape[0] != n:
        raise ValueError(f"coupling matrix is {couplings.J.shape[0]}x..., register has {n} qubits")
    reg = _register(n)
    theta, drive, det = _seg_arrays(qubits, segment)
    h = np.zeros((reg.dim, reg.dim), dtype=complex)
    for j, q in enumerate(qubits):
        h += 0.5 * q.omega_eg * reg.sz[j]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cij = theta[i] * theta[j] * couplings.J[i, j]
            if cij != 0.0:
                h -= cij * reg.seg[i] @ reg.sge[j]
    h += _drive_operator(reg, drive, det, t)
    return h


class _Generator:
    """The Lindblad generator of one segment, built once, in operator form:

        d rho/dt = G rho + rho G^dag + sum_i sge_i rho W_i,   G = (-iH - K)/hbar,
        K = sum_ij c_ij seg_i sge_j,   W_i = (2/hbar) B_i^dag,   B_i = sum_j c_ij sge_j.

    A detuned drive adds its phase term to G on each call.  Called as f(t, rho)
    with rho of shape (..., d, d); ``H`` overrides the segment's Hamiltonian.
    """

    def __init__(self, qubits: list[QubitSpec], couplings: CouplingMatrix,
                 segment: Segment, H: np.ndarray | None = None):
        n = len(qubits)
        reg = _register(n)
        theta, drive, det = _seg_arrays(qubits, segment)
        c = np.outer(theta, theta) * couplings.Gamma
        c[np.diag_indices(n)] += (1.0 - theta) * [q.gamma_background for q in qubits]
        if np.linalg.eigvalsh(c).min() < -1e-10:
            raise ValueError("dissipator coefficient matrix is indefinite")
        self.detuned = H is None and bool(np.any(drive != 0) and np.any(det != 0))
        if H is None:
            H = build_hamiltonian(qubits, couplings,
                                  replace(segment, drive=()) if self.detuned else segment)
        B = np.tensordot(c, np.array(reg.sge), axes=(1, 0))
        K = sum(reg.seg[i] @ B[i] for i in range(n))
        self.G = (-1j * H - K) / HBAR_MEV_PS
        self.G_dag = self.G.conj().T
        self.jumps = [(reg.sge[i], (2.0 / HBAR_MEV_PS) * B[i].conj().T)
                      for i in range(n) if np.any(c[i] != 0.0)]
        self._reg, self._drive, self._det = reg, drive, det

    def __call__(self, t: float, rho: np.ndarray) -> np.ndarray:
        G, G_dag = self.G, self.G_dag
        if self.detuned:
            G = G - (1j / HBAR_MEV_PS) * _drive_operator(self._reg, self._drive, self._det, t)
            G_dag = G.conj().T
        out = G @ rho + rho @ G_dag
        for s, w in self.jumps:
            out += s @ rho @ w
        return out

    def matrix(self) -> np.ndarray:
        """M with d vec(rho)/dt = M vec(rho), column-stacking: vec(A X B) = (B^T kron A) vec(X)."""
        if self.detuned:
            raise ValueError("liouvillian_matrix requires time-independent H (zero detuning)")
        eye = np.eye(len(self.G))
        return (np.kron(eye, self.G) + np.kron(self.G.conj(), eye)
                + sum(np.kron(w.T, s) for s, w in self.jumps))


def lindblad_rhs(rho: np.ndarray, H: np.ndarray, qubits: list[QubitSpec],
                 couplings: CouplingMatrix, segment: Segment) -> np.ndarray:
    """d rho / dt in 1/ps."""
    return _Generator(qubits, couplings, segment, H)(0.0, rho)


def liouvillian_matrix(qubits: list[QubitSpec], couplings: CouplingMatrix,
                       segment: Segment) -> np.ndarray:
    """Vectorized generator M with d vec(rho)/dt = M vec(rho), column-stacking.

    Drive phases must be static (detuning 0) for the matrix form to apply.
    Propagation is expm(M t) vec(rho0).
    """
    return _Generator(qubits, couplings, segment).matrix()


# --- states and validation -------------------------------------------------------

def basis_state(label: str) -> np.ndarray:
    """Density matrix |label><label|; label like 'eg' = qubit0 e, qubit1 g."""
    n = len(label)
    idx = 0
    for j, ch in enumerate(label):
        if ch == "e":
            idx |= 1 << j
        elif ch != "g":
            raise ValueError(f"state label may contain only 'g'/'e', got {label!r}")
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[idx, idx] = 1.0
    return rho


def validate_density_matrix(rho: np.ndarray, trace_tol: float = 1e-10,
                            herm_tol: float = 1e-12, eig_tol: float = 1e-8) -> None:
    if abs(np.trace(rho) - 1.0) > trace_tol:
        raise ValueError(f"trace deviates by {abs(np.trace(rho)-1.0):.3g}")
    if np.max(np.abs(rho - rho.T.conj())) > herm_tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    if np.linalg.eigvalsh(0.5 * (rho + rho.T.conj())).min() < -eig_tol:
        raise ValueError("matrix has a significantly negative eigenvalue")


# --- evolution -------------------------------------------------------------------

def evolve(rho0: np.ndarray, qubits: list[QubitSpec], couplings: CouplingMatrix,
           schedule: ControlSchedule, tol: float = 1e-10, check: bool = True,
           fixed_step: float | None = None) -> Trajectory:
    """Integrate the master equation through the schedule.

    Segment boundaries are exact step boundaries.  Drive phases restart at
    each segment (t is segment-local); fold any accumulated phase into the
    next segment's complex amplitude.  The trace is monitored at every
    accepted step and never renormalized: drift beyond 1e-8 aborts with
    diagnostics.  Positivity is checked at segment boundaries when
    ``check`` is set.
    """
    rho = np.array(rho0, dtype=complex)
    if check:
        validate_density_matrix(rho)
    times = [0.0]
    states = [rho.copy()]
    t_offset = 0.0
    for seg in schedule.segments:
        def record(t, y, _off=t_offset):
            drift = abs(np.trace(y) - 1.0)
            if drift > 1e-8:
                raise TraceDriftError(
                    f"trace drifted by {drift:.3g} at t={_off + t:.6g} ps "
                    f"(tol budget 1e-8); tighten tol={tol} or shorten segments")
            times.append(_off + t)
            states.append(np.array(y))

        rho = integrate(_Generator(qubits, couplings, seg), 0.0, seg.duration, rho, tol=tol,
                        fixed_step=fixed_step, record=record)
        t_offset += seg.duration
        if check:
            validate_density_matrix(rho, trace_tol=1e-8)
    return Trajectory(times=np.array(times), states=states)


# --- channels and fidelity --------------------------------------------------------

def channel_superoperator(qubits: list[QubitSpec], couplings: CouplingMatrix,
                          schedule: ControlSchedule, tol: float = 1e-10) -> np.ndarray:
    """Column-stacking superoperator of the schedule, composed segment by segment.

    A constant segment contributes expm(M duration) of its generator M.  A
    detuned drive evolves the stack of all d^2 matrix units E_mk with adaptive
    RK45 (the right-hand side is linear, so non-physical inputs evolve directly).
    """
    dim = 2 ** len(qubits)
    S = np.eye(dim * dim, dtype=complex)
    for seg in schedule.segments:
        gen = _Generator(qubits, couplings, seg)
        if gen.detuned:
            # unit p is E_mk with p = k*d + m, so vec(unit p) is basis vector p
            units = np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim).transpose(0, 2, 1)
            out = integrate(gen, 0.0, seg.duration, units, tol=tol)
            S_seg = out.transpose(0, 2, 1).reshape(dim * dim, -1).T
        else:
            S_seg = expm(gen.matrix() * seg.duration)
        S = S_seg @ S
    return S


def unitary_superoperator(u: np.ndarray) -> np.ndarray:
    """vec(U X U^dag) = (conj(U) kron U) vec(X) for column-stacking vec."""
    return np.kron(u.conj(), u)


def average_gate_fidelity(process: np.ndarray, ideal: np.ndarray,
                          tp_tol: float = 1e-6) -> float:
    """Standard average gate fidelity of a channel against an ideal unitary.

    F_avg = (d F_e + 1)/(d + 1) with the entanglement fidelity
    F_e = Tr(S_ideal^dag S)/d^2; equals 1 iff the channel is the ideal
    unitary up to global phase.  Raises if the channel is not
    trace-preserving within tp_tol.
    """
    d2 = process.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2 or process.shape != (d2, d2):
        raise ValueError("process must be a d^2 x d^2 superoperator")
    vec_id = np.eye(d, dtype=complex).T.reshape(-1)
    tp_violation = np.max(np.abs(vec_id @ process - vec_id))
    if tp_violation > tp_tol:
        raise ChannelError(f"channel violates trace preservation by {tp_violation:.3g}")
    s_ideal = unitary_superoperator(ideal)
    fe = np.real(np.trace(s_ideal.conj().T @ process)) / d2
    return float((d * fe + 1.0) / (d + 1.0))


ISWAP = np.array([[1, 0, 0, 0],
                  [0, 0, 1j, 0],
                  [0, 1j, 0, 0],
                  [0, 0, 0, 1]], dtype=complex)


def iswap_gate(qubits: list[QubitSpec], couplings: CouplingMatrix,
               gamma_on: bool = True, tol: float = 1e-10) -> GateResult:
    """Run the two-qubit exchange gate and score it against the ideal iSWAP.

    Both qubits are switched into the hyperbolic band (theta on) for
    t_gate = pi hbar / (2 J12); the XY exchange then swaps the single
    excitations with an i phase.  Worked in the frame rotating at the common
    qubit frequency, where the on-site terms drop out (the dissipator is
    invariant under that frame change for equal-frequency qubits).
    gamma_on=False zeroes all decay channels (unitary reference).
    """
    if len(qubits) != 2:
        raise ValueError("iswap_gate needs exactly two qubits")
    if abs(qubits[0].omega_eg - qubits[1].omega_eg) > 1e-9:
        warnings.warn("qubits have unequal transition energies; the gate assumes "
                      "they are Stark-shifted into mutual resonance", stacklevel=2)
    j12 = couplings.J[0, 1]
    if not j12 > 0:
        raise ValueError(f"need J12 > 0, got {j12}")
    t_gate = np.pi * HBAR_MEV_PS / (2.0 * j12)
    frame_qubits = [
        QubitSpec(omega_eg=0.0, p=q.p,
                  gamma_background=q.gamma_background if gamma_on else 0.0,
                  theta=True, detuning=0.0)
        for q in qubits
    ]
    cps = CouplingMatrix(J=couplings.J,
                         Gamma=couplings.Gamma if gamma_on else np.zeros_like(couplings.Gamma))
    seg = Segment(duration=t_gate, theta=(True, True))
    schedule = ControlSchedule(segments=(seg,))
    process = channel_superoperator(frame_qubits, cps, schedule, tol=tol)
    fid = average_gate_fidelity(process, ISWAP)
    traj = evolve(basis_state("eg"), frame_qubits, cps, schedule, tol=tol)
    return GateResult(final_rho=traj.states[-1], process_matrix=process,
                      avg_fidelity=fid, gate_time=float(t_gate), trajectory=traj)
