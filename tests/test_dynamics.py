import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hyperpol import integrate
from hyperpol.constants import HBAR_MEV_PS
from hyperpol.dynamics import (
    ISWAP,
    ControlSchedule,
    CouplingMatrix,
    QubitSpec,
    Segment,
    average_gate_fidelity,
    basis_state,
    build_hamiltonian,
    channel_superoperator,
    evolve,
    iswap_gate,
    lindblad_rhs,
    liouvillian_matrix,
    unitary_superoperator,
    validate_density_matrix,
    _Generator,
)
from hyperpol.errors import ChannelError, StiffnessError


def pair(J=1.0, g11=0.0, g22=0.0, g12=0.0, omega=0.0, gamma_bg=0.0, theta=True):
    qubits = [QubitSpec(omega_eg=omega, p=1.0, gamma_background=gamma_bg, theta=theta),
              QubitSpec(omega_eg=omega, p=1.0, gamma_background=gamma_bg, theta=theta)]
    cm = CouplingMatrix(J=np.array([[0.0, J], [J, 0.0]]),
                        Gamma=np.array([[g11, g12], [g12, g22]]))
    return qubits, cm


def seg(duration, theta=(True, True), drive=(), detuning=()):
    return Segment(duration=duration, theta=theta, drive=drive, detuning=detuning)


def vec(rho):
    return rho.T.reshape(-1)


def unvec(v, dim):
    return v.reshape(dim, dim).T


# --- hamiltonian -----------------------------------------------------------------

def test_free_hamiltonian_diagonal():
    qubits, cm = pair(J=3.0, omega=10.0, theta=False)
    h = build_hamiltonian(qubits, cm, seg(1.0, theta=(False, False)))
    assert np.allclose(h, np.diag([-10.0, 0.0, 0.0, 10.0]))


def test_exchange_matrix_element():
    qubits, cm = pair(J=2.5, omega=0.0)
    h = build_hamiltonian(qubits, cm, seg(1.0))
    # <eg|H|ge>: qubit0 excited is index 1, qubit1 excited is index 2
    assert h[1, 2] == pytest.approx(-2.5)
    assert h[2, 1] == pytest.approx(-2.5)


def test_theta_gates_exchange():
    qubits, cm = pair(J=2.5)
    h = build_hamiltonian(qubits, cm, seg(1.0, theta=(True, False)))
    assert h[1, 2] == 0.0


@settings(max_examples=25, deadline=None)
@given(j=st.floats(-5, 5), w1=st.floats(-50, 50), w2=st.floats(-50, 50),
       dre=st.floats(-2, 2), dim_=st.floats(-2, 2), det=st.floats(-5, 5),
       t=st.floats(0, 3))
def test_hamiltonian_hermitian(j, w1, w2, dre, dim_, det, t):
    qubits = [QubitSpec(omega_eg=w1, p=1.0, theta=True),
              QubitSpec(omega_eg=w2, p=1.0, theta=True)]
    cm = CouplingMatrix(J=np.array([[0.0, j], [j, 0.0]]), Gamma=np.zeros((2, 2)))
    s = seg(1.0, drive=(complex(dre, dim_), 0.0), detuning=(det, 0.0))
    h = build_hamiltonian(qubits, cm, s, t)
    assert np.max(np.abs(h - h.T.conj())) < 1e-15


def test_dimension_mismatch():
    qubits, cm = pair()
    with pytest.raises(ValueError):
        build_hamiltonian(qubits + [QubitSpec(0.0, 1.0)], cm, seg(1.0, theta=(True,) * 3))


def test_register_bound():
    n = 13
    qubits = [QubitSpec(0.0, 1.0, theta=False) for _ in range(n)]
    cm = CouplingMatrix(J=np.zeros((n, n)), Gamma=np.zeros((n, n)))
    with pytest.raises(ValueError, match="bounded"):
        build_hamiltonian(qubits, cm, seg(1.0, theta=(False,) * n))


# --- dissipator --------------------------------------------------------------------

def test_ground_state_dark():
    qubits, cm = pair(J=0.0, g11=0.5, g22=0.5)
    rho = basis_state("gg")
    h = build_hamiltonian(qubits, cm, seg(1.0))
    drho = lindblad_rhs(rho, h, qubits, cm, seg(1.0))
    assert np.max(np.abs(drho)) < 1e-16


def test_single_qubit_decay_rate():
    g = 0.37
    qubits = [QubitSpec(omega_eg=0.0, p=1.0, theta=True)]
    cm = CouplingMatrix(J=np.zeros((1, 1)), Gamma=np.array([[g]]))
    rho = basis_state("e")
    h = build_hamiltonian(qubits, cm, seg(1.0, theta=(True,)))
    drho = lindblad_rhs(rho, h, qubits, cm, seg(1.0, theta=(True,)))
    assert drho[1, 1].real == pytest.approx(-2.0 * g / HBAR_MEV_PS, rel=1e-14)


def test_background_gamma_when_decoupled():
    g = 0.2
    qubits = [QubitSpec(omega_eg=0.0, p=1.0, gamma_background=g, theta=False)]
    cm = CouplingMatrix(J=np.zeros((1, 1)), Gamma=np.zeros((1, 1)))
    rho = basis_state("e")
    h = build_hamiltonian(qubits, cm, seg(1.0, theta=(False,)))
    drho = lindblad_rhs(rho, h, qubits, cm, seg(1.0, theta=(False,)))
    assert drho[1, 1].real == pytest.approx(-2.0 * g / HBAR_MEV_PS, rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(j=st.floats(-3, 3), g=st.floats(0, 2), w=st.floats(-20, 20),
       a=st.floats(-1, 1), b=st.floats(-1, 1))
def test_rhs_traceless(j, g, w, a, b):
    qubits, cm = pair(J=j, g11=g, g22=g, omega=w)
    # a random valid density matrix
    amp = np.array([1.0, a, b, a * b], dtype=complex)
    amp /= np.linalg.norm(amp)
    rho = np.outer(amp, amp.conj())
    s = seg(1.0)
    h = build_hamiltonian(qubits, cm, s)
    drho = lindblad_rhs(rho, h, qubits, cm, s)
    assert abs(np.trace(drho)) < 1e-14


def test_coupling_matrix_projection():
    # slightly indefinite Gamma is projected to PSD
    eps = 5e-11
    cm = CouplingMatrix(J=np.zeros((2, 2)),
                        Gamma=np.array([[eps, 2 * eps], [2 * eps, eps]]))
    assert np.linalg.eigvalsh(cm.Gamma).min() >= -1e-16
    with pytest.raises(ValueError, match="indefinite"):
        CouplingMatrix(J=np.zeros((2, 2)),
                       Gamma=np.array([[0.0, 1.0], [1.0, 0.0]]))


def _site(op, j, n):
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(op if k == j else np.eye(2), out)
    return out


def reference_rhs(rho, qubits, cm, segment, t):
    """The module docstring's master equation as an explicit double sum (oracle)."""
    n = len(qubits)
    seg_ops = [_site(np.array([[0, 0], [1, 0]], dtype=complex), j, n) for j in range(n)]
    sge_ops = [s.T for s in seg_ops]
    H = build_hamiltonian(qubits, cm, segment, t)
    theta = np.array(segment.theta, dtype=float)
    c = np.outer(theta, theta) * cm.Gamma
    for j, q in enumerate(qubits):
        c[j, j] += (1.0 - theta[j]) * q.gamma_background
    out = (1j / HBAR_MEV_PS) * (rho @ H - H @ rho)
    for i in range(n):
        for j in range(n):
            ss = seg_ops[i] @ sge_ops[j]
            out += (c[i, j] / HBAR_MEV_PS) * (
                2.0 * sge_ops[i] @ rho @ seg_ops[j] - ss @ rho - rho @ ss)
    return out, (np.abs(H).max() + np.abs(c).sum()) / HBAR_MEV_PS


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), data=st.data(), detuned=st.booleans(),
       t=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_generator_against_double_sum(n, data, detuned, t, seed):
    rng = np.random.default_rng(seed)
    theta = tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    qubits = [QubitSpec(omega_eg=w, p=1.0, gamma_background=g, theta=th)
              for w, g, th in zip(rng.uniform(-200, 200, n), rng.uniform(0, 1, n), theta)]
    j = rng.uniform(-50, 50, (n, n))
    a = rng.uniform(-1, 1, (n, n))
    cm = CouplingMatrix(J=j + j.T, Gamma=a @ a.T)
    drive = rng.uniform(-5, 5, n) + 1j * rng.uniform(-5, 5, n)
    drive[rng.random(n) < 0.3] = 0.0
    det = rng.uniform(-20, 20, n) if detuned else np.zeros(n)
    s = Segment(duration=1.0, theta=theta, drive=tuple(drive), detuning=tuple(det))
    x = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    ref, scale = reference_rhs(rho, qubits, cm, s, t)
    bound = 1e-13 * scale
    # the segment's own generator, with the drive phase at t
    assert np.max(np.abs(_Generator(qubits, cm, s)(t, rho) - ref)) <= bound
    h = build_hamiltonian(qubits, cm, s, t)
    assert np.max(np.abs(lindblad_rhs(rho, h, qubits, cm, s) - ref)) <= bound
    if not (detuned and np.any(drive != 0)):
        m = liouvillian_matrix(qubits, cm, s)
        assert np.max(np.abs(unvec(m @ vec(rho), 2**n) - ref)) <= bound
    else:
        with pytest.raises(ValueError, match="time-independent"):
            liouvillian_matrix(qubits, cm, s)


# --- evolution -----------------------------------------------------------------------

def test_free_evolution_populations_and_coherences():
    w1, w2 = 10.0, 4.0
    qubits = [QubitSpec(omega_eg=w1, p=1.0, theta=False),
              QubitSpec(omega_eg=w2, p=1.0, theta=False)]
    cm = CouplingMatrix(J=np.zeros((2, 2)), Gamma=np.zeros((2, 2)))
    amp = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex) / 2.0
    rho0 = np.outer(amp, amp.conj())
    t = 0.7
    traj = evolve(rho0, qubits, cm, ControlSchedule((seg(t, theta=(False, False)),)),
                  tol=1e-12)
    rho = traj.states[-1]
    assert np.allclose(np.diag(rho), np.diag(rho0), atol=1e-10)
    # coherence between |gg> and |eg> rotates at w1/hbar
    expected = 0.25 * np.exp(1j * w1 * t / HBAR_MEV_PS)
    assert rho[0, 1] == pytest.approx(expected, rel=1e-8)


def test_full_exchange():
    J = 1.3
    qubits, cm = pair(J=J)
    t_gate = np.pi * HBAR_MEV_PS / (2 * J)
    traj = evolve(basis_state("eg"), qubits, cm,
                  ControlSchedule((seg(t_gate),)), tol=1e-12)
    rho = traj.states[-1]
    assert rho[2, 2].real == pytest.approx(1.0, abs=1e-8)


def test_dissipative_trace_and_purity():
    J = 1.0
    qubits, cm = pair(J=J, g11=J / 100, g22=J / 100)
    t_gate = np.pi * HBAR_MEV_PS / (2 * J)
    traj = evolve(basis_state("eg"), qubits, cm,
                  ControlSchedule((seg(t_gate),)), tol=1e-11)
    assert traj.trace_error().max() < 1e-10
    assert traj.purity()[-1] < 1.0
    herm = max(np.max(np.abs(r - r.T.conj())) for r in traj.states)
    assert herm < 1e-12
    validate_density_matrix(traj.states[-1], trace_tol=1e-9)


def test_oracle_equivalence():
    J, g = 1.0, 0.05
    qubits, cm = pair(J=J, g11=g, g22=g, omega=7.0)
    s = seg(1.1)
    rho0 = basis_state("eg")
    traj = evolve(rho0, qubits, cm, ControlSchedule((s,)), tol=1e-12)
    M = liouvillian_matrix(qubits, cm, s)
    rho_oracle = unvec(expm(M * 1.1) @ vec(rho0), 4)
    assert np.max(np.abs(traj.states[-1] - rho_oracle)) < 1e-7


def test_three_qubit_oracle():
    # exchange chain with uneven decay rates, against the vectorized generator
    J = np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.7], [0.3, 0.7, 0.0]])
    G = np.diag([0.02, 0.05, 0.01])
    qubits = [QubitSpec(omega_eg=w, p=1.0, theta=True) for w in (3.0, 4.0, 5.0)]
    cm = CouplingMatrix(J=J, Gamma=G)
    s = seg(0.8, theta=(True, True, True))
    rho0 = basis_state("egg")
    traj = evolve(rho0, qubits, cm, ControlSchedule((s,)), tol=1e-12)
    M = liouvillian_matrix(qubits, cm, s)
    rho_oracle = unvec(expm(M * 0.8) @ vec(rho0), 8)
    assert np.max(np.abs(traj.states[-1] - rho_oracle)) < 1e-7
    assert traj.trace_error().max() < 1e-10


def test_convergence_order_at_least_four():
    J, g = 1.0, 0.02
    qubits, cm = pair(J=J, g11=g, g22=g)
    s = seg(1.0)
    rho0 = basis_state("eg")
    M = liouvillian_matrix(qubits, cm, s)
    exact = unvec(expm(M * 1.0) @ vec(rho0), 4)
    errs = []
    for n in (8, 16, 32):
        traj = evolve(rho0, qubits, cm, ControlSchedule((s,)), fixed_step=1.0 / n)
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 4.0
    assert order2 >= 4.0


def test_unitary_purity_conserved():
    qubits, cm = pair(J=1.0, omega=5.0)
    amp = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    rho0 = np.outer(amp, amp.conj())
    traj = evolve(rho0, qubits, cm, ControlSchedule((seg(2.0),)), tol=1e-11)
    assert np.max(np.abs(traj.purity() - 1.0)) < 1e-8


def test_excitation_number_conserved():
    qubits, cm = pair(J=1.7, omega=9.0)
    n_op = np.diag([0.0, 1.0, 1.0, 2.0])
    amp = np.array([0.0, 0.8, 0.6, 0.0], dtype=complex)
    rho0 = np.outer(amp, amp.conj())
    traj = evolve(rho0, qubits, cm, ControlSchedule((seg(1.5),)), tol=1e-12)
    values = [np.real(np.trace(n_op @ r)) for r in traj.states]
    assert np.max(np.abs(np.asarray(values) - values[0])) < 1e-10


def test_positivity_at_boundaries():
    qubits, cm = pair(J=1.0, g11=0.1, g22=0.1)
    traj = evolve(basis_state("eg"), qubits, cm,
                  ControlSchedule((seg(0.5), seg(0.5))), tol=1e-10)
    for k in (0, len(traj.states) - 1):
        assert np.linalg.eigvalsh(traj.states[k]).min() >= -1e-8


def test_stiffness_error():
    qubits, cm = pair(J=1.0, g11=1e15, g22=1e15)
    with pytest.raises(StiffnessError):
        evolve(basis_state("eg"), qubits, cm, ControlSchedule((seg(1.0),)), tol=1e-10)


def test_step_budget(monkeypatch):
    qubits, cm = pair(J=1.0, g11=0.5, g22=0.5)
    monkeypatch.setattr(integrate, "MAX_STEPS", 10)
    with pytest.raises(StiffnessError, match="10 attempted steps"):
        evolve(basis_state("eg"), qubits, cm, ControlSchedule((seg(1.0),)), tol=1e-10)


def test_segment_boundaries_exact():
    qubits, cm = pair(J=1.0)
    traj = evolve(basis_state("eg"), qubits, cm,
                  ControlSchedule((seg(0.3), seg(0.7))), tol=1e-10)
    assert np.any(np.isclose(traj.times, 0.3, atol=1e-14))
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-14)


def test_drive_moves_population():
    qubits = [QubitSpec(omega_eg=0.0, p=1.0, theta=False)]
    cm = CouplingMatrix(J=np.zeros((1, 1)), Gamma=np.zeros((1, 1)))
    s = Segment(duration=0.5, theta=(False,), drive=(0.8 + 0.0j,), detuning=(0.0,))
    traj = evolve(basis_state("g"), qubits, cm, ControlSchedule((s,)), tol=1e-11)
    assert traj.states[-1][1, 1].real > 0.1


def test_detuned_rabi_closed_form():
    # time-dependent drive phases against the generalized Rabi solution:
    # P_e(t) = |O|^2/(|O|^2 + (D/2)^2) sin^2(sqrt(|O|^2 + (D/2)^2) t / hbar)
    omega_rabi, delta, t = 0.3, 0.8, 2.0
    qubits = [QubitSpec(omega_eg=0.0, p=1.0, theta=False)]
    cm = CouplingMatrix(J=np.zeros((1, 1)), Gamma=np.zeros((1, 1)))
    s = Segment(duration=t, theta=(False,), drive=(omega_rabi + 0.0j,),
                detuning=(delta,))
    traj = evolve(basis_state("g"), qubits, cm, ControlSchedule((s,)), tol=1e-12)
    gen = np.sqrt(omega_rabi**2 + (delta / 2.0) ** 2)
    expected = (omega_rabi / gen) ** 2 * np.sin(gen * t / HBAR_MEV_PS) ** 2
    assert traj.states[-1][1, 1].real == pytest.approx(expected, abs=1e-8)
    herm = max(np.max(np.abs(r - r.T.conj())) for r in traj.states)
    assert herm < 1e-12


# --- fidelity -----------------------------------------------------------------------

def test_fidelity_of_ideal_channel():
    s = unitary_superoperator(ISWAP)
    assert average_gate_fidelity(s, ISWAP) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_depolarizing():
    d = 4
    eye = np.eye(d, dtype=complex)
    # full depolarizing: rho -> Tr(rho) I/d; superoperator from its action on E_mk
    s = np.outer(vec(eye / d), vec(eye).conj())
    channel = s @ unitary_superoperator(ISWAP)
    assert average_gate_fidelity(channel, ISWAP) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_global_phase_invariant():
    s = unitary_superoperator(ISWAP)
    assert average_gate_fidelity(s, np.exp(1j * 0.7) * ISWAP) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rejects_non_trace_preserving():
    s = 0.5 * unitary_superoperator(ISWAP)
    with pytest.raises(ChannelError):
        average_gate_fidelity(s, ISWAP)


def test_channel_superoperator_of_unitary_evolution():
    J = 1.0
    qubits, cm = pair(J=J)
    t_gate = np.pi * HBAR_MEV_PS / (2 * J)
    s = channel_superoperator(qubits, cm, ControlSchedule((seg(t_gate),)), tol=1e-12)
    assert np.max(np.abs(s - unitary_superoperator(ISWAP))) < 1e-7


def test_channel_superoperator_against_rk45():
    # a detuned drive, then exchange: the order of composition matters
    qubits = [QubitSpec(omega_eg=3.0, p=1.0, gamma_background=0.05),
              QubitSpec(omega_eg=4.0, p=1.0, gamma_background=0.02)]
    cm = CouplingMatrix(J=np.array([[0.0, 1.2], [1.2, 0.0]]),
                        Gamma=np.array([[0.03, 0.01], [0.01, 0.04]]))
    schedule = ControlSchedule((
        seg(0.3, theta=(False, True), drive=(0.6 + 0.3j, 0.0), detuning=(1.5, 0.0)),
        seg(0.4)))
    S = channel_superoperator(qubits, cm, schedule, tol=1e-12)

    def run(x):
        return vec(evolve(x, qubits, cm, schedule, tol=1e-12, check=False).states[-1])

    d = 4
    units = {(m, k): np.outer(np.eye(d)[m], np.eye(d)[k]) for m in range(d) for k in range(d)}
    diag = [run(units[m, m]) for m in range(d)]
    # evolve monitors the trace, so an off-diagonal unit rides on I/d (trace 1)
    for (m, k), e in units.items():
        col = diag[m] if m == k else run(np.eye(d) / d + e) - sum(diag) / d
        assert np.max(np.abs(S[:, k * d + m] - col)) < 1e-9


# --- the gate ------------------------------------------------------------------------

def test_iswap_unitary_limit():
    qubits, cm = pair(J=1.0)
    res = iswap_gate(qubits, cm, gamma_on=False, tol=1e-12)
    assert res.avg_fidelity == pytest.approx(1.0, abs=1e-7)
    assert res.gate_time == pytest.approx(np.pi * HBAR_MEV_PS / 2.0, rel=1e-12)


def test_iswap_with_decay():
    J = 1.0
    qubits, cm = pair(J=J, g11=J / 100, g22=J / 100)
    res = iswap_gate(qubits, cm, tol=1e-11)
    assert res.avg_fidelity >= 0.97
    assert res.avg_fidelity < 1.0
    assert res.gate_time == pytest.approx(np.pi * HBAR_MEV_PS / (2 * J), rel=1e-12)


def test_iswap_gate_time_scale():
    # J = 100 meV gives a ~10 fs gate, the optical-period scale
    J = 100.0
    qubits, cm = pair(J=J)
    res = iswap_gate(qubits, cm, gamma_on=False, tol=1e-11)
    assert res.gate_time == pytest.approx(0.010339, rel=1e-4)


def test_iswap_needs_positive_J():
    qubits, cm = pair(J=0.0)
    with pytest.raises(ValueError):
        iswap_gate(qubits, cm)


# --- states --------------------------------------------------------------------------

def test_basis_state_labels():
    rho = basis_state("eg")
    assert rho[1, 1] == 1.0
    rho = basis_state("ge")
    assert rho[2, 2] == 1.0
    with pytest.raises(ValueError):
        basis_state("gx")


def test_validate_density_matrix_rejects():
    bad = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        validate_density_matrix(bad)  # trace 2


def test_gamma_from_lifetime():
    from hyperpol.dynamics import gamma_from_lifetime
    # 300 ps donor coherence maps to ~1.1 ueV linewidth
    assert gamma_from_lifetime(300.0) == pytest.approx(HBAR_MEV_PS / 600.0)
    assert gamma_from_lifetime(300.0) == pytest.approx(1.097e-3, rel=1e-3)
    with pytest.raises(ValueError):
        gamma_from_lifetime(0.0)
