import dataclasses
import json
import math

import numpy as np
import pytest

from spinlight import PhysicalParams


def random_physical_state(rng, n_modes):
    """A random valid Gaussian state built from vacuum by physical operations.

    Random rotations, interaction kicks, losses and displacements keep the
    state physical by construction, so these are fair inputs for invariance
    property tests.
    """
    from spinlight import (
        RoundPlan, apply_pass, displace, loss_channel, rotate, vacuum_state,
    )

    state = vacuum_state(n_modes)
    for _ in range(rng.integers(2, 6)):
        op = rng.integers(0, 4)
        mode = int(rng.integers(0, n_modes))
        if op == 0:
            state = rotate(state, mode, float(rng.uniform(-math.pi, math.pi)))
        elif op == 1 and n_modes > 1:
            other = int((mode + 1 + rng.integers(0, n_modes - 1)) % n_modes)
            plan = RoundPlan(kappa=float(rng.uniform(0.0, 3.0)))
            state = apply_pass(state, mode, other, plan)
        elif op == 2:
            state = loss_channel(state, mode, float(rng.uniform(0.0, 0.9)))
        else:
            state = displace(
                state, mode, float(rng.normal(0, 2)), float(rng.normal(0, 2))
            )
    return state


def reference_json_text(obj, indent=0):
    """The artifact writer as first written: one recursive call per value."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {reference_json_text(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {reference_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(str(obj))


def reference_csv_text(echo, header, rows):
    """The CSV writer as first written: one text conversion per cell, None empty."""

    def text(value):
        if value is None:
            return ""
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    lines = [f"# {key} = {text(value)}" for key, value in echo.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(text(cell) for cell in row))
    return "\n".join(lines) + "\n"


def assert_step_matches_dense(step, dense, args, batch, dim=6, seed=0):
    """Check an in-place step kernel against its dense transfer/noise matrices.

    ``step(rows, *args)`` updates rows in place and returns its vacua, which
    ``gaussian._step`` applies to a covariance; ``dense(dim, *args)`` returns
    the (T, Y) pair of one operating point.  Array arguments carry the
    batch (shape ``(batch,)``); with ``batch`` None the moments have no batch
    axis and every argument is a scalar.  Transfer columns must become T X, a
    mean T mu and a covariance T N T^T + Y, each within 1e-15 absolute.
    """
    from spinlight.gaussian import _step

    rng = np.random.default_rng(seed)
    tail = () if batch is None else (batch,)
    rows = rng.uniform(-1.0, 1.0, (dim, 3) + tail)
    mean = rng.uniform(-1.0, 1.0, (dim,) + tail)
    half = rng.uniform(-1.0, 1.0, (dim, dim) + tail)
    cov = 0.5 * (half + np.swapaxes(half, 0, 1))
    expected = []
    for b in [None] if batch is None else range(batch):
        at = (...,) if b is None else (..., b)
        point = [a[b] if isinstance(a, np.ndarray) else a for a in args]
        transfer, noise = dense(dim, *point)
        expected.append((
            at, transfer @ rows[at], transfer @ mean[at],
            transfer @ cov[at] @ transfer.T + noise,
        ))
    _step(rows, cov, step, *args)
    step(mean, *args)
    for at, want_rows, want_mean, want_cov in expected:
        assert np.max(np.abs(rows[at] - want_rows)) <= 1e-15
        assert np.max(np.abs(mean[at] - want_mean)) <= 1e-15
        assert np.max(np.abs(cov[at] - want_cov)) <= 1e-15


def bell_channel(n_atoms, first, second, rounds):
    """The two rounds of a Bell measurement as one affine-Gaussian channel.

    The dense reference for the engine's factor push, built from the
    covariance rule of the step kernels (``gaussian._step``): identity
    transfer columns and the pulses' vacuum covariance go through each
    round's two passes and the quarter turns between the rounds in place.  ``rounds`` holds each
    round's (kappa, eps_p, eps_a, eta_t, eta_d), each a float or a (B,)
    array, as ``protocols._push_bell`` takes them.  The output register is
    the ``n_atoms`` samples followed by the light pulse of each round, none
    of them measured.
    Returns (X, Y) of shapes (B, d, 2 n_atoms) and (B, d, d): samples with
    mean mu and covariance S leave as mean X mu and covariance X S X^T + Y,
    the pulses entering in vacuum.
    """
    from spinlight.gaussian import VACUUM_VARIANCE, _quarter_turn, _step
    from spinlight.interaction import _pass

    dim, batch = 2 * (n_atoms + len(rounds)), np.broadcast(*sum(rounds, ())).size
    transfer = np.eye(dim, 2 * n_atoms)[:, :, None].repeat(batch, axis=2)
    noise = np.zeros((dim, dim, batch))
    pulses = np.arange(2 * n_atoms, dim)
    noise[pulses, pulses] = VACUUM_VARIANCE
    for number, (kappa, eps_p, eps_a, eta_t, eta_d) in enumerate(rounds):
        light = n_atoms + number
        for sample, loss in ((first, eta_t), (second, eta_d)):
            eps_light = 1.0 - (1.0 - eps_p) * (1.0 - loss)
            _step(transfer, noise, _pass, light, sample, kappa, eps_light, eps_a)
        if number == 0:
            _step(transfer, noise, _quarter_turn, first, -1)
            _step(transfer, noise, _quarter_turn, second, 1)
    return np.moveaxis(transfer, -1, 0), np.moveaxis(noise, -1, 0)


def _sweep_pull_back(channel, grid, dtype):
    """Collective rows, directions and per-output noise sums by an adjoint sweep.

    The four collective output rows are pulled back through the cells in
    reverse order (the transposed cell updates), and each cell's vacuum
    injections add their squared coefficients to per-output noise sums.  Cell
    (m, j) touches only light bin m and atomic slice j, so the cells of one
    anti-diagonal m + j = d act on disjoint columns and are applied together:
    n_tau + n_z - 1 vectorized steps in O(n_tau + n_z) memory.  Every
    quantity is formed in ``dtype``.
    """
    nt, nz = grid.n_tau, grid.n_z
    one = dtype(1)
    eps_cell_p = dtype(channel.eps_p) / nz
    eps_cell_a = dtype(channel.eps_a) / nt
    k_cell = dtype(channel.kappa) / np.sqrt(one * nz * nt)
    tp, ta = np.sqrt(one - eps_cell_p), np.sqrt(one - eps_cell_a)

    # uniform-weight (x_light, p_light, x_atom, p_atom) directions
    u = np.zeros((4, 2 * (nt + nz)), dtype=dtype)
    u[0, 0 : 2 * nt : 2] = u[1, 1 : 2 * nt : 2] = one / np.sqrt(one * nt)
    u[2, 2 * nt :: 2] = u[3, 2 * nt + 1 :: 2] = one / np.sqrt(one * nz)
    # pulled-back rows, indexed (output, light bin or atomic slice, x/p)
    light = u[:, : 2 * nt].reshape(4, nt, 2).copy()
    atom = u[:, 2 * nt :].reshape(4, nz, 2).copy()
    light_noise = np.zeros(4, dtype=dtype)
    atom_noise = np.zeros(4, dtype=dtype)

    for d in range(nt + nz - 2, -1, -1):
        m_lo, m_hi = max(0, d - nz + 1), min(d, nt - 1)
        lt = light[:, m_lo : m_hi + 1]
        # slices j = d - m for m = m_lo..m_hi, i.e. descending
        at = atom[:, d - m_hi : d - m_lo + 1][:, ::-1]
        # The forward cell is kick, light damping, atom damping; its transpose
        # runs the other way round.  A damping step injects vacuum with
        # coefficient sqrt(eps_cell) times the row entries it scales; the
        # common eps_cell factor is applied once, after the sweep.
        atom_noise += np.einsum("rcq,rcq->r", at, at)
        at *= ta
        light_noise += np.einsum("rcq,rcq->r", lt, lt)
        lt *= tp
        at[..., 1] -= k_cell * lt[..., 0]
        lt[..., 1] -= k_cell * at[..., 0]

    rows = np.concatenate([light.reshape(4, -1), atom.reshape(4, -1)], axis=1)
    return rows, u, eps_cell_p * light_noise, eps_cell_a * atom_noise


def sweep_collective_extraction(channel, grid):
    """Grid extraction by an adjoint sweep: the large-grid oracle.

    It reaches grids the dense map cannot.  ``signal_leak`` is a difference
    of nearly equal numbers, and the swept rows carry the rounding of
    n_tau + n_z steps, which in double precision costs up to ~1e-11 of it on
    these grids; so the leak comes from a second sweep in ``np.longdouble``
    (64-bit significand on x86-64), every other field from the double one.
    """
    from spinlight.maxwell_bloch import _extraction

    swept = _extraction(*_sweep_pull_back(channel, grid, np.float64))
    wide = _extraction(*_sweep_pull_back(channel, grid, np.longdouble))
    return dataclasses.replace(swept, signal_leak=wide.signal_leak)


def collective_signal_block(tm):
    """4x4 signal block of a dense map's collective (x_l, p_l, x_a, p_a) modes."""
    from spinlight.maxwell_bloch import _collective_vectors

    u = _collective_vectors(tm.n_tau, tm.n_z)
    return u @ tm.signal @ u.T


def commutator_defect(tm):
    """Max deviation of S Omega S^T + N Omega_noise N^T from Omega.

    Zero (to rounding) for every grid: each elementary update is symplectic on
    the system plus its fresh ancilla, so canonical commutators survive the
    full composition including the noise injections.  It needs the dense
    map, so it checks small grids only.
    """
    from spinlight import symplectic_form

    omega = symplectic_form(tm.n_tau + tm.n_z)
    total = tm.signal @ omega @ tm.signal.T
    if tm.noise.shape[1]:
        omega_noise = symplectic_form(tm.noise.shape[1] // 2)
        total = total + tm.noise @ omega_noise @ tm.noise.T
    return float(np.max(np.abs(total - omega)))


# Operating point from the headline estimate: rho = 5e12 cm^-3, L = 2 cm,
# Delta = 300 gamma, number matching, and the wavelength fixed by inverting
# the column-density form 3 rho lambda0^2 L gamma / (8 pi^2 Delta) = 5.
# The inversion gives lambda0 = 2 pi x 1e-7 m (recorded, derived in-test).
REFERENCE_RHO = 5e18          # m^-3
REFERENCE_LENGTH = 0.02       # m
REFERENCE_DETUNING_RATIO = 300.0
REFERENCE_KAPPA = 5.0
REFERENCE_LAMBDA0 = 6.283185307179586e-07


def reference_lambda0():
    """Invert the column-density strength for the reference operating point."""
    return math.sqrt(
        REFERENCE_KAPPA
        * 8.0
        * math.pi**2
        * REFERENCE_DETUNING_RATIO
        / (3.0 * REFERENCE_RHO * REFERENCE_LENGTH)
    )


@pytest.fixture(scope="session")
def reference_params():
    gamma = 2.0 * math.pi * 5e6
    return PhysicalParams(
        lambda0=reference_lambda0(),
        L=REFERENCE_LENGTH,
        rho=REFERENCE_RHO,
        Delta=REFERENCE_DETUNING_RATIO * gamma,
        gamma=gamma,
        gamma_prime=gamma,
    )
