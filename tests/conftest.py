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
            state = apply_pass(state, mode, other, plan.channel())
        elif op == 2:
            state = loss_channel(state, mode, float(rng.uniform(0.0, 0.9)))
        else:
            state = displace(
                state, mode, float(rng.normal(0, 2)), float(rng.normal(0, 2))
            )
    return state


def assert_step_matches_dense(step, dense, args, batch, dim=6, seed=0):
    """Check an in-place step kernel against its dense transfer/noise matrices.

    ``step(rows, cov, *args)`` updates moments in place; ``dense(dim, *args)``
    returns the (T, Y) pair of one operating point.  Array arguments carry the
    batch (shape ``(batch,)``); with ``batch`` None the moments have no batch
    axis and every argument is a scalar.  Transfer columns must become T X, a
    mean T mu and a covariance T N T^T + Y, each within 1e-15 absolute.
    """
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
    step(rows, cov, *args)
    step(mean, None, *args)
    for at, want_rows, want_mean, want_cov in expected:
        assert np.max(np.abs(rows[at] - want_rows)) <= 1e-15
        assert np.max(np.abs(mean[at] - want_mean)) <= 1e-15
        assert np.max(np.abs(cov[at] - want_cov)) <= 1e-15


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
