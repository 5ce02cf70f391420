"""The abstract's resilience claim on the bundled pendulum, as a contract.

The paper promises a bounded estimation error under any p-sparse attack
when the system is 2p-sparse observable.  The pendulum is only just
secure: its sparse observability index is 2, so p = 1.  Under constant
attacks of growing size (gamma = 5, seed 3, 120 steps, the tail gap from
step 60), the secure estimate's gap to its clean run stops growing when
one sensor lies, while the fixed-gain filter's grows with the attack;
with two sensors lying, beyond the certificate, the secure gap is
unbounded too.  The measured gaps:

    attacked sensors   secure gap at 1, 1e2, 1e4, 1e6       filter gap
    1                  0.02687 at every size                1.008 ... 1.008e6
    4                  2.743, 273.7, 9554, 9554             2.771 ... 2.771e6
    1 and 2            2.996, 302.3, 3.023e4, 3.023e6       2.016 ... 2.016e6

An estimator that followed the attack, such as one that answered with
the least-squares baseline x_ls, breaks the first two claims.
"""

import pytest

from securekf import AttackSpec, certify_resilience, simulate

from helpers import security_gap

GAMMA, SEED, HORIZON, TAIL_FROM = 5.0, 3, 120, 60
SIZES = (1.0, 1e2, 1e4, 1e6)


@pytest.fixture(scope="module")
def tail_gaps(pendulum_model, pendulum_design, pendulum_decomposition):
    """{support: (secure, filter)}, each the tail gaps at the sizes of
    SIZES in order, with 0-based supports."""
    def run(attack):
        return simulate(pendulum_model, pendulum_design,
                        pendulum_decomposition, attack, GAMMA, HORIZON, SEED)

    clean = run(AttackSpec())
    gaps = {}
    for support in ((0,), (3,), (0, 1)):
        hits = [security_gap(clean, run(AttackSpec(
            support=support, kind="constant", magnitude=size)), TAIL_FROM)
            for size in SIZES]
        gaps[support] = ([g.tail_mean_secure for g in hits],
                         [g.tail_mean_kalman for g in hits])
    return gaps


def test_one_lying_position_sensor_leaves_the_secure_estimate_alone(
        tail_gaps):
    secure, kalman = tail_gaps[0, ]
    assert secure[3] == pytest.approx(secure[1], rel=0.01)
    assert kalman[3] >= 9e3 * kalman[1]


def test_a_lying_angle_sensor_leaves_the_secure_error_bounded(tail_gaps):
    secure, _ = tail_gaps[3, ]
    assert secure[3] == pytest.approx(secure[2], rel=0.01)


def test_two_lying_sensors_are_beyond_the_certificate(tail_gaps):
    secure, _ = tail_gaps[0, 1]
    assert secure[3] >= 9e3 * secure[1]


def test_the_pendulum_is_certified_for_one_lying_sensor(pendulum_model):
    one = certify_resilience(pendulum_model.structure, 1)
    assert one.secure and one.margin == 0
    assert not certify_resilience(pendulum_model.structure, 2).secure
