"""Simulation harness: attacks, traces, MSE reports, sweeps, CSV output."""

import dataclasses
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import securekf.fusion
import securekf.simulator
from helpers import (complex_pair_design, random_jordan_model,
                     reference_complex_rollout, reference_rollout,
                     reference_trace_csv, security_gap,
                     step_by_step_simulate)
from securekf import (build_decomposition, build_fusion_problem, secure_fuse,
                      spectral_design)
from securekf.fusion import MAX_BREAKPOINTS, FusionResult
from securekf.spectral import RiccatiDivergenceError
from securekf.simulator import (
    ATTACK_KINDS,
    AttackSpec,
    Rollout,
    SimulationTrace,
    SweepRow,
    _rollout,
    _rollouts,
    attack_sequence,
    default_attack,
    empirical_equivalence_probability,
    mse,
    simulate,
    sweep_attack_magnitude,
    sweep_csv,
    sweep_gamma,
    trace_csv,
)


def run(model, design, decomp, attack=AttackSpec(), gamma=5.0, horizon=120,
        seed=3, trial=0, **kw):
    return simulate(model, design, decomp, attack, gamma, horizon, seed,
                    trial=trial, **kw)


# ---------------------------------------------------------------- attacks


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(support=(0,), kind="none")
    with pytest.raises(ValueError):
        AttackSpec(support=(), kind="constant", magnitude=1.0)
    with pytest.raises(ValueError):
        AttackSpec(support=(0,), kind="sinusoid", magnitude=1.0)
    with pytest.raises(ValueError):
        AttackSpec(support=(-1,), kind="constant", magnitude=1.0)
    with pytest.raises(ValueError):
        AttackSpec(support=(0,), kind="constant", magnitude=np.inf)
    with pytest.raises(ValueError):
        AttackSpec(support=(0,), kind="uniform", magnitude=-1.0)
    with pytest.raises(ValueError):
        AttackSpec(support=(0,), kind="constant", magnitude=1.0,
                   start_step=-1)
    # numpy draws from a range of float_max and refuses the next float up
    half = sys.float_info.max / 2
    with pytest.raises(ValueError, match="draw range 2 \\* magnitude"):
        AttackSpec(support=(0,), kind="uniform",
                   magnitude=np.nextafter(half, np.inf))
    edge = AttackSpec(support=(0,), kind="uniform", magnitude=half)
    assert np.abs(attack_sequence(edge, 1, 3, np.random.default_rng(0))
                  ).max() < half


def test_attack_spec_normalizes_support():
    spec = AttackSpec(support=(3, 1, 3), kind="constant", magnitude=2.0)
    assert spec.support == (1, 3)


def test_attack_sequence_none_is_zero():
    rng = np.random.default_rng(0)
    a = attack_sequence(AttackSpec(), 4, 50, rng)
    assert a.shape == (50, 4)
    assert not a.any()


def test_attack_sequence_support_out_of_range():
    rng = np.random.default_rng(0)
    spec = AttackSpec(support=(5,), kind="constant", magnitude=1.0)
    with pytest.raises(ValueError):
        attack_sequence(spec, 4, 50, rng)


def test_attack_sequence_constant():
    rng = np.random.default_rng(0)
    spec = AttackSpec(support=(1,), kind="constant", magnitude=-2.5,
                      start_step=10)
    a = attack_sequence(spec, 3, 30, rng)
    k = np.arange(1, 31)
    assert np.array_equal(a[:, 1], np.where(k >= 10, -2.5, 0.0))
    assert not a[:, [0, 2]].any()


def test_attack_sequence_ramp():
    rng = np.random.default_rng(0)
    spec = AttackSpec(support=(0,), kind="ramp", magnitude=0.5, start_step=4)
    a = attack_sequence(spec, 2, 12, rng)
    k = np.arange(1, 13)
    expect = np.where(k >= 4, 0.5 * (k - 4), 0.0)
    assert np.allclose(a[:, 0], expect)
    # grows by exactly magnitude per active step
    diffs = np.diff(a[4:, 0])
    assert np.allclose(diffs, 0.5)


def test_ramp_starting_at_the_last_step_is_all_zero(pendulum_model,
                                                   pendulum_design,
                                                   pendulum_decomposition):
    # a ramp is zero at k = start_step, so one starting at the last step
    # injects nothing; one step earlier it hits only the last step
    rng = np.random.default_rng(0)
    late = AttackSpec(support=(0,), kind="ramp", magnitude=1.0,
                      start_step=10)
    assert not attack_sequence(late, 2, 10, rng).any()
    early = dataclasses.replace(late, start_step=9)
    assert np.array_equal(attack_sequence(early, 2, 10, rng)[:, 0],
                          [0.0] * 9 + [1.0])
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             attack=late, horizon=10)
    clean = run(pendulum_model, pendulum_design, pendulum_decomposition,
                horizon=10)
    assert not tr.a.any()
    assert np.array_equal(tr.xhat_sec, clean.xhat_sec)


def test_attack_sequence_uniform_stays_in_open_interval():
    rng = np.random.default_rng(1)
    mag = np.pi / 2
    spec = AttackSpec(support=(3,), kind="uniform", magnitude=mag)
    a = attack_sequence(spec, 4, 4000, rng)
    col = a[:, 3]
    assert np.abs(col).max() < mag
    assert np.abs(col).max() > 0.9 * mag
    # roughly symmetric draws
    assert abs(np.mean(col)) < 0.1
    assert not a[:, :3].any()


def test_attack_sequence_uniform_is_fresh_each_step():
    rng = np.random.default_rng(2)
    spec = AttackSpec(support=(0,), kind="uniform", magnitude=1.0)
    a = attack_sequence(spec, 1, 200, rng)
    assert np.unique(a[:, 0]).size == 200


def test_default_attack_matches_reference_setup():
    spec = default_attack(4)
    assert spec.support == (3,)
    assert spec.kind == "uniform"
    assert spec.magnitude == pytest.approx(np.pi / 2)
    assert spec.start_step == 0


# ---------------------------------------------------------------- simulate


def test_simulate_argument_validation(pendulum_model, pendulum_design,
                                      pendulum_decomposition):
    with pytest.raises(ValueError):
        run(pendulum_model, pendulum_design, pendulum_decomposition,
            horizon=0)
    with pytest.raises(ValueError):
        run(pendulum_model, pendulum_design, pendulum_decomposition,
            gamma=0.0)


def test_simulate_rejects_non_finite_results(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    import securekf.simulator as sim

    fuse = sim.secure_fuse

    def poisoned(problem, Y, gamma, **kwargs):
        res = fuse(problem, Y, gamma, **kwargs)
        return res._replace(x_tilde=np.full_like(res.x_tilde, np.nan))

    monkeypatch.setattr(sim, "secure_fuse", poisoned)
    with pytest.raises(ValueError, match="non-finite xhat_sec"):
        run(pendulum_model, pendulum_design, pendulum_decomposition,
            horizon=5)


def test_simulate_shapes_and_flags(pendulum_model, pendulum_design,
                                   pendulum_decomposition):
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             horizon=40)
    assert tr.x.shape == (40, 4)
    assert tr.u.shape == (40, 1)
    assert tr.y.shape == (40, 4)
    assert tr.z.shape == (40, 4)
    assert tr.a.shape == (40, 4)
    assert tr.xhat_sec.shape == (40, 4)
    assert tr.solver_converged.all()
    assert tr.unconverged_steps == 0
    assert not tr.a.any()
    assert np.array_equal(tr.y, tr.z)


def test_simulate_is_deterministic(pendulum_model, pendulum_design,
                                   pendulum_decomposition):
    att = default_attack()
    t1 = run(pendulum_model, pendulum_design, pendulum_decomposition,
             attack=att, horizon=60, seed=11, trial=2)
    t2 = run(pendulum_model, pendulum_design, pendulum_decomposition,
             attack=att, horizon=60, seed=11, trial=2)
    for f in ("x", "u", "z", "y", "a", "xhat_kal", "xhat_sec", "xhat_ls",
              "kkt_residual"):
        assert np.array_equal(getattr(t1, f), getattr(t2, f)), f


def test_simulate_trials_differ(pendulum_model, pendulum_design,
                                pendulum_decomposition):
    t0 = run(pendulum_model, pendulum_design, pendulum_decomposition,
             horizon=20, trial=0)
    t1 = run(pendulum_model, pendulum_design, pendulum_decomposition,
             horizon=20, trial=1)
    assert not np.array_equal(t0.x, t1.x)


def test_paired_runs_share_clean_stream(pendulum_model, pendulum_design,
                                        pendulum_decomposition):
    # same (seed, trial): attacked run sees the same plant and noise
    clean = run(pendulum_model, pendulum_design, pendulum_decomposition,
                horizon=80, seed=5, trial=1)
    hit = run(pendulum_model, pendulum_design, pendulum_decomposition,
              attack=default_attack(), horizon=80, seed=5, trial=1)
    assert np.array_equal(clean.x, hit.x)
    assert np.array_equal(clean.z, hit.z)
    assert np.array_equal(hit.y, hit.z + hit.a)
    assert hit.a[:, 3].any()
    assert not hit.a[:, :3].any()


def test_attack_changes_only_attacked_column(pendulum_model, pendulum_design,
                                             pendulum_decomposition):
    clean = run(pendulum_model, pendulum_design, pendulum_decomposition,
                horizon=50, seed=9)
    hit = run(pendulum_model, pendulum_design, pendulum_decomposition,
              attack=AttackSpec(support=(2,), kind="constant", magnitude=3.0),
              horizon=50, seed=9)
    assert np.array_equal(clean.y[:, [0, 1, 3]], hit.y[:, [0, 1, 3]])
    assert np.allclose(hit.y[:, 2] - clean.y[:, 2], 3.0)


def test_simulate_takes_the_rollout_of_its_own_run(
        pendulum_model, pendulum_design, pendulum_decomposition):
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    att = default_attack()
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    rollout = _rollout(*args, problem, att, 30, 3, 1)
    own = simulate(*args, att, 5.0, 30, 3, trial=1)
    # with the rollout's own problem, or with a problem built for the run
    for kw in (dict(problem=problem), {}):
        shared = simulate(*args, att, 5.0, 30, 3, trial=1, rollout=rollout,
                          **kw)
        for f in ("x", "u", "z", "y", "a", "xhat_kal", "xhat_sec",
                  "xhat_ls", "kkt_residual", "solver_iters",
                  "kalman_equivalent", "screen_statistic"):
            assert np.array_equal(getattr(shared, f), getattr(own, f)), f
    for attack, horizon, seed, trial in ((AttackSpec(), 30, 3, 1),
                                         (att, 31, 3, 1), (att, 30, 4, 1),
                                         (att, 30, 3, 0)):
        with pytest.raises(ValueError, match="rollout of"):
            simulate(*args, attack, 5.0, horizon, seed, trial=trial,
                     rollout=rollout)


def test_simulate_refuses_a_rollout_split_on_another_problem(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # a clean rollout split on its problem, passed with a copy whose Minv
    # is 4x, would screen on one design and solve on the other: 197 of
    # 200 steps screened at gamma = 100, against 12 when the copy splits
    # its own rollout.  The mismatch is refused; without a problem the
    # run takes the one the rollout was split on
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    rollout = _rollout(*args, problem, AttackSpec(), 200, 0, 0)
    assert rollout.split.problem is problem
    scaled = dataclasses.replace(problem, Minv=4.0 * problem.Minv)
    with pytest.raises(ValueError, match="another FusionProblem"):
        simulate(*args, AttackSpec(), 100.0, 200, 0, problem=scaled,
                 rollout=rollout)
    assert simulate(*args, AttackSpec(), 100.0, 200, 0,
                    problem=scaled).kalman_equivalent.sum() == 12
    taken = simulate(*args, AttackSpec(), 100.0, 200, 0, rollout=rollout)
    own = simulate(*args, AttackSpec(), 100.0, 200, 0, problem=problem)
    assert taken.xhat_sec.tobytes() == own.xhat_sec.tobytes()
    assert taken.kalman_equivalent.sum() == 197


def assert_rollout_bytes(rollout, want, problem):
    """Every array of rollout, and every field of its split, has the
    dtype, shape and bytes of want, a reference_rollout, and the split's
    arrays are read-only."""
    for name, got, ref in zip(Rollout._fields[4:-1], rollout[4:-1], want):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
        assert got.tobytes() == ref.tobytes(), name
    split, ref = rollout.split, want[-1]
    assert split.problem is ref.problem is problem
    for name in ("x_ls", "mu_ls", "d", "statistic", "kkt"):
        got, arr = getattr(split, name), getattr(ref, name)
        assert (got.dtype, got.shape) == (arr.dtype, arr.shape), name
        assert got.tobytes() == arr.tobytes(), name
        assert not got.flags.writeable, name
    assert len(split.rows) == len(ref.rows)
    for got, arr in zip(split.rows, ref.rows):
        assert [np.asarray(g).tobytes() for g in got] == \
            [np.asarray(a).tobytes() for a in arr]
        assert type(got[3]) is type(got[4]) is float


# (kind, sensor, log10 |magnitude|, negative, start step); a sensor past
# the model's last one, and magnitudes near the float64 limit, make some
# trials fail at each check a rollout makes
ATTACK_DRAWS = st.tuples(
    st.sampled_from(ATTACK_KINDS), st.integers(0, 8),
    st.one_of(st.floats(-2.0, 3.0), st.floats(300.0, 308.25)), st.booleans(),
    st.integers(0, 60))


# the checks a lone rollout makes, in its order: the plant's arrays, the
# attack's draws, y, xhat_kal, the canonical measurement, then the split
ROLLOUT_STAGES = ("x", "u", "z", "draws", "y", "xhat_kal",
                  "canonical measurement", "split")


def refusal_stage(message):
    """The index in ROLLOUT_STAGES of the check whose refusal of a lone
    reference_rollout reads message; a message no check gives fails."""
    if message.startswith("attack support"):
        return ROLLOUT_STAGES.index("draws")
    if message.startswith("the least-squares products overflow"):
        return ROLLOUT_STAGES.index("split")
    prefix = "simulation produced non-finite "
    assert message.startswith(prefix), message
    assert message[len(prefix):] in ROLLOUT_STAGES, message
    return ROLLOUT_STAGES.index(message[len(prefix):])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 60),
       draws=st.lists(ATTACK_DRAWS, min_size=1, max_size=4))
# the first attack's split overflows, the second's y is not finite: the
# y check comes first
@example(seed=0, horizon=30, draws=[("constant", 0, 300.0, False, 0),
                                    ("ramp", 0, 307.0, False, 0)])
# a clean run, then xhat_kal overflows, then a sensor out of range: the
# draws come first
@example(seed=1, horizon=2, draws=[("none", 0, 0.0, False, 0),
                                   ("constant", 0, 308.25, False, 0),
                                   ("constant", 3, 1.0, False, 0)])
# an unstable plant without input overflows before a sensor out of range
@example(seed=8, horizon=4000, draws=[("constant", 1, 0.0, False, 0)])
# the canonical measurement overflows; a uniform range past the float64
# limit, which the attack spec refuses
@example(seed=0, horizon=1, draws=[("constant", 0, 308.25, False, 0)])
@example(seed=0, horizon=1, draws=[("none", 0, 0.0, False, 0),
                                   ("uniform", 0, 308.0, False, 0)])
def test_stacked_rollout_gives_each_attack_its_own_rollouts_bytes(
        seed, horizon, draws):
    # a trial's attacks rolled out in one stacked pass get, on every array
    # and every split field, the bytes of their own rollouts taken one at
    # a time with 2-D arrays, and of the batch of one; a trial that fails
    # raises the first failing check in pipeline order across the stack,
    # and within a check the first attack, with the message that attack's
    # own rollout gives
    model = random_jordan_model(seed, ensure_observable=True)
    try:
        design = spectral_design(model)
        dec = build_decomposition(model, design)
    except (ValueError, RiccatiDivergenceError):
        assume(False)
    attacks = []
    for kind, sensor, log_mag, negative, start in draws:
        spec = dict(support=(sensor % (model.m + 1),), kind=kind,
                    magnitude=10.0 ** log_mag * (
                        -1.0 if negative and kind != "uniform" else 1.0),
                    start_step=start)
        if kind == "none":
            attacks.append(AttackSpec())
        elif kind == "uniform" and spec["magnitude"] > sys.float_info.max / 2:
            # numpy cannot draw from a range past the float64 limit
            with pytest.raises(ValueError, match=re.escape(
                    f"uniform attack magnitude {spec['magnitude']!r} is too "
                    f"large")):
                AttackSpec(**spec)
        else:
            attacks.append(AttackSpec(**spec))
    assume(attacks)
    args = (model, design, dec, dec.fusion_problem)
    want, refusals = [], []
    for index, attack in enumerate(attacks):
        try:
            want.append(reference_rollout(*args, attack, horizon, seed, 1))
        except ValueError as exc:
            refusals.append((refusal_stage(str(exc)), index, str(exc)))
    if refusals:
        with pytest.raises(ValueError) as err:
            _rollouts(*args, attacks, horizon, seed, 1)
        assert type(err.value) is ValueError
        assert str(err.value) == min(refusals)[2]
        return
    got = _rollouts(*args, attacks, horizon, seed, 1)
    assert len(got) == len(attacks)
    for attack, rollout, ref in zip(attacks, got, want):
        assert rollout[:4] == (attack, horizon, seed, 1)
        assert_rollout_bytes(rollout, ref, dec.fusion_problem)
        assert_rollout_bytes(_rollout(*args, attack, horizon, seed, 1), ref,
                             dec.fusion_problem)


def test_a_decomposition_builds_its_fusion_problem_once(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # two sweeps, a simulate and an equivalence rate on one decomposition
    # build one FusionProblem; a copy made by dataclasses.replace starts
    # without it
    calls = []
    build = securekf.fusion.build_fusion_problem
    # the tracer wraps the simulator's binding, so it must still resolve
    assert securekf.simulator.build_fusion_problem is build

    def counting(*args):
        calls.append(args)
        return build(*args)

    for module in (securekf.fusion, securekf.simulator):
        monkeypatch.setattr(module, "build_fusion_problem", counting)
    dec = dataclasses.replace(pendulum_decomposition)
    args = (pendulum_model, pendulum_design, dec)
    sweep_gamma(*args, gammas=(5.0, 1000.0), trials=1, horizon=40,
                burn_in=10)
    sweep_attack_magnitude(*args, magnitudes=(0.0, 1.0), trials=1,
                           horizon=40, burn_in=10)
    simulate(*args, default_attack(), 20.0, 40, 2)
    empirical_equivalence_probability(*args, 100.0, trials=2, horizon=40,
                                      burn_in=10)
    assert len(calls) == 1
    problem = dec.fusion_problem
    assert calls[0][0] is dec.H_stack and calls[0][1] is dec.Mtilde_factor
    copy = dataclasses.replace(dec)
    assert copy.fusion_problem is not problem and len(calls) == 2
    assert copy.fusion_problem is copy.fusion_problem and len(calls) == 2


def test_simulate_takes_the_split_of_its_own_rollout(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # the rollout carries Y's split on its problem, and a run passed the
    # rollout fuses on that split: its least-squares estimate and screen
    # statistic are the split's own arrays, and it fuses as a run that
    # splits for itself
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    att = default_attack()
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    rollout = _rollout(*args, problem, att, 30, 3, 1)
    want = problem.split(rollout.Y)
    for name in ("x_ls", "mu_ls", "d", "statistic", "kkt"):
        assert (getattr(rollout.split, name).tobytes()
                == getattr(want, name).tobytes()), name
    shared = simulate(*args, att, 5.0, 30, 3, trial=1, problem=problem,
                      rollout=rollout)
    assert shared.xhat_ls is rollout.split.x_ls
    assert shared.screen_statistic is rollout.split.statistic
    own = simulate(*args, att, 5.0, 30, 3, trial=1)
    for f in ("xhat_sec", "xhat_ls", "kkt_residual", "solver_iters",
              "kalman_equivalent", "screen_statistic"):
        assert np.array_equal(getattr(shared, f), getattr(own, f)), f


def test_simulate_on_a_rollout_makes_no_least_squares_call(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # the rollout carries its split, so a run passed it never splits: not
    # as a block, and not row by row inside secure_fuse
    from securekf.fusion import FusionProblem

    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    rollout = _rollout(*args, problem, default_attack(), 60, 3, 0)
    calls = []
    least_squares = FusionProblem.least_squares

    def counting(self, Y):
        calls.append(np.shape(Y))
        return least_squares(self, Y)

    monkeypatch.setattr(FusionProblem, "least_squares", counting)
    for gamma, kw in ((5.0, dict(problem=problem)), (1000.0, {})):
        simulate(*args, default_attack(), gamma, 60, 3, rollout=rollout,
                 **kw)
    assert calls == []
    # a run without one splits its own rollout once, as one block
    simulate(*args, default_attack(), 5.0, 60, 3, problem=problem)
    assert calls == [(60, 16)]


def record_fusion(monkeypatch):
    """Record every FusionResult simulate's secure_fuse calls return, in
    order, in the list returned."""
    import securekf.simulator as sim

    results = []
    fuse = sim.secure_fuse

    def recording(*args, **kwargs):
        results.append(fuse(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(sim, "secure_fuse", recording)
    return results


@pytest.mark.parametrize("gamma", [5.0, 20.0, 1000.0])
def test_simulate_steps_equal_fresh_per_row_secure_fuse(
        gamma, monkeypatch, pendulum_model, pendulum_design,
        pendulum_decomposition):
    # each step reads its row of the rollout's block split; every field of
    # its result must be the bits of secure_fuse on the row alone.  A
    # clean and an attacked run cover screened and homotopy steps at
    # every gamma but 5, where none screens
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    results = record_fusion(monkeypatch)
    screened = []
    for attack in (AttackSpec(),
                   AttackSpec(support=(3,), kind="uniform", magnitude=5.0)):
        rollout = _rollout(*args, problem, attack, 200, 2, 0)
        results.clear()
        trace = simulate(*args, attack, gamma, 200, 2, problem=problem,
                         rollout=rollout)
        assert len(results) == 200
        for row, got in zip(rollout.Y, results):
            want = secure_fuse(problem, row, gamma)
            for field, a, b in zip(FusionResult._fields, got, want):
                assert type(a) is type(b), field
                if isinstance(b, np.ndarray):
                    assert a.tobytes() == b.tobytes(), field
                else:
                    assert a == b, field
        screened += trace.kalman_equivalent.tolist()
    assert any(screened) is (gamma > 5.0)
    assert not all(screened)


@pytest.mark.parametrize("gamma", [5.0, 1000.0], ids=["open", "screened"])
def test_simulate_lets_each_fusion_result_go(
        gamma, monkeypatch, pendulum_model, pendulum_design,
        pendulum_decomposition):
    # by the next step's call, only the wrapper still holds the previous
    # step's FusionResult (getrefcount counts its own argument too): a
    # run that kept its results would hold tracked tuples to its end
    import securekf.simulator as sim

    fuse = sim.secure_fuse
    held, counts = [None], []

    def keeping(*args, **kwargs):
        if held[0] is not None:
            counts.append(sys.getrefcount(held[0]))
        held[0] = fuse(*args, **kwargs)
        return held[0]

    monkeypatch.setattr(sim, "secure_fuse", keeping)
    trace = simulate(pendulum_model, pendulum_design, pendulum_decomposition,
                     AttackSpec(), gamma, 60, 3)
    # every step screens at 1000, and none at 5
    assert trace.kalman_equivalent.sum() == (60 if gamma == 1000.0 else 0)
    assert counts == [2] * 59


@pytest.mark.parametrize("gamma, attacked, open_rows", [
    (5.0, True, 200), (100.0, False, 7), (1000.0, False, 0)],
    ids=["5-attack", "100-clean", "1000-clean"])
def test_simulate_walks_its_open_rows_in_one_block(
        gamma, attacked, open_rows, monkeypatch, pendulum_model,
        pendulum_design, pendulum_decomposition):
    # a run makes exactly one lasso_paths call, of all its open rows,
    # however few: every row of the attacked run at gamma = 5, the 7 rows
    # the clean run leaves open at 100, and no call at all at 1000, where
    # the screen settles every row
    import securekf.fusion as fusion

    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    attack = default_attack() if attacked else AttackSpec()
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    rollout = _rollout(*args, problem, attack, 200, 2, 0)
    blocks = []
    walk = fusion.lasso_paths

    def recording(problem, d, gamma):
        blocks.append(len(d))
        return walk(problem, d, gamma)

    monkeypatch.setattr(fusion, "lasso_paths", recording)
    trace = simulate(*args, attack, gamma, 200, 2, rollout=rollout)
    assert int((~trace.kalman_equivalent).sum()) == open_rows
    assert blocks == ([open_rows] if open_rows else [])
    assert (trace.solver_iters[~trace.kalman_equivalent] > 0).all()


# None: gamma is step 41's own statistic, which the screen still passes
@pytest.mark.parametrize("gamma", [0.2, 20.0, 100.0, 1000.0, None])
def test_trace_screen_statistic_is_the_block_statistic(
        gamma, pendulum_model, pendulum_design, pendulum_decomposition):
    # kalman_equivalent, derived from the statistic, marks exactly the
    # steps that secure_fuse screens
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    rollout = _rollout(*args, problem, default_attack(), 150, 1, 0)
    edge = gamma is None
    if edge:
        gamma = float(rollout.split.statistic[40])
    trace = simulate(*args, default_attack(), gamma, 150, 1,
                     rollout=rollout)
    want = problem.split(rollout.Y).statistic
    assert trace.screen_statistic.tobytes() == want.tobytes()
    screened = [secure_fuse(problem, row, gamma, split=row_split
                            ).kalman_equivalent
                for row, row_split in zip(rollout.Y, rollout.split.rows)]
    assert trace.kalman_equivalent.tolist() == screened
    assert screened[40] or not edge


def test_screened_run_stacks_the_split_rows_into_its_own_array(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # at gamma = 1000 every clean step screens, and each step's x_tilde is
    # its read-only row of the split's x_ls: the trace's xhat_sec has
    # those bits in an array of its own
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    rollout = _rollout(*args, pendulum_decomposition.fusion_problem,
                       AttackSpec(), 300, 0, 0)
    trace = simulate(*args, AttackSpec(), 1000.0, 300, 0, rollout=rollout)
    assert trace.kalman_equivalent.all()
    assert trace.xhat_sec.tobytes() == rollout.split.x_ls.tobytes()
    assert trace.xhat_sec.flags.writeable
    assert not np.shares_memory(trace.xhat_sec, rollout.split.x_ls)


@pytest.mark.parametrize("gamma", [20.0, 100.0])
def test_equivalence_probability_is_the_runs_screened_share(
        gamma, pendulum_model, pendulum_design, pendulum_decomposition):
    # the block screen the estimate counts is the one secure_fuse tests on
    # each row, so one trial's probability is the run's share exactly
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    burn_in, horizon, seed = 50, 400, 6
    prob, _ = empirical_equivalence_probability(
        *args, gamma, trials=1, horizon=horizon, seed=seed, burn_in=burn_in)
    trace = simulate(*args, AttackSpec(), gamma, horizon, seed)
    # the rows of the steps k >= burn_in, the tail mse averages
    share = float(trace.kalman_equivalent[burn_in - 1:].mean())
    assert prob == share
    assert 0.0 < share < 1.0


def test_overflowing_rollout_raises_before_any_step(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # a finite Y whose least-squares products overflow is refused with the
    # row-by-row error, before secure_fuse sees a step.  A finite Minv
    # scaled by 1e304 overflows d = Minv mu_ls on 10 of these 60 clean
    # rows (a Ptilde scaled that far would overflow Y itself first)
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    Y = _rollout(*args, problem, AttackSpec(), 60, 0, 0).Y
    huge = dataclasses.replace(problem, Minv=1e304 * problem.Minv)
    assert np.isfinite(huge.Minv).all()
    # the error secure_fuse gives on the first row that overflows, which
    # the step-by-step fusion met first
    want = None
    with np.errstate(over="ignore", invalid="ignore"):
        for row in Y:
            try:
                secure_fuse(huge, row, 5.0)
            except ValueError as exc:
                want = str(exc)
                break
    assert want.startswith("the least-squares products overflow on a "
                           "finite measurement (max |Y| = ")
    results = record_fusion(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError) as err:
        simulate(*args, AttackSpec(), 5.0, 60, 0, problem=huge)
    assert str(err.value) == want
    assert results == []


def assert_matches_complex_oracle(model, design, rollout, relative_to_y):
    """Y within 1e-12 of the complex oracle's, relative to max |Y| or, when
    relative_to_y is false, to the largest |Ptilde| |zeta| entry: an
    ill-conditioned projection (cond(P_i) above 1e6 on some random models)
    amplifies rounding in both coordinate systems alike."""
    Y_ref, terms = reference_complex_rollout(model, design, rollout.u,
                                             rollout.y)
    scale = np.abs(Y_ref).max() if relative_to_y else terms
    assert np.abs(rollout.Y - Y_ref).max() <= 1e-12 * scale
    for name, arr in zip(Rollout._fields[4:-1], rollout[4:-1]):
        assert arr.dtype == np.float64, name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_rollout_matches_complex_oracle_on_pendulum(
        seed, pendulum_model, pendulum_design, pendulum_decomposition):
    # the real bank and projection give the Y of the complex mode-by-mode
    # bank, which has one complex pair on the pendulum
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    rollout = _rollout(pendulum_model, pendulum_design, dec, problem,
                       default_attack(), 1000, seed, 0)
    assert_matches_complex_oracle(pendulum_model, pendulum_design, rollout,
                                  relative_to_y=True)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**4), data=st.data())
def test_real_rollout_matches_complex_oracle_on_random_models(seed, data):
    # random non-derogatory models whose closed loop has a complex pair,
    # with a random input matrix and feedback gain to drive G_i B u
    # (neither enters the decomposition)
    model, design, decomposition = complex_pair_design(seed)
    rng = np.random.default_rng(seed)
    model = dataclasses.replace(
        model, B=rng.standard_normal((model.n, 1)),
        K_lqr=0.1 * rng.standard_normal((1, model.n)))
    attack = AttackSpec(support=(data.draw(st.integers(0, model.m - 1)),),
                        kind="uniform", magnitude=1.0)
    problem = build_fusion_problem(decomposition.H_stack,
                                   decomposition.Mtilde_factor)
    rollout = _rollout(model, design, decomposition, problem, attack, 60,
                       seed, 0)
    assert_matches_complex_oracle(model, design, rollout,
                                  relative_to_y=False)


@pytest.mark.parametrize("attack, gamma, seed", [
    (default_attack(), 5.0, 3),
    (AttackSpec(), 1000.0, 4),
    (AttackSpec(support=(1,), kind="constant", magnitude=2.0), 20.0, 7),
])
def test_simulate_matches_step_by_step_reference(
        pendulum_model, pendulum_design, pendulum_decomposition, attack,
        gamma, seed):
    # the rollout computed ahead of the fusion equals the one-step
    # functions chained by hand; gamma > 1 keeps x_tilde unique
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             attack=attack, gamma=gamma, horizon=150, seed=seed, trial=1)
    ref = step_by_step_simulate(pendulum_model, pendulum_design,
                                pendulum_decomposition, attack, gamma, 150,
                                seed, trial=1)
    for f, rtol in (("x", 1e-10), ("xhat_kal", 1e-10), ("xhat_ls", 1e-10),
                    ("xhat_sec", 1e-8)):
        err = np.abs(getattr(tr, f) - ref[f]).max()
        assert err <= rtol * np.abs(ref[f]).max(), (f, err)
    assert np.array_equal(tr.kalman_equivalent, ref["kalman_equivalent"])
    assert np.array_equal(tr.solver_converged, ref["solver_converged"])


def test_zero_noise_estimators_track_exactly():
    # noiseless observable system: after a transient every estimator
    # reconstructs the state to machine precision
    from securekf.decomposition import build_decomposition
    from securekf.model import SystemModel
    from securekf.spectral import spectral_design

    A = np.diag([0.9, 0.5, -0.4])
    C = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    tiny = 1e-12
    model = SystemModel(A=A, C=C, Q=tiny * np.eye(3), R=tiny * np.eye(4),
                        Sigma=0.5 * np.eye(3))
    design = spectral_design(model)
    decomp = build_decomposition(model, design)
    tr = simulate(model, design, decomp, AttackSpec(), gamma=5.0,
                  horizon=200, seed=1)
    err_sec = np.linalg.norm(tr.xhat_sec[-1] - tr.x[-1])
    err_ls = np.linalg.norm(tr.xhat_ls[-1] - tr.x[-1])
    assert err_sec < 1e-4
    assert err_ls < 1e-4


def test_solver_columns_recorded(pendulum_model, pendulum_design,
                                 pendulum_decomposition):
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             gamma=100.0, horizon=60)
    # large gamma: most steps take the closed-form path and mark
    # equivalence with zero iterations
    eq = tr.kalman_equivalent
    assert eq.dtype == bool
    assert (tr.solver_iters[eq] == 0).all()
    assert (tr.kkt_residual >= 0).all()


def test_small_gamma_solves_converge(pendulum_model, pendulum_design,
                                     pendulum_decomposition):
    # at gamma = 0.05 the active set grows to rank S = mn - n and
    # coordinates leave and rejoin it along the path; every step must
    # still meet the KKT tolerance
    for attack in (AttackSpec(), default_attack(pendulum_model.m)):
        tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
                 attack=attack, gamma=0.05, horizon=100, seed=0)
        assert not tr.kalman_equivalent.any()
        assert tr.solver_converged.all()
        assert (tr.kkt_residual <= 1e-8).all()


# ---------------------------------------------------------------- reports


def test_mse_report_consistency(pendulum_model, pendulum_design,
                                pendulum_decomposition):
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             horizon=150, seed=4)
    rep = mse(tr, burn_in=50)
    assert rep.samples == 101
    assert rep.kalman == pytest.approx(rep.kalman_per_state.sum())
    assert rep.secure == pytest.approx(rep.secure_per_state.sum())
    assert rep.least_squares == pytest.approx(
        rep.least_squares_per_state.sum())
    keep = np.arange(1, 151) >= 50
    direct = np.mean(np.sum((tr.xhat_sec[keep] - tr.x[keep]) ** 2, axis=1))
    assert rep.secure == pytest.approx(direct)


@pytest.mark.parametrize("burn_in", [0, 1, 50, 120])
def test_mse_tail_slice_bit_equal_to_step_mask(
        burn_in, pendulum_model, pendulum_design, pendulum_decomposition):
    # the tail rows k >= burn_in, read as a slice, give the bits of the
    # boolean-mask copy they were read as before, in mse and security_gap
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    tr = run(*args, horizon=120, seed=4)
    hit = run(*args, default_attack(), horizon=120, seed=4)
    keep = np.arange(1, 121) >= burn_in
    rep = mse(tr, burn_in)
    for field, est in (("kalman", tr.xhat_kal), ("secure", tr.xhat_sec),
                       ("least_squares", tr.xhat_ls)):
        per_state = np.mean((est[keep] - tr.x[keep]) ** 2, axis=0)
        assert getattr(rep, f"{field}_per_state").tobytes() == \
            per_state.tobytes()
        assert getattr(rep, field) == float(per_state.sum())
    assert rep.samples == int(keep.sum())
    gap = security_gap(tr, hit, burn_in)
    for field in ("kalman", "secure", "least_squares"):
        assert getattr(gap, f"tail_mean_{field}") == \
            float(getattr(gap, field)[keep].mean())


def test_mse_tail_refusals_word_for_word(pendulum_model, pendulum_design,
                                         pendulum_decomposition):
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             horizon=30)
    for burn_in, message in (
            (-1, "burn-in must be nonnegative, got -1"),
            (31, "horizon 30 leaves no samples at or after burn-in 31")):
        for call in (mse, lambda t, b: security_gap(t, t, b)):
            with pytest.raises(ValueError) as err:
                call(tr, burn_in)
            assert str(err.value) == message


def test_mse_burn_in_validation(pendulum_model, pendulum_design,
                                pendulum_decomposition):
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             horizon=10)
    with pytest.raises(ValueError):
        mse(tr, burn_in=20)


def test_negative_burn_in_is_refused(pendulum_model, pendulum_design,
                                     pendulum_decomposition):
    # a negative burn-in would keep every step (or, for the equivalence
    # rate, only the last few); every library entry point refuses it
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    tr = run(*args, horizon=10)
    message = "burn-in must be nonnegative, got -5"
    with pytest.raises(ValueError, match=message):
        mse(tr, burn_in=-5)
    with pytest.raises(ValueError, match=message):
        security_gap(tr, tr, burn_in=-5)
    with pytest.raises(ValueError, match=message):
        empirical_equivalence_probability(*args, 1000.0, trials=1,
                                          horizon=10, burn_in=-5)
    with pytest.raises(ValueError, match=message):
        sweep_gamma(*args, gammas=(5.0,), trials=1, horizon=10, burn_in=-5)
    # the edges still keep their steps k >= burn_in, in mse and the rate
    assert mse(tr, burn_in=0).samples == 10
    assert mse(tr, burn_in=10).samples == 1
    assert empirical_equivalence_probability(
        *args, 1000.0, trials=1, horizon=10, burn_in=10) == (1.0, 0.0)
    with pytest.raises(ValueError, match="no samples"):
        mse(tr, burn_in=11)
    with pytest.raises(ValueError, match="no samples"):
        empirical_equivalence_probability(*args, 1000.0, trials=1,
                                          horizon=10, burn_in=11)


@pytest.mark.parametrize("burn_in", [-5, 50])
def test_sweep_refuses_burn_in_before_any_rollout(
        burn_in, monkeypatch, pendulum_model, pendulum_design,
        pendulum_decomposition):
    import securekf.simulator as sim

    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before checking the burn-in")

    monkeypatch.setattr(sim, "_rollouts", no_rollout)
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    with pytest.raises(ValueError, match="burn-in"):
        sweep_gamma(*args, gammas=(5.0,), trials=1, horizon=40,
                    burn_in=burn_in)
    with pytest.raises(ValueError, match="burn-in"):
        sweep_attack_magnitude(*args, magnitudes=(1.0,), trials=1,
                               horizon=40, burn_in=burn_in)



@pytest.mark.parametrize("horizon, burn_in", [(0, 0), (-5, 50)])
def test_sweep_refuses_horizon_below_1_before_any_rollout(
        horizon, burn_in, monkeypatch, pendulum_model, pendulum_design,
        pendulum_decomposition):
    # an empty sweep used to reach the plant rollout and die in its
    # recurrence; the horizon is blamed before the burn-in
    import securekf.simulator as sim

    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before checking the horizon")

    monkeypatch.setattr(sim, "_rollouts", no_rollout)
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    message = f"^horizon must be at least 1, got {horizon}$"
    with pytest.raises(ValueError, match=message):
        sweep_gamma(*args, gammas=(5.0,), trials=1, horizon=horizon,
                    burn_in=burn_in)
    with pytest.raises(ValueError, match=message):
        sweep_attack_magnitude(*args, magnitudes=(1.0,), trials=1,
                               horizon=horizon, burn_in=burn_in)


@pytest.mark.parametrize("seed, trial", [(0, -2), (-1, 0)])
def test_negative_seed_or_trial_is_refused(
        seed, trial, pendulum_model, pendulum_design, pendulum_decomposition):
    # numpy's own refusal named neither
    with pytest.raises(ValueError, match=(
            f"^seed and trial must be nonnegative, got seed {seed}, "
            f"trial {trial}$")):
        run(pendulum_model, pendulum_design, pendulum_decomposition,
            horizon=10, seed=seed, trial=trial)


def test_equivalence_probability_refuses_no_trials(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # no trial used to average an empty list to NaN
    with pytest.raises(ValueError, match="^trials must be at least 1, got 0$"):
        empirical_equivalence_probability(
            pendulum_model, pendulum_design, pendulum_decomposition, 1000.0,
            trials=0, horizon=100)

def test_security_gap_requires_paired_traces(pendulum_model, pendulum_design,
                                             pendulum_decomposition):
    a = run(pendulum_model, pendulum_design, pendulum_decomposition,
            horizon=30, seed=1, trial=0)
    b = run(pendulum_model, pendulum_design, pendulum_decomposition,
            horizon=30, seed=1, trial=1)
    with pytest.raises(ValueError):
        security_gap(a, b)
    c = run(pendulum_model, pendulum_design, pendulum_decomposition,
            horizon=20, seed=1, trial=0)
    with pytest.raises(ValueError):
        security_gap(a, c)


def test_security_gap_values(pendulum_model, pendulum_design,
                             pendulum_decomposition):
    clean = run(pendulum_model, pendulum_design, pendulum_decomposition,
                horizon=80, seed=6)
    hit = run(pendulum_model, pendulum_design, pendulum_decomposition,
              attack=default_attack(), horizon=80, seed=6)
    gap = security_gap(clean, hit, burn_in=40)
    d = np.linalg.norm(hit.xhat_kal - clean.xhat_kal, axis=1)
    assert np.allclose(gap.kalman, d)
    assert gap.max_kalman == pytest.approx(d.max())
    assert gap.tail_mean_kalman == pytest.approx(
        d[np.arange(1, 81) >= 40].mean())
    assert gap.max_secure >= 0
    # attack on one sensor moves the fixed-gain filter more than the
    # saturated secure estimate over the tail.  The default attack is not
    # the input for that: it hits sensor 4, the only angle sensor, and at
    # +-pi/2 it sits inside the noise the other sensors leave.  Least
    # squares on sensors 1-3 alone has a clean tail error of 28.2 (0.25
    # with all four), so the secure estimate follows this attack at
    # 1.10-1.15x the filter's gap (3.29 vs 2.87 here) up to +-pi/2 * 1e3
    # and levels off only near 1e4; secure_fuse matches an L-BFGS-B solve
    # of the same objective on this run.  On a redundant cart-position
    # sensor the secure gap has saturated by +-pi/2 * 100: a tenfold
    # larger attack moves the filter tenfold and the secure estimate by
    # under 2 % on seeds 3-12 (0 % on this seed).
    hits = [run(pendulum_model, pendulum_design, pendulum_decomposition,
                attack=AttackSpec(support=(0,), kind="uniform",
                                  magnitude=np.pi / 2 * scale),
                horizon=80, seed=6)
            for scale in (100, 1000)]
    np.testing.assert_allclose(hits[1].a, 10 * hits[0].a, rtol=1e-12)
    gaps = [security_gap(clean, h, burn_in=40) for h in hits]
    assert gaps[1].tail_mean_kalman == pytest.approx(
        10 * gaps[0].tail_mean_kalman, rel=1e-6)
    assert gaps[1].tail_mean_secure == pytest.approx(
        gaps[0].tail_mean_secure, rel=0.05)
    for g in gaps:
        assert g.tail_mean_secure < g.tail_mean_kalman


def test_ramp_attack_secure_estimate_stays_bounded(pendulum_model,
                                                   pendulum_design,
                                                   pendulum_decomposition):
    # scaled-down version of the ramp scenario on sensor 4, the only
    # angle sensor.  At this size the secure gap does not level off: it
    # tracks the fixed-gain filter's (late ratio 0.99, see
    # test_security_gap_values), and the bound holds because the ramp
    # grows 2.6x between the two windows, inside the 4x allowance
    ramp = AttackSpec(support=(3,), kind="ramp", magnitude=0.05,
                      start_step=30)
    clean = run(pendulum_model, pendulum_design, pendulum_decomposition,
                gamma=5.0, horizon=160, seed=13)
    hit = run(pendulum_model, pendulum_design, pendulum_decomposition,
              attack=ramp, gamma=5.0, horizon=160, seed=13)
    gap = security_gap(clean, hit)
    early = gap.secure[30:80].max()
    late = gap.secure[80:].max()
    assert late <= 4.0 * early
    assert gap.kalman[-1] > 3.0 * gap.kalman[45]


def test_extreme_constant_attack_ends_within_breakpoint_cap(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # a constant 1e6 on the only angle sensor for the last five steps:
    # every solve must end within the breakpoint cap with finite output
    attack = AttackSpec(support=(3,), kind="constant", magnitude=1e6,
                        start_step=56)
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             attack=attack, gamma=5.0, horizon=60, seed=0)
    hit = tr.a[:, 3] != 0.0
    assert hit.sum() == 5
    assert not tr.kalman_equivalent[hit].any()
    assert (tr.solver_iters < MAX_BREAKPOINTS).all()
    assert np.isfinite(tr.xhat_sec).all()
    # the l1 term rejects most of the attack the filter passes through
    err_sec = np.abs(tr.xhat_sec[hit] - tr.x[hit]).max()
    err_kal = np.abs(tr.xhat_kal[hit] - tr.x[hit]).max()
    assert err_sec < 0.01 * err_kal


# ---------------------------------------------------------------- sweeps


def test_sweep_gamma_rows_and_determinism(pendulum_model, pendulum_design,
                                          pendulum_decomposition):
    gammas = (2.0, 20.0)
    rows = sweep_gamma(pendulum_model, pendulum_design,
                       pendulum_decomposition, gammas=gammas, trials=3,
                       horizon=90, seed=2)
    assert [r.sweep_value for r in rows] == [2.0, 20.0]
    again = sweep_gamma(pendulum_model, pendulum_design,
                        pendulum_decomposition, gammas=gammas, trials=3,
                        horizon=90, seed=2)
    assert sweep_csv(rows) == sweep_csv(again)
    for r in rows:
        assert r.mse_secure_no_attack > 0
        assert r.mse_kalman_attack > r.mse_kalman_no_attack


def test_sweep_gamma_kalman_columns_constant_across_gamma(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # the fixed-gain filter ignores gamma, so its columns repeat: the
    # sweep computes them once per attack and trial
    rows = sweep_gamma(pendulum_model, pendulum_design,
                       pendulum_decomposition, gammas=(1.0, 50.0), trials=2,
                       horizon=80, seed=3)
    assert rows[0].mse_kalman_no_attack == rows[1].mse_kalman_no_attack
    assert rows[0].mse_kalman_attack == rows[1].mse_kalman_attack


def test_sweep_validation_errors(pendulum_model, pendulum_design,
                                 pendulum_decomposition):
    # each sweep names its empty grid before a trial count below 1
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    for sweep, grid, what in ((sweep_gamma, "gammas", "gamma"),
                              (sweep_attack_magnitude, "magnitudes",
                               "magnitude")):
        for trials in (2, 0):
            with pytest.raises(ValueError, match=f"^{what} grid is empty$"):
                sweep(*args, **{grid: ()}, trials=trials)
        with pytest.raises(ValueError,
                           match="^trials must be at least 1, got 0$"):
            sweep(*args, **{grid: (1.0,)}, trials=0)


def test_sweep_attack_magnitude_zero_matches_clean(
        pendulum_model, pendulum_design, pendulum_decomposition):
    rows = sweep_attack_magnitude(pendulum_model, pendulum_design,
                                  pendulum_decomposition,
                                  magnitudes=(0.0, 1.0), gamma=5.0,
                                  trials=2, horizon=80, seed=5)
    z = rows[0]
    assert z.mse_secure_attack == pytest.approx(z.mse_secure_no_attack)
    assert z.mse_kalman_attack == pytest.approx(z.mse_kalman_no_attack)
    assert rows[1].mse_kalman_attack > rows[1].mse_kalman_no_attack


def test_sweep_simulates_each_distinct_run_once(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    import securekf.simulator as sim

    calls = []
    simulate_once = sim.simulate

    def counting(*args, **kwargs):
        calls.append(args[3])
        return simulate_once(*args, **kwargs)

    monkeypatch.setattr(sim, "simulate", counting)
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    magnitudes, trials = (0.0, 1.0, 2.0), 2
    rows = sweep_attack_magnitude(*args, magnitudes=magnitudes, gamma=5.0,
                                  trials=trials, horizon=60, seed=2)
    # per trial: the clean run (which magnitude 0 reuses) and one run per
    # nonzero magnitude, instead of a clean/attacked pair per point
    assert sorted(a.magnitude for a in calls) == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
    attack = default_attack(pendulum_model.m)
    for row, v in zip(rows, magnitudes):
        per_trial = []
        for trial in range(trials):
            spec = dataclasses.replace(attack, magnitude=v)
            clean = simulate_once(*args, AttackSpec(), 5.0, 60, 2, trial=trial)
            hit = simulate_once(*args, spec, 5.0, 60, 2, trial=trial)
            mc, mh = mse(clean), mse(hit)
            per_trial.append((mc.secure, mh.secure, mc.kalman, mh.kalman))
        data = np.array(per_trial)
        assert [row.mse_secure_no_attack, row.mse_secure_attack,
                row.mse_kalman_no_attack, row.mse_kalman_attack] == \
            list(data.mean(axis=0))
        assert [row.stderr_secure_no_attack, row.stderr_secure_attack,
                row.stderr_kalman_no_attack, row.stderr_kalman_attack] == \
            list(data.std(axis=0, ddof=1) / np.sqrt(trials))


def test_sweep_gamma_rows_equal_per_gamma_simulate(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # runs at every gamma share one rollout per (trial, attack); each row
    # must still be the one per-gamma simulate calls give, bit for bit
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    gammas, trials, attack = (1000.0, 5.0, 0.2), 3, default_attack()
    rows = sweep_gamma(*args, gammas=gammas, attack=attack, trials=trials,
                       horizon=60, seed=4)
    for row, gamma in zip(rows, gammas):
        per_trial = []
        for trial in range(trials):
            mc, mh = (mse(simulate(*args, spec, gamma, 60, 4, trial=trial))
                      for spec in (AttackSpec(), attack))
            per_trial.append((mc.secure, mh.secure, mc.kalman, mh.kalman))
        data = np.array(per_trial)
        want = SweepRow(gamma, *data.mean(axis=0),
                        *(data.std(axis=0, ddof=1) / np.sqrt(trials)))
        assert dataclasses.astuple(row) == dataclasses.astuple(want)


def test_sweep_rolls_out_each_trial_attack_once(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    import securekf.simulator as sim

    calls, passes = [], []
    rollouts = sim._rollouts

    def counting(model, design, decomposition, problem, attacks, horizon,
                 seed, trial):
        calls.extend((trial, attack) for attack in attacks)
        passes.append(trial)
        return rollouts(model, design, decomposition, problem, attacks,
                        horizon, seed, trial)

    monkeypatch.setattr(sim, "_rollouts", counting)
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    attack = default_attack()
    sweep_gamma(*args, gammas=(5.0, 1000.0, 2000.0), attack=attack,
                trials=2, horizon=60, seed=1)
    assert sorted(calls, key=repr) == sorted(
        ((t, spec) for t in range(2) for spec in (AttackSpec(), attack)),
        key=repr)
    calls.clear()
    sweep_attack_magnitude(*args, magnitudes=(0.0, 1.0, 2.0), gamma=5.0,
                           trials=2, horizon=60, seed=1)
    assert len(calls) == len(set(calls)) == 6
    assert {a.magnitude for _, a in calls} == {0.0, 1.0, 2.0}
    # one stacked pass per trial, for each sweep
    assert passes == [0, 1, 0, 1]


def test_sweep_attack_rows_equal_per_attack_simulate(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # at gamma = 100 a trial's runs leave 3-90 rows open each, 661 and 740
    # in all; the sweep walks them as one block per trial, the clean runs'
    # 3 and 4 rows included, and each row must still be the one per-run
    # simulate calls give, bit for bit
    import securekf.simulator as sim

    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    trials, gamma, attack = 2, 100.0, default_attack()
    rows = sweep_attack_magnitude(*args, gamma=gamma, attack=attack,
                                  trials=trials, horizon=100, seed=0)
    clean = [simulate(*args, AttackSpec(), gamma, 100, 0, trial=trial)
             for trial in range(trials)]
    assert [int((~tr.kalman_equivalent).sum()) for tr in clean] == [3, 4]
    for row, magnitude in zip(rows, sim.DEFAULT_MAGNITUDES):
        per_trial = []
        for trial in range(trials):
            spec = dataclasses.replace(attack, magnitude=magnitude)
            mc = mse(clean[trial])
            mh = mse(simulate(*args, spec, gamma, 100, 0, trial=trial))
            per_trial.append((mc.secure, mh.secure, mc.kalman, mh.kalman))
        data = np.array(per_trial)
        want = SweepRow(magnitude, *data.mean(axis=0),
                        *(data.std(axis=0, ddof=1) / np.sqrt(trials)))
        assert dataclasses.astuple(row) == dataclasses.astuple(want)


def test_sweep_walks_each_trial_gamma_as_one_capped_block(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # one walk and one answer block per (trial, gamma) when the trial's
    # open rows fit under the cap; with the cap lowered to 100, the batches
    # of whole runs that fuse_runs forms keep every walk and every answer
    # block at 100 rows or fewer, to the same rows
    import securekf.fusion as fusion

    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    walks, blocks = [], []
    lasso_paths, answer = fusion.lasso_paths, fusion._answer

    def recording_walk(problem, d, gamma):
        walks.append((gamma, len(d)))
        return lasso_paths(problem, d, gamma)

    def recording_answer(problem, Y, nu, gamma):
        blocks.append(len(Y))
        return answer(problem, Y, nu, gamma)

    def sizes():
        out = [n for _, n in walks], blocks[:]
        walks.clear()
        blocks.clear()
        return out

    monkeypatch.setattr(fusion, "lasso_paths", recording_walk)
    monkeypatch.setattr(fusion, "_answer", recording_answer)
    kw = dict(gamma=100.0, trials=2, horizon=100, seed=0)
    rows = sweep_attack_magnitude(*args, **kw)
    assert sizes() == ([661, 740], [661, 740])
    gamma_rows = sweep_gamma(*args, gammas=(5.0, 20.0), trials=2,
                             horizon=60, seed=1)
    assert [g for g, _ in walks] == [5.0, 20.0] * 2
    assert sizes() == ([120, 119, 120, 116], [120, 119, 120, 116])
    monkeypatch.setattr(fusion, "MAX_BLOCK_ROWS", 100)
    assert sweep_attack_magnitude(*args, **kw) == rows
    capped = [53, 58, 69, 75, 76, 79, 81, 82, 88,
              70, 66, 77, 84, 86, 88, 89, 90, 90]
    assert sum(capped) == 661 + 740
    assert sizes() == (capped, capped)
    assert sweep_gamma(*args, gammas=(5.0, 20.0), trials=2, horizon=60,
                       seed=1) == gamma_rows
    capped = [60, 60, 59, 60, 60, 60, 56, 60]
    assert sizes() == (capped, capped)


def test_sweep_batches_keep_runs_whole_and_under_the_cap():
    # consecutive runs share a batch while their open rows fit the cap; a
    # run above it is a batch of its own, and a run with no open row joins
    # the batch before it unless that one is already over the cap
    from securekf.fusion import _batches

    sizes = {run: np.arange(rows)
             for run, rows in zip("abcdef", (3, 0, 8, 12, 0, 4))}
    assert _batches(sizes, 10) == [["a", "b"], ["c"], ["d"], ["e", "f"]]
    assert _batches({}, 10) == []


def test_simulate_refuses_a_walk_of_other_rows(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # a walk hands its rows to the run's open rows in order, so it must
    # hold exactly as many; the walk of the same rows gives the run's bits
    from securekf.fusion import fuse_open

    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    problem = build_fusion_problem(pendulum_decomposition.H_stack,
                                   pendulum_decomposition.Mtilde_factor)
    rollout = _rollout(*args, problem, default_attack(), 60, 3, 0)
    open_rows = (rollout.split.statistic > 20.0).nonzero()[0]
    walk = fuse_open(problem, rollout.Y[open_rows],
                     rollout.split.d[open_rows], 20.0)
    short = type(walk)(*(a[1:] for a in walk))
    with pytest.raises(ValueError, match="walk of"):
        simulate(*args, default_attack(), 20.0, 60, 3, rollout=rollout,
                 walk=short)
    got = simulate(*args, default_attack(), 20.0, 60, 3, rollout=rollout,
                   walk=walk)
    want = simulate(*args, default_attack(), 20.0, 60, 3)
    assert got.xhat_sec.tobytes() == want.xhat_sec.tobytes()
    assert got.kkt_residual.tobytes() == want.kkt_residual.tobytes()


def test_sweep_computes_each_row_split_once(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # two gammas fuse each of the 2 x 60 rollout rows twice (240 calls),
    # but each rollout's least squares are split once, as one block
    from securekf.fusion import FusionProblem

    calls = []
    least_squares = FusionProblem.least_squares

    def counting(self, Y):
        calls.extend(row.tobytes() for row in np.atleast_2d(Y))
        return least_squares(self, Y)

    monkeypatch.setattr(FusionProblem, "least_squares", counting)
    sweep_gamma(pendulum_model, pendulum_design, pendulum_decomposition,
                gammas=(5.0, 1000.0), trials=1, horizon=60)
    assert len(calls) == len(set(calls)) == 120


def test_sweep_runs_share_their_rollouts_read_only_arrays(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # every run of a sweep rollout, at every gamma, traces that rollout's
    # read-only x_ls and statistic arrays, not copies of them
    import securekf.simulator as sim

    rollouts, traces = {}, []
    rollouts_, simulate_ = sim._rollouts, sim.simulate

    def recording_rollouts(*args, **kwargs):
        out = rollouts_(*args, **kwargs)
        for rollout in out:     # by (attack, horizon, seed, trial)
            rollouts[rollout[:4]] = rollout
        return out

    def recording_simulate(*args, **kwargs):
        traces.append(simulate_(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(sim, "_rollouts", recording_rollouts)
    monkeypatch.setattr(sim, "simulate", recording_simulate)
    sweep_gamma(pendulum_model, pendulum_design, pendulum_decomposition,
                gammas=(5.0, 1000.0), trials=2, horizon=60, seed=1)
    assert (len(rollouts), len(traces)) == (4, 8)
    for tr in traces:
        split = rollouts[tr.attack, tr.horizon, tr.seed, tr.trial].split
        assert tr.xhat_ls is split.x_ls
        assert tr.screen_statistic is split.statistic
        for arr in (tr.xhat_ls, tr.screen_statistic):
            assert not arr.flags.writeable
    # the two gammas of each rollout share one x_ls array
    assert len({id(tr.xhat_ls) for tr in traces}) == 4


def test_sweep_single_trial_has_zero_stderr(pendulum_model, pendulum_design,
                                            pendulum_decomposition):
    rows = sweep_gamma(pendulum_model, pendulum_design,
                       pendulum_decomposition, gammas=(5.0,), trials=1,
                       horizon=60, seed=1)
    assert rows[0].stderr_secure_attack == 0.0
    assert rows[0].stderr_kalman_no_attack == 0.0


# ---------------------------------------------------------------- CSV


def test_trace_csv_layout(pendulum_model, pendulum_design,
                          pendulum_decomposition):
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             horizon=12)
    text = trace_csv(tr)
    lines = text.strip().split("\n")
    assert len(lines) == 13
    header = lines[0].split(",")
    assert header[0] == "k"
    assert header[-3:] == ["solver_iters", "kkt_residual", "solver_warn"]
    assert len(header) == 1 + 4 + 1 + 4 + 4 + 4 + 4 + 4 + 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert len(first) == len(header)
    assert first[-1] == "0"


def test_trace_csv_round_trips_at_full_precision(pendulum_model,
                                                 pendulum_design,
                                                 pendulum_decomposition):
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             horizon=8)
    lines = trace_csv(tr).strip().split("\n")
    header = lines[0].split(",")
    x1 = header.index("x_1")
    sec1 = header.index("xhat_sec_1")
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[x1]) == tr.x[t, 0]
        assert float(cells[sec1]) == tr.xhat_sec[t, 0]


def test_csv_files_byte_identical(pendulum_model, pendulum_design,
                                  pendulum_decomposition):
    tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
             attack=default_attack(), horizon=40, seed=12)
    assert trace_csv(tr) == trace_csv(run(
        pendulum_model, pendulum_design, pendulum_decomposition,
        attack=default_attack(), horizon=40, seed=12))

    rows = sweep_gamma(pendulum_model, pendulum_design,
                       pendulum_decomposition, gammas=(2.0, 5.0), trials=2,
                       horizon=50, seed=9)
    rows8 = sweep_gamma(pendulum_model, pendulum_design,
                        pendulum_decomposition, gammas=(2.0, 5.0), trials=2,
                        horizon=50, seed=9)
    assert sweep_csv(rows) == sweep_csv(rows8)


# every special value the format must keep: signed zeros, infinities,
# nan, subnormals, the extremes of the range, and ordinary floats
SPECIAL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1e300, -1e300,
                     1.7976931348623157e308, 0.1, 1 / 3]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@st.composite
def simulation_traces(draw):
    horizon = draw(st.integers(1, 6))
    n, q, m = (draw(st.integers(1, 4)) for _ in range(3))

    def block(cols):
        return draw(hnp.arrays(float, (horizon, cols),
                               elements=SPECIAL_FLOATS))

    return SimulationTrace(
        seed=0, trial=0, gamma=1.0, horizon=horizon, attack=AttackSpec(),
        x=block(n), u=block(q), z=block(m), y=block(m), a=block(m),
        xhat_kal=block(n), xhat_sec=block(n), xhat_ls=block(n),
        solver_iters=draw(hnp.arrays(int, horizon,
                                     elements=st.integers(0, 10**6))),
        kkt_residual=draw(hnp.arrays(float, horizon,
                                     elements=SPECIAL_FLOATS)),
        solver_converged=draw(hnp.arrays(bool, horizon)),
        screen_statistic=np.zeros(horizon))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(simulation_traces())
def test_trace_csv_matches_value_by_value_reference(trace):
    assert trace_csv(trace) == reference_trace_csv(trace)


def test_trace_csv_matches_reference_on_runs(pendulum_model, pendulum_design,
                                             pendulum_decomposition):
    # screened, l1 and unconverged steps
    for attack, gamma in ((default_attack(), 1000.0), (default_attack(), 0.2),
                          (AttackSpec(support=(3,), kind="constant",
                                      magnitude=1e6), 5.0)):
        tr = run(pendulum_model, pendulum_design, pendulum_decomposition,
                 attack=attack, gamma=gamma, horizon=60)
        assert trace_csv(tr) == reference_trace_csv(tr)
    assert tr.unconverged_steps > 0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(SPECIAL_FLOATS, min_size=9, max_size=9),
                max_size=4))
def test_sweep_csv_formats_every_value_at_full_precision(values):
    rows = [SweepRow(*v) for v in values]
    lines = sweep_csv(rows).split("\n")
    assert lines[-1] == ""
    assert [line.split(",") for line in lines[1:-1]] == \
        [["%.17g" % x for x in v] for v in values]


def test_sweep_csv_header():
    assert sweep_csv([]).strip().split(",")[0] == "sweep_value"
    assert sweep_csv([]).strip().split(",")[-1] == "stderr_kalman_attack"


def test_attack_spec_replace_keeps_validation():
    base = default_attack(4)
    with pytest.raises(ValueError):
        dataclasses.replace(base, kind="nonsense")
