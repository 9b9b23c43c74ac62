import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from creatorsim.core import SimConfig, stream
from creatorsim.baselines import (
    EmptyGenres,
    cfd_step,
    lbr_step,
    project_to_simplex,
    random_choose,
    simuline_choose,
)
from creatorsim.harness import run_simulation


class TestCfd:
    def test_worked_projection_example(self):
        s = np.array([0.5, 0.5])
        out = cfd_step(s, np.array([1.0, 0.0]), lr=0.1)
        assert out[0] == pytest.approx(0.6 / 1.1)
        assert out[1] == pytest.approx(0.5 / 1.1)

    def test_zero_feedback_unchanged(self):
        s = np.array([0.3, 0.7])
        assert np.array_equal(cfd_step(s, np.zeros(2), 0.1), s)

    def test_zero_lr_unchanged(self):
        s = np.array([0.3, 0.7])
        assert np.array_equal(cfd_step(s, np.array([5.0, 1.0]), 0.0), s)


class TestLbr:
    def test_constant_utility_never_moves(self):
        s = np.array([0.25, 0.25, 0.5])
        rng = stream(1, "lbr")
        for _ in range(50):
            s2 = lbr_step(s, lambda v: 1.0, 0.1, rng)
            assert np.array_equal(s2, s)

    def test_drift_toward_rewarded_genre(self):
        rng = stream(2, "lbr")
        s = np.full(4, 0.25)
        weight_on_a = lambda v: float(v[0])
        values = [s[0]]
        for _ in range(200):
            s = lbr_step(s, weight_on_a, 0.1, rng)
            values.append(float(s[0]))
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert s[0] > 0.9

    def test_zero_step_unchanged(self):
        s = np.array([0.5, 0.5])
        rng = stream(3, "lbr")
        assert np.array_equal(lbr_step(s, lambda v: float(v[0]), 0.0, rng), s)


class TestSimuline:
    def test_proportional_sampling(self):
        rng = stream(4, "sim")
        likes = np.array([3.0, 1.0])
        draws = [simuline_choose(likes, rng) for _ in range(10_000)]
        assert draws.count(0) / 10_000 == pytest.approx(0.75, abs=0.02)

    def test_all_zero_uniform(self):
        rng = stream(5, "sim")
        draws = [simuline_choose(np.zeros(4), rng) for _ in range(8_000)]
        for g in range(4):
            assert draws.count(g) / 8_000 == pytest.approx(0.25, abs=0.03)

    def test_degenerate(self):
        rng = stream(6, "sim")
        assert all(simuline_choose(np.array([1.0, 0.0]), rng) == 0 for _ in range(20))


class TestRandomChoose:
    def test_near_uniform_over_fourteen(self):
        rng = stream(7, "rand")
        draws = [random_choose(range(14), rng) for _ in range(14_000)]
        for g in range(14):
            assert draws.count(g) / 14_000 == pytest.approx(1 / 14, abs=0.01)

    def test_single_genre(self):
        rng = stream(8, "rand")
        assert random_choose([3], rng) == 3

    def test_empty_rejected(self):
        with pytest.raises(EmptyGenres):
            random_choose([], stream(9, "rand"))


@settings(max_examples=80, deadline=None)
@given(
    s=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
    fb=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8),
    lr=st.floats(0.0, 1.0),
)
def test_cfd_output_always_simplex(s, fb, lr):
    n = min(len(s), len(fb))
    base = project_to_simplex(np.asarray(s[:n]))
    out = cfd_step(base, np.asarray(fb[:n]), lr)
    assert (out >= 0).all()
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1000), step=st.floats(0.01, 0.5))
def test_lbr_never_decreases_utility(seed, step):
    rng = stream(seed, "lbr-prop")
    s = np.full(5, 0.2)
    target = rng.random(5)
    utility = lambda v: float(v @ target)
    last = utility(s)
    for _ in range(20):
        s = lbr_step(s, utility, step, rng)
        now = utility(s)
        assert now >= last - 1e-12
        last = now


@settings(max_examples=200, deadline=None)
@given(v=hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(v=np.array([1e308, -1.0, 1.5e308]))
def test_any_finite_vector_projects_to_a_simplex_point(v):
    # finite entries may still sum past the largest float
    p = project_to_simplex(v)
    assert np.isfinite(p).all() and (p >= 0).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_infinite_entries_share_the_mass():
    assert project_to_simplex(np.array([np.inf, 1.0, -np.inf, np.inf])).tolist() == [0.5, 0, 0, 0.5]


@pytest.mark.parametrize("policy, setting", [("cfd", "cfd_lr"), ("lbr", "lbr_step_size")])
def test_run_with_a_huge_step_finishes(tmp_path, policy, setting):
    """A step of 1e308 overflows the strategy update to +-inf; the projection
    still gives a point the policy can sample from, and no overflow warns."""
    cfg = SimConfig(
        n_users=30, n_creators=10, n_steps=15, warmup=2, creator_policy=policy, **{setting: 1e308}
    )
    run = run_simulation(cfg, out_dir=tmp_path / "run")
    trace = (tmp_path / "run" / "creator_trace.csv").read_text().splitlines()
    assert len(trace) > 10 and run.report["tuw"] > 0
