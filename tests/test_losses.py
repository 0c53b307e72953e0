"""Loss-level contracts: values, derivatives, conjugates, coordinate steps."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel.losses import LOSSES, SmoothedHinge, SquaredLoss, make_loss

ALL_LOSSES = [SmoothedHinge(gamma=1.0), SmoothedHinge(gamma=0.25), SquaredLoss()]


def test_make_loss_names():
    assert isinstance(make_loss("smoothed_hinge"), SmoothedHinge)
    assert isinstance(make_loss("squared"), SquaredLoss)
    assert make_loss("smoothed_hinge", gamma=0.5).gamma == 0.5
    with pytest.raises(ValueError, match="loss must be one of"):
        make_loss("absolute")
    assert set(LOSSES) == {"smoothed_hinge", "squared"}


def test_gamma_must_be_positive():
    with pytest.raises(ValueError, match="gamma"):
        SmoothedHinge(gamma=0.0)


def test_hinge_value_regions():
    # quadratic head of width gamma between the flat and linear branches
    loss = SmoothedHinge(gamma=1.0)
    y = np.array([1.0, 1.0, 1.0, 1.0])
    a = np.array([2.0, 1.0, 0.5, -1.0])
    # z = 1 - y*a = [-1, 0, 0.5, 2] -> [0, 0, z^2/2, z - 1/2]
    np.testing.assert_allclose(loss.value(a, y), [0.0, 0.0, 0.125, 1.5])


def test_hinge_value_at_zero_margin_is_half():
    # zero model: z = 1, exactly the head/linear junction -> 1 - gamma/2 = 0.5
    loss = SmoothedHinge(gamma=1.0)
    assert loss.value(0.0, 1.0) == 0.5
    assert loss.value(0.0, -1.0) == 0.5


def test_squared_value_and_derivative():
    loss = SquaredLoss()
    assert loss.value(2.0, 1.0) == 0.5
    assert loss.derivative(2.0, 1.0) == 1.0
    assert loss.value(1.0, 1.0) == 0.0


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=str)
def test_conjugate_at_zero_is_zero(loss):
    # f(0-argument of f*) = sup_a(0 - f(a)) = -min f = 0 for both losses
    assert loss.conjugate(0.0, 1.0) == 0.0
    assert loss.conjugate(0.0, -1.0) == 0.0


def test_hinge_conjugate_domain():
    loss = SmoothedHinge(gamma=1.0)
    assert loss.conjugate(-1.0, 1.0) == -1.0 + 0.5
    assert np.isinf(loss.conjugate(0.5, 1.0))
    assert np.isinf(loss.conjugate(-1.5, 1.0))
    # label flips the interval
    assert np.isfinite(loss.conjugate(0.5, -1.0))


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=str)
def test_fenchel_young_inequality_on_grid(loss):
    # f(a) + f*(u) >= a*u everywhere in the domain
    a = np.linspace(-8.0, 8.0, 641)
    for y in (1.0, -1.0):
        for u in np.linspace(-1.0, 1.0, 41):
            fstar = loss.conjugate(u, y)
            if not np.isfinite(fstar):
                continue
            gap = loss.value(a, y) + fstar - a * u
            assert gap.min() >= -1e-12


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=str)
def test_fenchel_young_equality_at_gradient(loss):
    # u = f'(a) attains equality: f(a) + f*(f'(a)) = a * f'(a)
    for y in (1.0, -1.0):
        for a in np.linspace(-3.0, 3.0, 25):
            u = float(loss.derivative(a, y))
            lhs = float(loss.value(a, y)) + float(loss.conjugate(u, y))
            assert lhs == pytest.approx(a * u, abs=1e-9)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=str)
def test_derivative_matches_finite_differences(loss):
    h = 1e-6
    for y in (1.0, -1.0):
        for a in np.linspace(-2.7, 2.9, 29):  # grid avoids the hinge kinks
            fd = (loss.value(a + h, y) - loss.value(a - h, y)) / (2 * h)
            assert float(loss.derivative(a, y)) == pytest.approx(fd, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=str)
def test_coordinate_delta_is_the_exact_argmax(loss):
    # the closed form must beat a dense probe of the 1-d dual subproblem
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = float(rng.choice([-1.0, 1.0]))
        alpha = float(rng.uniform(-1, 1)) * (1.0 if isinstance(loss, SquaredLoss) else 0.0)
        if isinstance(loss, SmoothedHinge):
            alpha = y * float(rng.uniform(0, 1))
        margin = float(rng.normal())
        q = float(rng.uniform(0.01, 5.0))

        def objective(delta):
            u = -(alpha + delta)
            fstar = loss.conjugate(u, y)
            return -fstar - delta * margin - 0.5 * q * delta * delta

        best = float(loss.coordinate_delta(alpha, y, margin, q))
        probes = np.linspace(best - 1.0, best + 1.0, 101)
        values = np.array([objective(d) for d in probes])
        values = np.where(np.isfinite(values), values, -np.inf)
        assert objective(best) >= values.max() - 1e-10


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=str)
def test_project_dual_is_identity_on_feasible_points(loss):
    rng = np.random.default_rng(11)
    y = rng.choice([-1.0, 1.0], size=50)
    if isinstance(loss, SmoothedHinge):
        alpha = y * rng.uniform(0.0, 1.0, size=50)
    else:
        alpha = rng.normal(size=50)
    projected = loss.project_dual(alpha, y)
    np.testing.assert_array_equal(projected, alpha)
    assert loss.dual_feasible(projected, y).all()


def test_project_dual_clips_ulp_drift():
    loss = SmoothedHinge(gamma=1.0)
    eps = np.finfo(float).eps
    alpha = np.array([1.0 + 2 * eps, -2 * eps])
    y = np.array([1.0, 1.0])
    assert not loss.dual_feasible(alpha, y).all()
    fixed = loss.project_dual(alpha, y)
    assert loss.dual_feasible(fixed, y).all()
    assert np.isfinite(loss.conjugate(-fixed, y)).all()


@given(
    a=st.floats(-50, 50, allow_nan=False),
    y=st.sampled_from([-1.0, 1.0]),
    s=st.floats(0, 1, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_hinge_fenchel_young_property(a, y, s):
    # every feasible dual coordinate alpha = y*s satisfies the FY inequality
    loss = SmoothedHinge(gamma=1.0)
    u = -y * s
    term = float(loss.value(a, y)) + float(loss.conjugate(u, y)) - a * u
    assert term >= -1e-12


@given(
    a=st.floats(-50, 50, allow_nan=False),
    u=st.floats(-50, 50, allow_nan=False),
    y=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_squared_fenchel_young_property(a, u, y):
    loss = SquaredLoss()
    term = float(loss.value(a, y)) + float(loss.conjugate(u, y)) - a * u
    assert term >= -1e-6 * max(1.0, abs(a * u))
