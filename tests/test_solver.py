"""Dual solver contracts: objectives, gaps, device updates, aggregation."""
import fnmatch
import os
import re
import shutil
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import count_fan_outs, force_numpy, fresh_fast_paths

from fedsel import data, native, orchestrator, products, solver, valuation
from fedsel.data import DeviceDataset
from fedsel.losses import SmoothedHinge, SquaredLoss
from fedsel.rng import substream
from fedsel.solver import (
    GlobalState,
    Hyperparams,
    LocalUpdate,
    apply_dual_update,
    device_update,
    device_update_ovr,
    dual_objective,
    duality_gap,
    fenchel_gap,
    primal_from_dual,
    primal_objective,
)

ROOT = Path(__file__).resolve().parents[1]
HINGE = SmoothedHinge(gamma=1.0)
SQUARED = SquaredLoss()


needs_compiler = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler: the numpy loop is the only backend"
)


def make_device(n=20, dim=4, seed=0, device_id=0):
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1.0, 1.0], size=n)
    feats = labels[:, None] * rng.uniform(0.2, 1.0, size=(n, dim)) + 0.3 * rng.normal(
        size=(n, dim)
    )
    return DeviceDataset(
        device_id=device_id,
        features=feats,
        labels=labels,
        sample_indices=np.arange(n),
    )


# -- objectives ---------------------------------------------------------------


def test_dual_objective_at_zero_hinge():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(30, 5))
    labels = rng.choice([-1.0, 1.0], size=30)
    assert dual_objective(np.zeros(30), feats, labels, HINGE, lam=0.1) == 0.0


def test_dual_objective_single_sample_squared_hand_value():
    # x=(1), y=+1, squared loss, lambda=1, alpha=(1):
    # f*(u) = u^2/2 + u*y so -f*(-1) = -(1/2 - 1) = 1/2; phi = 1; total 0
    value = dual_objective(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), SQUARED, lam=1.0)
    assert value == pytest.approx(0.0, abs=1e-15)


def test_weak_duality_for_feasible_alpha():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, d = 25, 4
        feats = rng.normal(size=(n, d))
        labels = rng.choice([-1.0, 1.0], size=n)
        alpha = labels * rng.uniform(0.0, 1.0, size=n)  # hinge-feasible
        lam = float(rng.uniform(0.01, 1.0))
        dual = dual_objective(alpha, feats, labels, HINGE, lam)
        w = primal_from_dual(alpha, feats, lam)
        primal = primal_objective(w, feats, labels, HINGE, lam)
        assert dual <= primal + 1e-12


def test_primal_at_zero_model_is_half():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(40, 6))
    labels = rng.choice([-1.0, 1.0], size=40)
    assert primal_objective(np.zeros(6), feats, labels, HINGE, lam=0.5) == 0.5


def test_primal_lambda_monotonicity():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(10, 3))
    labels = rng.choice([-1.0, 1.0], size=10)
    w = rng.normal(size=3)
    values = [primal_objective(w, feats, labels, HINGE, lam) for lam in (0.1, 1.0, 10.0)]
    assert values[0] < values[1] < values[2]


def test_primal_duplication_invariance():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(12, 3))
    labels = rng.choice([-1.0, 1.0], size=12)
    w = rng.normal(size=3)
    once = primal_objective(w, feats, labels, HINGE, lam=0.3)
    twice = primal_objective(w, np.vstack([feats, feats]), np.concatenate([labels, labels]), HINGE, lam=0.3)
    assert once == pytest.approx(twice, abs=1e-15)


def test_primal_from_dual_examples():
    assert np.array_equal(primal_from_dual(np.zeros(7), np.ones((7, 3)), 0.4), np.zeros(3))
    # one sample x = e_1, alpha = lambda*D with D = 1 -> w = e_1
    lam = 0.7
    w = primal_from_dual(np.array([lam * 1.0]), np.array([[1.0, 0.0]]), lam)
    np.testing.assert_allclose(w, [1.0, 0.0])


def test_quadratic_regularizer_gradient_finite_difference():
    # w(alpha) = grad g*(phi) with g* = 0.5||.||^2, so the gradient is identity
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(10):
        v = rng.normal(size=5)
        g = lambda x: 0.5 * x @ x
        fd = np.array([(g(v + h * e) - g(v - h * e)) / (2 * h) for e in np.eye(5)])
        rel = np.abs(fd - v) / np.maximum(np.abs(v), 1e-9)
        assert rel.max() < 1e-6


# -- gaps ----------------------------------------------------------------------


def test_gap_at_zero_alpha_equals_primal_at_zero():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(15, 4))
    labels = rng.choice([-1.0, 1.0], size=15)
    gap = duality_gap(np.zeros(15), feats, labels, HINGE, lam=0.2)
    assert gap == primal_objective(np.zeros(4), feats, labels, HINGE, lam=0.2)
    assert gap >= 0.0


def test_fenchel_gap_equals_two_sided_gap():
    rng = np.random.default_rng(8)
    for seed in range(5):
        n, d = 18, 3
        feats = rng.normal(size=(n, d))
        labels = rng.choice([-1.0, 1.0], size=n)
        alpha = labels * rng.uniform(0.0, 1.0, size=n)
        lam = 0.15
        margins = feats @ primal_from_dual(alpha, feats, lam)
        assert fenchel_gap(alpha, margins, labels, HINGE) == pytest.approx(
            duality_gap(alpha, feats, labels, HINGE, lam), abs=1e-12
        )


def test_solver_closes_gap_on_separable_instance():
    feats = np.array([[1.0, 0.2], [-1.0, -0.1]])
    labels = np.array([1.0, -1.0])
    device = DeviceDataset(0, feats, labels, np.arange(2))
    hp = Hyperparams(loss="smoothed_hinge", reg_lambda=0.5, epochs=200)
    update = device_update(
        device, np.zeros(2), np.zeros(2), hp, substream(0), total_samples=2
    )
    gap = duality_gap(update.rho, feats, labels, HINGE, 0.5)
    assert gap < 1e-6


def test_gap_median_nonincreasing_over_passes():
    lam = 0.05
    gap_rows = []
    for seed in range(5):
        device = make_device(n=30, dim=4, seed=seed)
        hp = Hyperparams(loss="smoothed_hinge", reg_lambda=lam)
        gaps = []
        for epochs in (1, 2, 4, 8):
            update = device_update(
                device, np.zeros(4), np.zeros(30), hp,
                substream(seed), total_samples=30, epochs=epochs,
            )
            gaps.append(duality_gap(update.rho, device.features.rows(), device.labels, HINGE, lam))
        gap_rows.append(gaps)
    medians = np.median(np.array(gap_rows), axis=0)
    assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))


# -- device updates -------------------------------------------------------------


def test_device_update_zero_epochs():
    device = make_device(n=12, dim=4, seed=13)
    hp = Hyperparams(loss="smoothed_hinge", reg_lambda=0.1)
    update = device_update(
        device, np.zeros(4), np.zeros(12), hp, substream(1), total_samples=12, epochs=0
    )
    assert np.array_equal(update.rho, np.zeros(12))
    assert np.array_equal(update.delta_phi, np.zeros(4))
    assert update.achieved_theta == 1.0


def test_device_update_improves_dual_objective():
    device = make_device(n=25, dim=5, seed=14)
    lam = 0.1
    hp = Hyperparams(loss="smoothed_hinge", reg_lambda=lam, epochs=3)
    before = dual_objective(np.zeros(25), device.features.rows(), device.labels, HINGE, lam)
    update = device_update(
        device, np.zeros(5), np.zeros(25), hp, substream(2), total_samples=25
    )
    after = dual_objective(update.rho, device.features.rows(), device.labels, HINGE, lam)
    assert after > before
    assert 0.0 <= update.achieved_theta <= 1.0


def test_device_update_deterministic_across_identical_devices():
    a = make_device(n=15, dim=4, seed=15, device_id=0)
    b = make_device(n=15, dim=4, seed=15, device_id=1)
    hp = Hyperparams(loss="smoothed_hinge", reg_lambda=0.2, epochs=2)
    phi = np.full(4, 0.05)
    ua = device_update(a, phi, np.zeros(15), hp, substream(9), total_samples=15)
    ub = device_update(b, phi, np.zeros(15), hp, substream(9), total_samples=15)
    assert np.array_equal(ua.rho, ub.rho)
    assert np.array_equal(ua.delta_phi, ub.delta_phi)
    assert ua.achieved_theta == ub.achieved_theta


def test_device_update_label_validation():
    device = make_device(n=6, dim=2, seed=16)
    hp = Hyperparams()
    with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
        device_update(
            device, np.zeros(2), np.zeros(6), hp, substream(0),
            total_samples=6, labels=np.arange(6),
        )


def test_scaled_gram_is_the_divided_product_bit_for_bit():
    # the grid's 44 to 660 rows per device by 785 features, and small ones;
    # negative entries included, and a lambda * D that is not a power of two
    rng = np.random.default_rng(21)
    for rows, dim, lam, total in ((1, 3, 0.1, 7), (37, 12, 1e-3, 600), (440, 785, 1e-4, 44001)):
        features = rng.normal(size=(rows, dim))
        expected = features @ features.T / (lam * total)
        got = solver.scaled_gram(features, lam, total)
        assert got.shape == expected.shape and (features < 0).any()
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# sizes below, at and above the compiled pack's 32-row tile, and a grid
# device's rows, odd, and the grid's largest
PACK_SIZES = (1, 2, 31, 32, 33, 301, 663)


def mask_pack(gram):
    """The upper triangle of the square gram, row by row, by numpy's mask."""
    return gram[np.triu(np.ones(gram.shape, dtype=bool))]


def assert_byte_symmetric(gram):
    assert gram.tobytes() == np.ascontiguousarray(gram.T).tobytes()


def layouts(features):
    """features as C-contiguous rows, as every other row of a taller matrix,
    as every other column of a wider one and in Fortran order."""
    tall = np.empty((2 * features.shape[0], features.shape[1]))
    tall[::2] = features
    wide = np.empty((features.shape[0], 2 * features.shape[1]))
    wide[:, ::2] = features
    return features, tall[::2], wide[:, ::2], np.asfortranarray(features)


def test_scaled_gram_is_byte_symmetric_in_every_layout():
    # the premise of holding only the upper triangle: X @ X.T mirrors one
    # computed triangle in each of these layouts (which may round the
    # products differently)
    rng = np.random.default_rng(5)
    for n in PACK_SIZES:
        for layout in layouts(rng.normal(size=(n, 785))):
            assert_byte_symmetric(solver.scaled_gram(layout, 1e-4, 44001))


def test_scaled_gram_is_byte_symmetric_on_every_grid_device(idx_corpus):
    from fedsel.data import load_idx_split

    split = load_idx_split(
        idx_corpus[0], num_devices=100, shards_per_device=2, seed=1, validation_size=5000,
        device_test_fraction=0.2, unbalanced=True,
    )
    lam, total = 1.0 / split.total_train, split.total_train
    for device in split.devices:
        features = device.features.rows()
        gram = solver.scaled_gram(features, lam, total)
        assert_byte_symmetric(gram)
        packed = solver._scaled_gram_upper(features, lam, total, device.device_id)
        assert packed.tobytes() == mask_pack(gram).tobytes(), device.device_id


def test_a_device_of_strided_features_solves_as_its_contiguous_copy():
    # numpy multiplies a view of every other column through gemm on copies,
    # whose Gram was not symmetric at 301 x 785; the solve takes C-contiguous
    # rows, so the view gives its copy's update byte for byte
    rng = np.random.default_rng(17)
    view = rng.normal(size=(301, 2 * 785))[:, ::2]
    labels = rng.choice([-1.0, 1.0], size=301)
    hp = Hyperparams(reg_lambda=1e-3, epochs=2)
    updates = [
        device_update(
            DeviceDataset(
                device_id=4, features=feats, labels=labels, sample_indices=np.arange(301)
            ),
            np.zeros(785), np.zeros(301), hp, substream(3), total_samples=301,
        )
        for feats in (view, np.ascontiguousarray(view))
    ]
    strided, contiguous = updates
    assert strided.rho.tobytes() == contiguous.rho.tobytes()
    assert strided.delta_phi.tobytes() == contiguous.delta_phi.tobytes()
    assert strided.achieved_theta == contiguous.achieved_theta


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_packed_gram_gives_the_scaled_grams_bytes_back(monkeypatch, backend):
    if backend == "numpy":
        force_numpy(monkeypatch, "pack_upper")
    elif solver._pack_kernel() is None:
        pytest.skip("no compiled pack: the numpy mask pack is the only backend")
    rng = np.random.default_rng(9)
    for n in PACK_SIZES:
        features = rng.normal(size=(n, 40))
        features[::4] = 0.0  # rows of zero products, whose -0.0 or +0.0 must survive
        gram = solver.scaled_gram(features, 0.01, 900)
        packed = solver._scaled_gram_upper(features, 0.01, 900, device_id=3)
        assert packed.shape == (n * (n + 1) // 2,)
        assert packed.tobytes() == mask_pack(gram).tobytes(), n
        assert solver._unpack_upper(packed, n).tobytes() == gram.tobytes(), n
        diagonal = solver._packed_diagonal(packed, n)
        assert diagonal.tobytes() == np.diagonal(gram).copy().tobytes(), n


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_a_gram_with_one_flipped_lower_bit_is_refused(monkeypatch, backend):
    if backend == "numpy":
        force_numpy(monkeypatch, "pack_upper")
    elif solver._pack_kernel() is None:
        pytest.skip("no compiled pack: the numpy mask pack is the only backend")
    exact = solver.scaled_gram
    rng = np.random.default_rng(13)
    features = rng.normal(size=(70, 8))
    features[0] = 0.0  # row and column 0 hold +0.0
    # the last mantissa bit in the diagonal's tile and in one off it, and the
    # sign of a zero: -0.0 == 0.0, but its bytes differ
    for i, j, bit in ((20, 3, 0), (69, 40, 0), (69, 0, 63)):

        def flipped(*args):
            gram = exact(*args)
            gram.view(np.uint64)[i, j] ^= np.uint64(1) << np.uint64(bit)
            return gram

        monkeypatch.setattr(solver, "scaled_gram", flipped)
        with pytest.raises(ValueError, match="device 7: its scaled Gram is not symmetric"):
            solver._scaled_gram_upper(features, 0.1, 500, device_id=7)
    monkeypatch.setattr(solver, "scaled_gram", exact)
    assert solver._scaled_gram_upper(features, 0.1, 500, device_id=7).size == 70 * 71 // 2


def test_a_square_gram_is_refused_where_the_packed_triangle_is_due():
    device = make_device(n=5)
    hp = Hyperparams(reg_lambda=0.1, epochs=1)
    square = solver.scaled_gram(device.features.rows(), 0.1, 10)
    with pytest.raises(ValueError, match="device 0: gram_upper needs the n"):
        device_update(
            device, np.zeros(4), np.zeros(5), hp, substream(0), total_samples=10,
            gram_upper=square,
        )


@needs_compiler
def test_compiled_pack_equals_the_numpy_mask_pack():
    kernel = solver._pack_kernel()
    assert kernel is not None, "a C compiler is present but the pack was not loaded"
    rng = np.random.default_rng(17)
    for n in PACK_SIZES:
        gram = rng.normal(size=(n, n))
        for case in (gram + gram.T, gram):  # symmetric, and not (where n > 1)
            got = np.empty(n * (n + 1) // 2)
            symmetric = case.tobytes() == np.ascontiguousarray(case.T).tobytes()
            assert kernel(n, np.ascontiguousarray(case), got) == (0 if symmetric else -1)
            assert got.tobytes() == mask_pack(case).tobytes(), n
            assert solver._numpy_pack(case)[1] == symmetric


def test_ovr_column_matches_lone_run():
    n, dim, k = 14, 3, 4
    rng = np.random.default_rng(17)
    feats = rng.normal(size=(n, dim))
    labels = rng.integers(k, size=n)
    device = DeviceDataset(0, feats, labels, np.arange(n))
    hp = Hyperparams(loss="smoothed_hinge", reg_lambda=0.1, epochs=2)
    phi_cols = rng.normal(size=(dim, k)) * 0.01
    alpha_cols = np.zeros((n, k))

    update = device_update_ovr(
        device, phi_cols, alpha_cols, k, hp, substream(21), total_samples=n
    )
    assert update.rho.shape == (n, k)
    assert update.delta_phi.shape == (dim, k)
    assert update.achieved_theta.shape == (k,)
    for cls in range(k):
        lone = device_update(
            device,
            phi_cols[:, cls],
            alpha_cols[:, cls],
            hp,
            substream(21),
            total_samples=n,
            labels=np.where(labels == cls, 1.0, -1.0),
        )
        # coordinate decisions are bitwise-identical; the batched matrix
        # products behind delta_phi/theta only agree to rounding
        assert np.array_equal(update.rho[:, cls], lone.rho)
        np.testing.assert_allclose(
            update.delta_phi[:, cls], lone.delta_phi, rtol=1e-12, atol=1e-15
        )
        assert update.achieved_theta[cls] == pytest.approx(
            lone.achieved_theta, abs=1e-12
        )


@pytest.mark.parametrize("loss_name", ["smoothed_hinge", "squared"])
def test_ovr_theta_matches_an_independent_certificate(loss_name):
    # rederive each column's theta from the returned rho: the local dual
    # improvement from the definition, including the quadratic term, and the
    # Fenchel gap left at the updated margins
    # one epoch at a small lambda leaves theta mid-range (0.3 to 0.6 here)
    n, dim, k, lam, total = 16, 3, 3, 0.02, 48
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(n, dim))
    labels = rng.integers(k, size=n)
    device = DeviceDataset(0, feats, labels, np.arange(n))
    hp = Hyperparams(loss=loss_name, reg_lambda=lam, epochs=1)
    loss = hp.make_loss()
    targets = np.where(labels[:, None] == np.arange(k), 1.0, -1.0)
    phi = rng.normal(size=(dim, k)) * 0.1
    alpha = targets * rng.uniform(0.0, 0.6, size=(n, k))  # inside the hinge's dual box

    update = device_update_ovr(device, phi, alpha, k, hp, substream(3), total_samples=total)
    for c in range(k):
        y, a, r = targets[:, c], alpha[:, c], update.rho[:, c]
        dphi = feats.T @ r / (lam * total)
        conj0 = loss.conjugate(-a, y)
        conj1 = loss.conjugate(-(a + r), y)
        improvement = (
            (conj0 - conj1).sum() / total
            - (r * (feats @ phi[:, c])).sum() / total
            - 0.5 * lam * dphi @ dphi
        )
        margins = feats @ (phi[:, c] + dphi)
        gap = (loss.value(margins, y) + conj1 + (a + r) * margins).sum() / total
        assert improvement > 0 and gap > 0
        assert update.achieved_theta[c] == pytest.approx(
            gap / (improvement + gap), abs=1e-9
        )


# -- compiled coordinate kernel ------------------------------------------------

def job_inputs(n, k, alpha_kind, seed=0):
    """A _local_solves job for a device of n samples and k columns, without
    its visit orders: (classes, alpha0, base_margins, gram_scaled, qii).

    The targets come from the class ids: one-vs-rest for k > 1, +1 for class
    0 when k = 1. alpha_kind: "zero", "interior" (strictly inside the hinge
    box), "bounds" (every coordinate at 0 or at the box edge), "optimum":
    alpha = y and margins -0.0, where every step's K deltas are +0.0 for both
    losses (the update must then be skipped: adding +0.0 would turn the
    margins' -0.0 into +0.0), or "nan": "bounds" with one NaN margin in the
    last column, whose steps then move with NaN deltas.
    """
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 6)) / 2.0
    lam_total = 0.5 * n
    gram = feats @ feats.T
    gram_scaled = np.ascontiguousarray(gram / lam_total)
    qii = np.diagonal(gram) / lam_total
    classes = rng.integers(0, max(k, 2), size=n)
    labels_pm = solver.one_vs_rest_targets(classes, k)
    margins = feats @ rng.normal(size=(6, k))
    alpha0 = np.zeros((n, k))
    if alpha_kind == "interior":
        alpha0 = labels_pm * rng.uniform(0.05, 0.95, size=(n, k))
    elif alpha_kind == "optimum":
        alpha0 = labels_pm.copy()
        margins = np.full((n, k), -0.0)
    if alpha_kind in ("bounds", "nan"):
        alpha0 = labels_pm * rng.choice([0.0, 1.0], size=(n, k))
    if alpha_kind == "nan":
        margins[n // 2, k - 1] = np.nan
    return classes, alpha0, margins, gram_scaled, qii


def packed_job(fields, orders):
    """The _local_solves job of job_inputs' fields and visit orders: its Gram
    packed as its upper triangle."""
    classes, alpha0, base, gram_scaled, qii = fields
    return classes, alpha0, base, mask_pack(gram_scaled), qii, orders


def passes_args(loss, job):
    """_coordinate_passes arguments of one _local_solves job."""
    classes, alpha0, base, gram_upper, qii, orders = job
    labels_pm = solver.one_vs_rest_targets(classes, base.shape[1])
    gram_scaled = solver._unpack_upper(gram_upper, base.shape[0])
    return labels_pm, alpha0, base, gram_scaled, qii, loss, orders


def solve_bytes(kernel, loss, jobs):
    """The bytes of each job's rho and certificate sums from _local_solves."""
    return [[a.tobytes() for a in pair] for pair in solver._local_solves(kernel, loss, jobs, 1)]


@needs_compiler
@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("alpha_kind", ["zero", "interior", "bounds", "optimum", "nan"])
@pytest.mark.parametrize(
    "loss", [SmoothedHinge(gamma=1.0), SmoothedHinge(gamma=0.5), SquaredLoss()], ids=repr
)
def test_kernel_matches_numpy_loop_bitwise(loss, alpha_kind, k):
    kernel = solver._kernel()
    assert kernel is not None, "a C compiler is present but the kernel was not loaded"
    # 601 is odd and large: one call runs the vectorised margin loop and its
    # scalar remainder
    for n in (1, 17, 600, 601):
        fields = job_inputs(n, k, alpha_kind, seed=n)
        for epochs in (0, 1, 3):
            jobs = [packed_job(fields, solver._visit_orders(substream(n, epochs), epochs, n))]
            expected = solve_bytes(None, loss, jobs)
            assert solve_bytes(kernel, loss, jobs) == expected, (n, epochs)
            if alpha_kind == "optimum":
                assert not np.frombuffer(expected[0][0]).any()


# job sizes below, at, above and at twice the unpack's 32-row tile, and a
# grid device's odd rows: largest first, so one lane's square is reused by
# smaller jobs and holds a larger job's entries past their rows
TILE_SIZES = (165, 65, 64, 33, 32, 31, 1)


def tile_jobs(k, seed=0):
    return [
        packed_job(job_inputs(n, k, "interior", seed=seed + n), solver._visit_orders(
            substream(seed, n), 2, n
        ))
        for n in TILE_SIZES
    ]


@needs_compiler
@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("loss", [SmoothedHinge(gamma=0.5), SquaredLoss()], ids=repr)
def test_compiled_and_numpy_solves_agree_on_packed_jobs_around_the_tile(loss, k):
    kernel = solver._kernel()
    assert kernel is not None
    jobs = tile_jobs(k)
    expected = solve_bytes(None, loss, jobs)
    assert solve_bytes(kernel, loss, jobs) == expected
    for lanes in (2, 3):
        got = solver._local_solves(kernel, loss, jobs, lanes)
        assert [[a.tobytes() for a in pair] for pair in got] == expected, lanes


@needs_compiler
def test_each_lane_unpacks_into_one_square_of_its_largest_job(monkeypatch):
    kernel = solver._kernel()
    calls = []

    def recording(*args):  # sdca_job's arguments: n first, the square last
        calls.append((args[0], args[-1]))
        return kernel(*args)

    jobs = tile_jobs(10, seed=4)
    expected = solve_bytes(None, HINGE, jobs)
    for lanes in (1, 2, 4):
        calls.clear()
        got = solver._local_solves(recording, HINGE, jobs, lanes)
        assert [[a.tobytes() for a in pair] for pair in got] == expected, lanes
        squares = {id(square): square for _, square in calls}
        assert len(squares) == min(lanes, len(jobs))  # one per lane
        for key, square in squares.items():
            sides = [n for n, used in calls if id(used) == key]
            assert square.size == max(sides) ** 2  # no larger than its largest job needs
        assert max(square.size for square in squares.values()) == max(TILE_SIZES) ** 2


def all_columns_passes(labels_pm, alpha0, margins, gram_scaled, qii, loss, orders, steps=None):
    """The coordinate loop before the per-column gate, kept as a frozen reference.

    Whenever any column's step moved, every column's rho and margins took
    its delta, zeros included. `steps`, when given, collects each visited
    step's mask of columns whose own delta moved.
    """
    rho = np.zeros_like(alpha0)
    margins = margins.copy()
    for order in orders:
        for i in order:
            delta = loss.coordinate_delta(alpha0[i] + rho[i], labels_pm[i], margins[i], qii[i])
            if steps is not None:
                steps.append(delta != 0)
            if np.any(delta):
                rho[i] += delta
                margins += np.outer(gram_scaled[i], delta)
    return rho, margins


def mixed_steps(steps):
    """How many steps moved some columns and left others still."""
    moved = np.array(steps)
    return int(np.sum(moved.any(axis=1) & ~moved.all(axis=1)))


def ovr_device_inputs(n, k, loss, seed):
    """One-vs-rest solve inputs for a device of n samples: class labels
    skewed towards a few classes, every column's alpha either zero or at the
    clip bound (alpha = y), and margins from a small random model."""
    rng = np.random.default_rng(seed)
    classes = rng.choice(k, size=n, p=np.arange(k, 0, -1) / (k * (k + 1) / 2))
    labels_pm = np.where(classes[:, None] == np.arange(k), 1.0, -1.0)
    feats = rng.normal(size=(n, 8)) + classes[:, None] * 0.3
    gram_scaled = solver.scaled_gram(feats, 0.01, 4 * n)
    qii = np.diagonal(gram_scaled).copy()
    alpha0 = labels_pm * rng.choice([0.0, 1.0], size=(n, k))
    margins = feats @ rng.normal(size=(8, k)) * 0.1
    return labels_pm, alpha0, margins, gram_scaled, qii, loss


@pytest.mark.parametrize("loss", [SmoothedHinge(gamma=1.0), SquaredLoss()], ids=repr)
def test_column_gate_matches_all_columns_loop_bitwise(loss):
    # adding +-0 leaves every nonzero value unchanged, and rho starts at +0.0,
    # so gating each column on its own step moves no byte of rho or margins
    # (no base margin here is -0.0)
    mixed = 0
    for n in (1, 9, 60, 333):  # unbalanced device sizes
        args = ovr_device_inputs(n, 10, loss, seed=n)
        for epochs in (1, 3):
            orders = solver._visit_orders(substream(n, epochs), epochs, n)
            steps = []
            rho, margins = all_columns_passes(*args, orders, steps=steps)
            mixed += mixed_steps(steps)
            got_rho, got_margins = solver._coordinate_passes(*args, orders)
            assert got_rho.tobytes() == rho.tobytes(), (n, epochs)
            assert got_margins.tobytes() == margins.tobytes(), (n, epochs)
    assert mixed > 0


def test_probe_jobs_mix_moving_and_still_columns():
    # squared-loss steps nearly always move; the hinge columns at their clip
    # bounds are the ones that stay still
    (hinge, hinge_jobs), (squared, squared_jobs) = solver._probe_jobs()
    for job in hinge_jobs[:2]:  # the two 37x4 jobs of 2 epochs
        steps = []
        all_columns_passes(*passes_args(hinge, job), steps=steps)
        moved = np.array(steps)
        assert mixed_steps(steps) > 0
        # the first column is still while another moves: a gate on column 0
        # alone would skip those steps
        assert np.any(~moved[:, 0] & moved[:, 1:].any(axis=1))
    for loss, jobs in ((hinge, hinge_jobs), (squared, squared_jobs)):
        # once the NaN spreads, every step of the last column moves with a NaN delta
        rho, _ = solver._coordinate_passes(*passes_args(loss, jobs[1]))
        assert np.isnan(rho[:, -1]).all()


@pytest.mark.parametrize("loss", [SmoothedHinge(gamma=1.0), SquaredLoss()], ids=repr)
def test_still_column_keeps_negative_zero_margins(loss):
    # the one byte the gate may change: the all-columns loop added g * (+0.0)
    # to a still column's -0.0 margins when another column moved, which turns
    # some of them into +0.0; the gated loop leaves them -0.0, rho identical
    n = 23
    classes, alpha0, margins, gram_scaled, qii = job_inputs(n, 2, "interior")
    labels_pm = solver.one_vs_rest_targets(classes, 2)
    alpha0[:, 1] = labels_pm[:, 1]  # column 1 at its optimum: every step is +0.0
    margins[:, 1] = -0.0
    orders = solver._visit_orders(substream(3), 2, n)
    args = (labels_pm, alpha0, margins, gram_scaled, qii, loss, orders)
    old_rho, old_margins = all_columns_passes(*args)
    assert np.signbit(old_margins[:, 1]).sum() < n  # the old loop did flip some
    rho, got_margins = solver._coordinate_passes(*args)
    assert rho.tobytes() == old_rho.tobytes()
    assert got_margins[:, 1].tobytes() == margins[:, 1].tobytes()  # all still -0.0
    assert got_margins[:, 0].tobytes() == old_margins[:, 0].tobytes()


def c_functions(source: str) -> dict[str, bool]:
    """The functions a C source defines, each mapped to whether it is static."""
    source = re.sub(r"/\*.*?\*/|//[^\n]*|^#[^\n]*", "", source, flags=re.S | re.M)
    source = re.sub(r"__attribute__\s*\(\([^()]*\)\)", "", source)
    found = re.finditer(r"^([^\s{}][^;{}()]*?)\b(\w+)\s*\([^;{}]*\)\s*\{", source, re.M)
    return {m.group(2): "static" in m.group(1).split() for m in found}


def test_kernel_compile_flags_keep_ieee_arithmetic(tmp_path, monkeypatch):
    bound = set(orchestrator.fast_paths()) - {"library"}  # every name the registry binds
    # no FMA contraction, no value-changing optimisation, no CPU-specific code:
    # a cached library may be loaded on another CPU, where the probe cannot
    # catch an illegal instruction
    flags = native.COMPILE_FLAGS
    assert "-ffp-contract=off" in flags
    for unsafe in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations"):
        assert unsafe not in flags
    assert not any(flag.startswith("-march=") for flag in flags)

    # every kernel is built by that one command, into one library
    builds = []

    def record(command, input, **_):
        builds.append((command, input))
        raise native.subprocess.CalledProcessError(1, command)

    monkeypatch.setattr(native.subprocess, "run", record)
    with pytest.raises(native.subprocess.CalledProcessError):
        native.load_library(cache_dir=tmp_path)
    [(command, source)] = builds
    assert command[1 : 1 + len(flags)] == list(flags)
    # a non-static function is an entry point of the library: each but the
    # clone report must be a kernel the registry binds, so an unused one
    # fails here, and so does a bound name the library does not export
    functions = c_functions(source.decode())
    assert {"coordinate_passes", "sdca_certificate", "walk_values"} <= set(functions)
    entry_points = {name for name, static in functions.items() if not static}
    assert entry_points == {"native_isa", "decode_pixels", "pack_upper", "sdca_job", "walk_values"}
    assert entry_points - {"native_isa"} == bound


@pytest.fixture(scope="module")
def plain_library(tmp_path_factory):
    """The kernels built once as plain functions, as where target_clones is
    not available: the baseline body, whatever this CPU has."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "COMPILE_FLAGS", (*native.COMPILE_FLAGS, "-DFEDSEL_NO_TARGET_CLONES"))
        return native.load_library(cache_dir=tmp_path_factory.mktemp("plain"))


def plain_kernels(plain_library, monkeypatch):
    """The plain library's sdca_job, walk_values and decode_pixels, bound and
    probed by a fresh registry that loads it (None on a probe mismatch); the
    process's registry is back once the test ends."""
    fresh_fast_paths(monkeypatch)
    monkeypatch.setattr(native, "load_library", lambda compiler: plain_library)
    return solver._kernel(), valuation._walk_kernel(), data._pixel_kernel()


@needs_compiler
def test_kernels_built_without_target_clones_pass_both_probes(plain_library, monkeypatch):
    assert native.library() is not None
    clone = native.FAST_PATHS["library"]["clone"]  # the body the loader binds on this CPU
    assert clone in ("avx512f", "avx2", "default")
    assert native.FAST_PATHS["library"] == {"status": "c", "reason": None, "clone": clone}
    assert None not in plain_kernels(plain_library, monkeypatch)
    assert orchestrator.fast_paths() == {
        "decode_pixels": {"status": "c", "reason": None},
        "library": {"status": "c", "reason": None, "clone": "default"},
        "pack_upper": {"status": "c", "reason": None},
        "sdca_job": {"status": "c", "reason": None},
        "walk_values": {"status": "c", "reason": None},
    }


def tmc_sized_game(n=640, members=30, classes=10, seed=41):
    """A grid TMC call's shape on fewer rows: 30 members, 10 classes, 50 walks
    of 29 steps. Every fifth row scores small integers, so classes tie
    exactly there and the exact path runs."""
    rng = np.random.default_rng(seed)

    def scores():
        block = rng.normal(size=(n, classes))
        block[::5] = rng.integers(-2, 3, size=block[::5].shape)
        return block

    oracle = valuation.CoalitionOracle(
        scores(), {m: scores() for m in range(members)}, np.eye(n),
        rng.integers(0, classes, size=n), "explored",
    )
    walks = [tuple(int(m) for m in rng.permutation(members)[:-1]) for _ in range(50)]
    return oracle, walks


@needs_compiler
def test_cloned_kernels_give_the_plain_bodys_bytes(plain_library, monkeypatch):
    # the body the loader binds here (the library's clone) against the baseline
    # body, on the probe games, a TMC-sized game with exact ties and a
    # split into more row ranges than CPUs
    cloned_job, cloned = solver._kernel(), valuation._walk_kernel()
    cloned_decode = data._pixel_kernel()
    plain_job, plain, plain_decode = plain_kernels(plain_library, monkeypatch)
    assert cloned is not None and plain is not None
    cases = [(oracle, walks, prefix, (1, 2)) for oracle, walks, prefix in valuation._probe_games()]
    oracle, walks = tmc_sized_game()
    most = native.lanes()  # two ranges per usable CPU
    cases.append((oracle, walks, (), (1, most)))
    cases.append((oracle, [(m,) for m in range(10, 30)], tuple(range(10)), (1, most)))
    exact_rows = 0
    for oracle, walks, prefix, ranges in cases:
        for parts in ranges:
            got = oracle._kernel_walk_values(cloned, walks, parts, prefix)
            assert got == oracle._kernel_walk_values(plain, walks, 1, prefix), parts
            exact_rows += got[1]
    assert exact_rows > 0
    cloned, plain = cloned_job, plain_job
    assert cloned is not None and plain is not None
    cases = [*solver._probe_jobs(), *(
        (loss, [packed_job(
            job_inputs(n, 10, kind, seed=n), solver._visit_orders(substream(n), 3, n)
        )])
        for n in (165, 440)  # a grid device's rows, odd and even
        for kind in ("interior", "bounds", "nan")
        for loss in (HINGE, SQUARED)
    )]
    for loss, jobs in cases:  # the coordinate loop and the certificate
        assert solve_bytes(cloned, loss, jobs) == solve_bytes(plain, loss, jobs)
    assert cloned_decode is not None and plain_decode is not None
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(600, 784), dtype=np.uint8)  # MNIST-shaped rows
    ids = rng.integers(0, 600, size=1000)
    decoded = [np.empty((1000, 785)) for _ in range(2)]
    for decode, out in zip((cloned_decode, plain_decode), decoded):
        decode(1000, 784, images, ids, out)
    assert decoded[0].tobytes() == decoded[1].tobytes()


def fixed_device_updates(k, loss_name, n=17):
    """device_update (k=1) or device_update_ovr (k>1) on a fixed device."""
    device = make_device(n=n, dim=4, seed=31)
    gamma = 0.5 if loss_name == "smoothed_hinge" else 1.0  # squared refuses a gamma
    hp = Hyperparams(loss=loss_name, gamma=gamma, reg_lambda=0.1, epochs=3)
    if k == 1:
        update = device_update(
            device, np.full(4, 0.02), 0.5 * device.labels, hp, substream(5), total_samples=40
        )
        return [update]
    labels = np.arange(n) % k
    device = DeviceDataset(0, device.features, labels, np.arange(n))
    alpha_cols = np.where(labels[:, None] == np.arange(k), 0.25, -0.25)
    return [device_update_ovr(
        device, np.full((4, k), 0.01), alpha_cols, k, hp, substream(5), total_samples=40
    )]


def update_bytes(updates):
    return [
        (u.rho.tobytes(), u.delta_phi.tobytes(), np.asarray(u.achieved_theta).tobytes())
        for u in updates
    ]


@needs_compiler
@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("loss_name", ["smoothed_hinge", "squared"])
def test_device_updates_equal_across_backends(monkeypatch, loss_name, k):
    assert solver._kernel() is not None
    compiled = update_bytes(fixed_device_updates(k, loss_name))
    force_numpy(monkeypatch, "sdca_job")
    assert solver._kernel() is None
    assert update_bytes(fixed_device_updates(k, loss_name)) == compiled


def reference_update(device, phi_cols, alpha_cols, labels_pm, hp, rng, total_samples):
    """One device's local solve as it ran before devices were solved in
    batches, kept as a frozen numpy reference: the numpy coordinate loop and
    the certificate spelled out."""
    lam = hp.resolved_lambda(total_samples)
    loss = hp.make_loss()
    feats = device.features.rows()
    gram_scaled = solver.scaled_gram(feats, lam, total_samples)
    base_margins = products.row_major_scores(feats, phi_cols)
    orders = solver._visit_orders(rng, hp.epochs, device.size)
    rho, margins = solver._coordinate_passes(
        labels_pm, alpha_cols, base_margins, gram_scaled, np.diagonal(gram_scaled).copy(), loss,
        orders,
    )
    delta_phi = feats.T @ rho / (lam * total_samples)
    alpha0 = loss.project_dual(alpha_cols, labels_pm)
    beta = loss.project_dual(alpha_cols + rho, labels_pm)
    conj0 = loss.conjugate(-alpha0, labels_pm)
    conj1 = loss.conjugate(-beta, labels_pm)
    improvement = (
        (conj0 - conj1).sum(axis=0) / total_samples
        - (rho * base_margins).sum(axis=0) / total_samples
        - 0.5 * lam * (delta_phi * delta_phi).sum(axis=0)
    )
    gap = (loss.value(margins, labels_pm) + conj1 + beta * margins).sum(axis=0) / total_samples
    return rho, delta_phi, solver._theta_from_certificate(improvement, gap)


def batch_inputs(k, seed=3):
    """A round's worth of devices for _solve_columns: 165 and 441 rows (a
    grid device's, odd), and 9 and 37 rows; k = 1 is one binary column.
    alpha holds 0, -0.0, interior values, both clip bounds and values
    outside the hinge's dual domain. When k > 1, phi's column 0 is -0.0,
    and the 441-row device's last column holds one NaN alpha: its steps
    move with NaN deltas and its hinge conjugates are +inf."""
    rng = np.random.default_rng(seed)
    dim, devices, alpha_rows, classes = 6, [], [], []
    for device_id, n in enumerate((165, 9, 441, 37)):
        labels = rng.integers(0, max(k, 2), size=n)
        feats = rng.normal(size=(n, dim)) + labels[:, None] * 0.2
        devices.append(DeviceDataset(device_id, feats, labels, np.arange(n)))
        targets = solver.one_vs_rest_targets(labels, k)
        alpha_rows.append(targets * rng.choice([0.0, -0.0, 0.3, 0.8, 1.0, 1.5, -0.2], size=(n, k)))
        classes.append(labels)
    phi_cols = rng.normal(size=(dim, k)) * 0.1
    if k > 1:
        phi_cols[:, 0] = -0.0
        alpha_rows[2][200, -1] = np.nan
    return devices, phi_cols, alpha_rows, classes


def batch_updates(devices, phi_cols, alpha_rows, classes, hp, total_samples=2000):
    k = phi_cols.shape[1]
    rngs = [substream(7, device.device_id) for device in devices]
    return solver._solve_columns(
        devices, phi_cols, alpha_rows, classes, k, hp, rngs, total_samples, None,
        [None] * len(devices),
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("loss_name", ["smoothed_hinge", "squared"])
def test_batch_matches_the_numpy_reference_on_every_lane_count(monkeypatch, loss_name, k):
    gamma = 0.5 if loss_name == "smoothed_hinge" else 1.0  # squared refuses a gamma
    hp = Hyperparams(loss=loss_name, gamma=gamma, reg_lambda=0.01, epochs=3)
    devices, phi_cols, alpha_rows, classes = batch_inputs(k)
    expected = [
        [a.tobytes() for a in reference_update(
            device, phi_cols, alpha, solver.one_vs_rest_targets(labels, k), hp,
            substream(7, device.device_id), 2000,
        )]
        for device, alpha, labels in zip(devices, alpha_rows, classes)
    ]
    nan_devices = [m for m, (rho, _, _) in enumerate(expected) if np.isnan(np.frombuffer(rho)).any()]
    assert nan_devices == ([2] if k > 1 else [])

    def solved():
        return [
            [u.rho.tobytes(), u.delta_phi.tobytes(), u.achieved_theta.tobytes()]
            for u in batch_updates(devices, phi_cols, alpha_rows, classes, hp)
        ]

    # the kernels' probes fan out before the count starts
    kernel, most = solver._kernel(), native.lanes()
    lanes = count_fan_outs(monkeypatch)
    probes = [
        (loss, jobs, solver._local_solves(None, loss, jobs, 1))
        for loss, jobs in solver._probe_jobs()
    ]
    if shutil.which("cc") is not None:  # a built job must pass its probe
        assert kernel is not None
        for count in range(1, most + 1):
            monkeypatch.setattr(native, "lanes", lambda: count)
            assert solved() == expected, count
            for loss, jobs, reference in probes:
                got = solver._local_solves(solver._kernel(), loss, jobs, count)
                assert [[a.tobytes() for a in pair] for pair in got] == [
                    [a.tobytes() for a in pair] for pair in reference
                ]
        # one fan-out per batch, on min(lanes, jobs) lanes
        assert lanes == [
            min(count, jobs)
            for count in range(1, most + 1)
            for jobs in (len(devices), *(len(jobs) for _, jobs, _ in probes))
        ]
    force_numpy(monkeypatch, "sdca_job")  # the compiled job forced off
    assert solver._kernel() is None
    assert solved() == expected


@needs_compiler
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
def test_local_solves_fan_out_without_the_walk_kernel(monkeypatch):
    # the lane count is the process's, not the walk kernel's: with the walk
    # kernel declined, a round's compiled solves still fan out
    hp = Hyperparams(loss="smoothed_hinge", gamma=0.5, reg_lambda=0.01, epochs=3)
    devices, phi_cols, alpha_rows, classes = batch_inputs(10)
    assert solver._kernel() is not None  # its probe runs before the count starts
    most = native.lanes()
    force_numpy(monkeypatch, "walk_values")
    lanes = count_fan_outs(monkeypatch)

    def solved():
        return [
            [u.rho.tobytes(), u.delta_phi.tobytes(), u.achieved_theta.tobytes()]
            for u in batch_updates(devices, phi_cols, alpha_rows, classes, hp)
        ]

    fanned_out = solved()
    monkeypatch.setattr(native, "lanes", lambda: 1)
    assert fanned_out == solved()
    assert lanes == [min(most, len(devices)), 1]


def assert_only_sdca_job_declined(reason):
    """The registry, once both kernels are bound, holds the library and the
    walk kernel as compiled and sdca_job as declined for `reason`."""
    paths = orchestrator.fast_paths()  # what a run's manifest records
    assert paths["library"]["status"] == paths["walk_values"]["status"] == "c"
    assert paths["sdca_job"] == {"status": "numpy", "reason": reason}


@needs_compiler
def test_certificate_probe_mismatch_falls_back_to_numpy(monkeypatch):
    reference = update_bytes(fixed_device_updates(10, "smoothed_hinge"))
    exact = solver._certificate_sums

    def one_ulp_off(*args):  # stands in for a miscompiled certificate
        return np.nextafter(exact(*args), np.inf)

    fresh_fast_paths(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_certificate_sums", one_ulp_off)
        assert solver._kernel() is None
    assert_only_sdca_job_declined("probe mismatch")
    assert update_bytes(fixed_device_updates(10, "smoothed_hinge")) == reference


def test_missing_compiler_falls_back_to_numpy(tmp_path, monkeypatch):
    reference = update_bytes(fixed_device_updates(10, "smoothed_hinge"))
    missing = str(tmp_path / "no-such-cc")
    with pytest.raises(FileNotFoundError):
        native.load_library(missing, tmp_path)
    assert list(tmp_path.iterdir()) == []  # no partial library left behind
    fresh_fast_paths(monkeypatch)
    monkeypatch.setattr(native, "COMPILER", missing)
    assert solver._kernel() is None
    assert orchestrator.fast_paths() == {
        "decode_pixels": {"status": "numpy", "reason": "no library"},
        "library": {"status": "numpy", "reason": "no compiler", "clone": None},
        "pack_upper": {"status": "numpy", "reason": "no library"},
        "sdca_job": {"status": "numpy", "reason": "no library"},
        "walk_values": {"status": "numpy", "reason": "no library"},
    }
    assert update_bytes(fixed_device_updates(10, "smoothed_hinge")) == reference


@pytest.mark.skipif(os.name != "posix", reason="the stub compiler is a shell script")
def test_failed_build_records_the_compilers_first_stderr_line(tmp_path, monkeypatch):
    stub = tmp_path / "stub-cc"
    stub.write_text("#!/bin/sh\necho 'stub-cc: no such target' >&2\nexit 1\n")
    stub.chmod(0o755)
    fresh_fast_paths(monkeypatch)
    monkeypatch.setattr(native, "COMPILER", str(stub))
    assert native.library() is None
    assert native.FAST_PATHS == {
        "library": {"status": "numpy", "reason": "build failed: stub-cc: no such target",
                    "clone": None},
    }
    # a build that fails without a word is named by its exit status
    stub.write_text("#!/bin/sh\nexit 3\n")
    fresh_fast_paths(monkeypatch)
    assert native.library() is None
    assert native.FAST_PATHS["library"]["reason"] == "build failed: exit 3"


@needs_compiler
def test_probe_mismatch_falls_back_to_numpy(monkeypatch):
    reference = update_bytes(fixed_device_updates(10, "smoothed_hinge"))
    exact = solver._coordinate_passes

    def one_ulp_off(*args):  # stands in for a miscompiled kernel
        rho, margins = exact(*args)
        return np.nextafter(rho, np.inf), margins

    fresh_fast_paths(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_coordinate_passes", one_ulp_off)
        assert solver._kernel() is None
    assert_only_sdca_job_declined("probe mismatch")
    assert update_bytes(fixed_device_updates(10, "smoothed_hinge")) == reference


@needs_compiler
def test_kernel_cache_is_reused_and_unwritable_cache_builds_privately(tmp_path):
    assert native.load_library(cache_dir=tmp_path / "cache") is not None
    built = sorted((tmp_path / "cache").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    stamp = built[0].stat().st_mtime_ns
    assert native.load_library(cache_dir=tmp_path / "cache") is not None
    assert sorted((tmp_path / "cache").iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp

    blocker = tmp_path / "file"
    blocker.write_text("")
    assert native.load_library(cache_dir=blocker / "cache") is not None
    assert sorted(tmp_path.iterdir()) == [tmp_path / "cache", blocker]


@needs_compiler
def test_fresh_kernel_build_removes_stale_libraries(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    # an earlier key of the shared library, and a coordinate-loop-only library
    # from before the kernels shared one
    stale = [cache / "_native.0123abcd.so", cache / "_sdca.0123abcd.so"]
    unrelated = cache / "other.so"
    for planted in (*stale, unrelated):
        planted.write_bytes(b"not a library")
    assert native.load_library(cache_dir=cache) is not None
    built = [p for p in cache.iterdir() if p != unrelated]
    assert len(built) == 1 and built[0].name.startswith("_native.") and built[0] not in stale
    assert unrelated.exists()
    # reusing a cached build leaves the directory alone
    for planted in stale:
        planted.write_bytes(b"not a library")
    assert native.load_library(cache_dir=cache) is not None
    assert all(p.exists() for p in stale) and built[0].exists()


def test_missing_kernel_source_gives_no_library(tmp_path, monkeypatch):
    # as in an installed package that left a source out
    monkeypatch.setattr(native, "SOURCES", (*native.SOURCES, tmp_path / "_missing.c"))
    with pytest.raises(FileNotFoundError):
        native.load_library(cache_dir=tmp_path / "cache")
    assert not (tmp_path / "cache").exists()
    fresh_fast_paths(monkeypatch)
    assert native.library() is None
    reason = native.FAST_PATHS["library"]["reason"]
    assert reason != "no compiler" and "_missing.c" in reason


def test_blas_facts_that_cannot_be_read_are_none(monkeypatch):
    facts = native.blas()
    assert set(facts) == {"name", "version", "threads", "core"}
    assert facts["threads"] is None or facts["threads"] >= 1
    assert facts["core"] is None or (isinstance(facts["core"], str) and facts["core"])

    def old_show_config(mode="stdout"):  # numpy before 1.26 has no mode
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")

    monkeypatch.setattr(native.np, "show_config", old_show_config)
    monkeypatch.setattr(native, "_BLAS_THREAD_SYMBOLS", ())
    monkeypatch.setattr(native, "_BLAS_CORE_SYMBOLS", ())
    assert native.blas() == {"name": None, "version": None, "threads": None, "core": None}


def test_every_kernel_source_is_package_data():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    patterns = pyproject["tool"]["setuptools"]["package-data"]["fedsel"]
    for source in native.SOURCES:
        assert source.parent.name == "fedsel"
        assert any(fnmatch.fnmatch(source.name, pattern) for pattern in patterns), source.name


# -- aggregation -----------------------------------------------------------------


def _update(device_id, indices, rho, delta_phi):
    return LocalUpdate(
        device_id=device_id,
        sample_indices=np.asarray(indices),
        rho=np.asarray(rho, dtype=float),
        delta_phi=np.asarray(delta_phi, dtype=float),
        achieved_theta=0.0,
    )


def test_apply_single_update_is_identity_aggregation():
    state = GlobalState(phi=np.array([1.0, -1.0]), alpha=np.zeros(3))
    upd = _update(0, [0, 1], [0.5, -0.5], [0.25, 0.75])
    out = apply_dual_update(state, [upd], aggregation_count=1)
    np.testing.assert_array_equal(out.phi, [1.25, -0.25])
    np.testing.assert_array_equal(out.alpha, [0.5, -0.5, 0.0])
    # input state untouched
    np.testing.assert_array_equal(state.phi, [1.0, -1.0])


def test_apply_cancellation():
    state = GlobalState(phi=np.zeros(2), alpha=np.zeros(4))
    a = _update(0, [0, 1], [1.0, 1.0], [0.3, -0.2])
    b = _update(1, [2, 3], [1.0, 1.0], [-0.3, 0.2])
    out = apply_dual_update(state, [a, b], aggregation_count=2)
    np.testing.assert_array_equal(out.phi, np.zeros(2))


def test_apply_order_invariance():
    state = GlobalState(phi=np.zeros(2), alpha=np.zeros(4))
    a = _update(0, [0, 1], [0.1, 0.2], [0.3, -0.2])
    b = _update(1, [2, 3], [0.4, 0.5], [-0.7, 0.2])
    one = apply_dual_update(state, [a, b], 2)
    two = apply_dual_update(state, [b, a], 2)
    assert np.array_equal(one.phi, two.phi)
    assert np.array_equal(one.alpha, two.alpha)


def test_apply_count_validation():
    state = GlobalState(phi=np.zeros(1), alpha=np.zeros(1))
    with pytest.raises(ValueError, match="positive"):
        apply_dual_update(state, [], aggregation_count=0)


def test_consistency_invariant_after_aggregations():
    rng = np.random.default_rng(18)
    n, dim = 40, 5
    feats = rng.normal(size=(n, dim))
    labels = rng.choice([-1.0, 1.0], size=n)
    lam = 1.0 / n
    hp = Hyperparams(loss="smoothed_hinge", reg_lambda=lam, epochs=2)
    devices = [
        DeviceDataset(m, feats[m * 10 : (m + 1) * 10], labels[m * 10 : (m + 1) * 10],
                      np.arange(m * 10, (m + 1) * 10))
        for m in range(4)
    ]
    state = GlobalState(phi=np.zeros(dim), alpha=np.zeros(n))
    for round_index in range(3):
        updates = [
            device_update(
                dev, state.phi, state.alpha[dev.sample_indices], hp,
                substream(round_index, dev.device_id), total_samples=n,
                labels=labels[dev.sample_indices],
            )
            for dev in devices[: 2 + round_index % 3]
        ]
        state = apply_dual_update(state, updates, aggregation_count=len(updates))
        assert state.consistency_error(feats, lam) < 1e-9


# -- misc ------------------------------------------------------------------------


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="c_fraction"):
        Hyperparams(c_fraction=0.0)
    with pytest.raises(ValueError, match="epochs"):
        Hyperparams(epochs=0)
    with pytest.raises(ValueError, match="delta_t"):
        Hyperparams(delta_t=0)
    with pytest.raises(ValueError, match="trunc_tol"):
        Hyperparams(trunc_tol=-1.0)
    with pytest.raises(ValueError, match="reg_lambda"):
        Hyperparams(reg_lambda=0.0)
    with pytest.raises(ValueError, match="aggregation_denominator"):
        Hyperparams(aggregation_denominator="most")
    assert Hyperparams().resolved_lambda(500) == pytest.approx(1 / 500)
    assert Hyperparams(reg_lambda=0.25).resolved_lambda(500) == 0.25
    assert replace(Hyperparams(), epochs=5).epochs == 5
    with pytest.raises(ValueError, match="epochs"):
        replace(Hyperparams(), epochs=0)


def test_hyperparams_fields_cannot_be_assigned():
    # an assignment would skip the checks that construction runs
    hp = Hyperparams()
    with pytest.raises(FrozenInstanceError):
        hp.epochs = 2.5
    assert hp.epochs == 10
