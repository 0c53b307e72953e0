"""Class-major products: byte equality with the row-major products they replace."""
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import tiny_split

from fedsel import products, valuation
from fedsel.cli import main
from fedsel.data import DeviceDataset
from fedsel.orchestrator import Experiment, device_test_scores
from fedsel.selection import SelectionPolicy
from fedsel.solver import Hyperparams, device_update_ovr

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def row_major(features, blocks):
    """The reference: each block's row-major product, transposed, block after block."""
    return np.vstack([(features @ w).T for w in blocks])


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def fresh_probes(monkeypatch):
    """An empty verdict table, so each shape is probed again on first use."""
    monkeypatch.setattr(products, "_SHAPES", {})


def test_kmajor_product_equals_row_major_at_the_grid_shapes(fresh_probes):
    # train, test and validation rows by the grid's 785 features, and the
    # value oracle's chunks of 1 to 20 stacked members
    rng = np.random.default_rng(13)
    for rows in (44001, 10000, 5000):
        features = rng.normal(size=(rows, 785))
        for _ in range(3):  # the first probes the shape, the others use its verdict
            phi = rng.normal(size=(785, 10))
            assert same_bytes(products.kmajor_product(features, [phi]), row_major(features, [phi]))
        assert (rows, 785, 10, 1) in products._SHAPES
    for members in range(1, 21):
        for _ in range(2):
            deltas = [rng.normal(size=(785, 10)) for _ in range(members)]
            got = products.kmajor_product(features, deltas)
            assert same_bytes(got, row_major(features, deltas)), members


def test_failed_probe_keeps_the_row_major_bytes_and_layout(fresh_probes, monkeypatch):
    rng = np.random.default_rng(5)
    features = rng.normal(size=(61, 17))
    blocks = [rng.normal(size=(17, 3)) for _ in range(4)]
    probes = []

    def failing(by_block, kmajor):
        probes.append(len(by_block))
        return False

    monkeypatch.setattr(products, "_same_bytes", failing)
    before = products.LAYOUTS.copy()
    for _ in range(2):
        got = products.kmajor_product(features, blocks)
        assert got.flags.c_contiguous
        assert same_bytes(got, row_major(features, blocks))
    assert probes == [4]
    assert products._SHAPES == {(61, 17, 3, 4): False}
    assert products.LAYOUTS - before == {"row_major": 2}


def test_zero_blocks_leave_the_shape_unprobed(fresh_probes, monkeypatch):
    rng = np.random.default_rng(2)
    features = rng.normal(size=(23, 6))
    probe = products._same_bytes
    probed = []

    def recording(by_block, kmajor):
        probed.append(bool(np.hstack(by_block).any()))
        return probe(by_block, kmajor)

    monkeypatch.setattr(products, "_same_bytes", recording)
    zero = np.zeros((6, 4))
    for _ in range(2):  # zeros in both layouts show nothing of how they round
        assert same_bytes(products.kmajor_product(features, [zero]), row_major(features, [zero]))
    assert products._SHAPES == {}
    w = rng.normal(size=(6, 4))
    for _ in range(2):  # the first nonzero block probes the shape, once
        assert same_bytes(products.kmajor_product(features, [w]), row_major(features, [w]))
    assert probed == [True]  # the zero blocks took no product and no probe
    assert (23, 6, 4, 1) in products._SHAPES


def test_class_major_bytes_that_differ_after_the_zero_model_stay_row_major(
    tmp_path, monkeypatch
):
    # A run starts from the zero model, whose products are zeros in both
    # layouts. Class-major products one ulp off wherever they are nonzero
    # must still be caught, by the probes of the later rounds.
    matmul = np.matmul

    def one_ulp_off(a, b, out=None):
        product = matmul(a, b, out=out)
        nonzero = np.flatnonzero(product)
        if nonzero.size:
            product.flat[nonzero[0]] = np.nextafter(product.flat[nonzero[0]], np.inf)
        return product

    split = tiny_split()
    hp = Hyperparams(loss="smoothed_hinge", epochs=2, c_fraction=0.5, seed=3)
    valuation._walk_kernel()  # the kernel's probe runs unpatched
    runs = []
    for name in ("row_major", "one_ulp_off"):
        with monkeypatch.context() as patch:
            patch.setattr(products, "_SHAPES", {})
            if name == "row_major":  # the reference: every probe failed
                patch.setattr(products, "_same_bytes", lambda a, b: False)
            else:
                patch.setattr(np, "matmul", one_ulp_off)
            Experiment(split, hp, SelectionPolicy(kind="cds")).run(3, out_dir=tmp_path / name)
            if name == "one_ulp_off":
                assert products._SHAPES and not any(products._SHAPES.values())
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["value_products"] == "row_major"
        runs.append((tmp_path / name / "metrics.csv").read_bytes())
    assert runs[0] == runs[1]


def test_probe_compares_every_block_byte_for_byte():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(9, 4))
    blocks = [rng.normal(size=(4, 2)) for _ in range(3)]
    by_block = [features @ w for w in blocks]
    kmajor = row_major(features, blocks)
    assert products._same_bytes(by_block, kmajor)
    for row in range(6):
        flipped = kmajor.copy()
        flipped[row, 5] = np.nextafter(flipped[row, 5], np.inf)
        assert not products._same_bytes(by_block, flipped)
    assert not products._same_bytes(by_block[:2], kmajor)


def test_building_an_experiment_runs_no_product(fresh_probes, monkeypatch):
    def no_probe(*args):
        raise AssertionError("a product was probed while the experiment was built")

    monkeypatch.setattr(products, "_same_bytes", no_probe)
    before = products.LAYOUTS.copy()
    split = tiny_split()
    for kind in ("cds", "greedy", "random"):
        Experiment(split, Hyperparams(seed=3), SelectionPolicy(kind=kind))
    assert products._SHAPES == {}
    assert products.LAYOUTS == before


@pytest.mark.parametrize("policy", ["cds", "random", "greedy"])
def test_synthetic_quick_metrics_equal_with_every_probe_failed(tmp_path, monkeypatch, policy):
    runs = []
    for verdict in ("probed", "row_major"):
        if verdict == "row_major":
            valuation._walk_kernel()  # the kernel's probe runs unpatched
            monkeypatch.setattr(products, "_SHAPES", {})
            monkeypatch.setattr(products, "_same_bytes", lambda a, b: False)
        out = tmp_path / verdict
        code = main([
            "run", "--quiet", "--config", str(CONFIGS / "synthetic_quick.ini"),
            "--set", f"orchestrator.policy={policy}", "--out", str(out),
        ])
        assert code == 0
        runs.append((out / "metrics.csv").read_bytes())
    assert runs[0] == runs[1]


# -- the zero model -------------------------------------------------------------


def negative_features(rng, rows, dim):
    """Normal features, with row 0 all negative: every term x * (+0.0) there is -0.0."""
    features = rng.normal(size=(rows, dim))
    features[0] = -np.abs(features[0]) - 0.5
    return features


def test_zero_model_products_are_the_blas_bytes(fresh_probes):
    # the grid's train, test and validation shapes (a chunk of 20 stacked
    # blocks), and a device's test rows in one-vs-rest and binary widths
    rng = np.random.default_rng(17)
    shapes = ((44001, 10, 1), (10000, 10, 1), (5000, 10, 20), (165, 10, 1), (44, 1, 2))
    for rows, width, blocks in shapes:
        features = negative_features(rng, rows, 785)
        zeros = [np.zeros((785, width)) for _ in range(blocks)]
        assert products.zero_model(zeros)
        got = products.kmajor_product(features, zeros)
        assert same_bytes(got, row_major(features, zeros))  # BLAS, row-major
        assert same_bytes(got, np.hstack(zeros).T @ features.T)  # BLAS, class-major
        assert same_bytes(got, np.zeros_like(got))  # +0.0, not -0.0
    assert products._SHAPES == {}  # no probe ran


def test_only_positive_zero_weights_are_the_zero_model():
    zero = np.zeros((5, 3))
    assert products.zero_model([zero, zero[:, :1], np.zeros(5)])
    assert not products.zero_model([zero, -zero])
    assert not products.zero_model([np.full((5, 3), 5e-324)])
    assert not products.zero_model([np.zeros((5, 3), dtype=np.float32)])  # takes the product


def test_zero_model_device_test_scores_are_the_blas_bytes():
    rng = np.random.default_rng(4)
    grid_like = [  # the grid's 44 to 165 test rows per device
        SimpleNamespace(device_id=m, test_features=negative_features(rng, rows, 785))
        for m, rows in enumerate((44, 101, 165))
    ]
    split = tiny_split()
    cases = ((grid_like, np.zeros((785, 10))), (split.devices, np.zeros((split.feature_dim, 3))))
    for devices, phi in cases:
        got = device_test_scores(phi, devices)
        expected = {
            d.device_id: d.test_features @ phi
            for d in devices
            if d.test_features is not None and len(d.test_features)
        }
        assert got.keys() == expected.keys() and expected
        assert all(same_bytes(got[m], expected[m]) for m in expected)


@pytest.mark.parametrize("loss", ["smoothed_hinge", "squared"])
def test_zero_model_local_solve_is_the_blas_bytes(monkeypatch, loss):
    # the base margins of a round-1 solve: +0.0 without a product, the same
    # rho, delta_phi and theta as with it
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 4, size=60)
    device = DeviceDataset(
        device_id=0, features=negative_features(rng, 60, 13), labels=labels,
        sample_indices=np.arange(60),
    )
    hp = Hyperparams(loss=loss, epochs=2, seed=3)
    phi, alpha = np.zeros((13, 4)), np.zeros((60, 4))
    runs = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(products, "zero_model", lambda blocks: False)
        update = device_update_ovr(device, phi, alpha, 4, hp, 9, total_samples=600)
        runs.append([update.rho, update.delta_phi, update.achieved_theta])
    for a, b in zip(*runs):
        assert same_bytes(a, b)
