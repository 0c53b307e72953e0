"""Class-major products: byte equality with the row-major products they replace."""
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_split

from fedsel import products, valuation
from fedsel.cli import main
from fedsel.data import DeviceDataset, FeatureRows, feature_blocks
from fedsel.orchestrator import Experiment
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
        # a k_major verdict rests on the probe's row chunks: each must hold
        # its rows of the full-height row-major bytes
        full = features @ phi
        for chunk in products._probe_chunks(rows):
            assert same_bytes(features[chunk] @ phi, full[chunk]), (rows, chunk)
    for members in range(1, 21):
        for _ in range(2):
            deltas = [rng.normal(size=(785, 10)) for _ in range(members)]
            got = products.kmajor_product(features, deltas)
            assert same_bytes(got, row_major(features, deltas)), members
    # the global test rows held as pixels, read chunk by chunk as evaluate_global reads them
    pixels = rng.integers(0, 256, size=(10000, 784), dtype=np.uint8)
    held = FeatureRows(pixels, 0, len(pixels))
    features = held.rows()
    chunks = [held[span] for span in products._probe_chunks(len(held))]
    for _ in range(3):
        phi = rng.normal(size=(785, 10))
        got = np.hstack([products.kmajor_product(rows, [phi]) for rows in feature_blocks(chunks)])
        assert same_bytes(got, row_major(features, [phi]))
        assert same_bytes(got, products.kmajor_product(features, [phi]))


def probe_start(kmajor):
    """The first row a probe chunk compares: its offset in the class-major buffer."""
    return (kmajor.ctypes.data - kmajor.base.ctypes.data) // kmajor.itemsize


@pytest.mark.parametrize("rows", [1, 2048, 2049, 5000, 44001])
def test_probe_compares_near_equal_row_chunks_that_tile_the_rows(fresh_probes, monkeypatch, rows):
    rng = np.random.default_rng(rows)
    features = rng.normal(size=(rows, 3))
    blocks = [rng.normal(size=(3, 2)) for _ in range(2)]
    chunks = []

    def recording(by_block, kmajor):  # every chunk is compared
        chunks.append((probe_start(kmajor), by_block, kmajor.copy()))
        return True

    monkeypatch.setattr(products, "_same_bytes", recording)
    got = products.kmajor_product(features, blocks)
    starts = [start for start, _, _ in chunks]
    stops = [start + kmajor.shape[1] for start, _, kmajor in chunks]
    assert starts == [0, *stops[:-1]] and stops[-1] == rows
    sizes = [stop - start for start, stop in zip(starts, stops)]
    assert max(sizes) <= products.PROBE_ROWS
    if rows > products.PROBE_ROWS:
        assert min(sizes) >= products.PROBE_ROWS // 2
    else:
        assert sizes == [rows]
    for start, by_block, kmajor in chunks:  # each chunk's own rows, in both layouts
        stop = start + kmajor.shape[1]
        assert same_bytes(kmajor, got[:, start:stop])
        for scores, w in zip(by_block, blocks):
            assert same_bytes(scores, features[start:stop] @ w)


def test_probe_failing_on_the_last_chunk_keeps_the_full_height_bytes(fresh_probes, monkeypatch):
    rng = np.random.default_rng(11)
    features = rng.normal(size=(5000, 7))
    blocks = [rng.normal(size=(7, 3)) for _ in range(2)]
    probes = []

    def last_differs(by_block, kmajor):
        probes.append(probe_start(kmajor))
        return probe_start(kmajor) + kmajor.shape[1] < len(features)

    monkeypatch.setattr(products, "_same_bytes", last_differs)
    before = products.LAYOUTS.copy()
    for _ in range(2):
        got = products.kmajor_product(features, blocks)
        assert same_bytes(got, row_major(features, blocks))
    assert probes == [0, 1666, 3333]  # three chunks, probed on the first call only
    assert products._SHAPES == {(5000, 7, 3, 2): False}
    assert products.LAYOUTS - before == {"row_major": 2}


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


def test_zero_model_scores_of_device_test_splits_are_the_blas_bytes():
    rng = np.random.default_rng(4)
    # the grid's 44 to 165 test rows per device
    grid_like = [negative_features(rng, rows, 785) for rows in (44, 101, 165)]
    split = tiny_split()
    cases = (
        (grid_like, np.zeros((785, 10))),
        ([d.test_features.rows() for d in split.devices], np.zeros((split.feature_dim, 3))),
    )
    for test_features, phi in cases:
        for features in test_features:
            got = products.row_major_scores(features, phi)
            assert same_bytes(got, features @ phi)


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
