"""Class-major products: byte equality with the row-major products they replace."""
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_split

from fedsel import products, valuation
from fedsel.cli import main
from fedsel.orchestrator import Experiment, run_experiment
from fedsel.selection import SelectionPolicy
from fedsel.solver import Hyperparams

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
    out = np.empty((12, 61))
    before = products.LAYOUTS.copy()
    for _ in range(2):
        got = products.kmajor_product(features, blocks, out)
        assert got is out and got.flags.c_contiguous
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
    assert probed == [False, False, True]
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
    valuation.value_backend()  # the kernels' probes run unpatched
    runs = []
    for name in ("row_major", "one_ulp_off"):
        with monkeypatch.context() as patch:
            patch.setattr(products, "_SHAPES", {})
            if name == "row_major":  # the reference: every probe failed
                patch.setattr(products, "_same_bytes", lambda a, b: False)
            else:
                patch.setattr(np, "matmul", one_ulp_off)
            run_experiment(split, hp, SelectionPolicy(kind="cds"), rounds=3, out_dir=tmp_path / name)
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
            valuation.value_backend()  # the kernels' probes run unpatched
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
