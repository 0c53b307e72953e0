"""Shared fixtures: the desk-scale corpus, tiny instances, and the
acceptance-criteria report that prints one PASS/FAIL line per criterion."""
import os

import numpy as np
import pytest

from fedsel.data import SplitDataset, write_synthetic_image_corpus

# Frozen desk-scale corpus recipe; see the acceptance tests for the measured
# policy orderings it was calibrated against.
CORPUS_SEED = 20240817
CORPUS_KWARGS = dict(
    noise_scale=110.0,
    templates_per_class=3,
    background_weight=0.5,
    seed=CORPUS_SEED,
)


@pytest.fixture(scope="session")
def idx_corpus(tmp_path_factory) -> tuple[str, str]:
    """(directory, tag) of the IDX corpus the desk-scale criteria run on.

    Points at real MNIST when FEDSEL_DATA_DIR is set; otherwise writes the
    deterministic surrogate corpus once per session.
    """
    env_dir = os.environ.get("FEDSEL_DATA_DIR")
    if env_dir:
        return env_dir, "mnist"
    out = tmp_path_factory.mktemp("idx_corpus")
    write_synthetic_image_corpus(out, **CORPUS_KWARGS)
    return str(out), "surrogate"


def tiny_split(
    num_devices: int = 4,
    samples_per_device: int = 12,
    dim: int = 6,
    num_classes: int = 3,
    seed: int = 7,
    test_size: int = 30,
    validation_size: int = 40,
) -> SplitDataset:
    """Small dense split with per-device test slices, for orchestrator tests."""
    from fedsel.data import DeviceDataset

    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(num_classes, dim))

    def draw(n):
        labels = rng.integers(num_classes, size=n)
        feats = centers[labels] + rng.normal(scale=0.8, size=(n, dim))
        return feats.astype(np.float64), labels.astype(np.int64)

    devices = []
    offset = 0
    for m in range(num_devices):
        feats, labels = draw(samples_per_device)
        dev_test_x, dev_test_y = draw(6)
        devices.append(
            DeviceDataset(
                device_id=m,
                features=feats,
                labels=labels,
                sample_indices=np.arange(offset, offset + samples_per_device),
                test_features=dev_test_x,
                test_labels=dev_test_y,
            )
        )
        offset += samples_per_device
    val_x, val_y = draw(validation_size)
    test_x, test_y = draw(test_size)
    return SplitDataset(
        devices=devices,
        validation_features=val_x,
        validation_labels=val_y,
        test_features=test_x,
        test_labels=test_y,
        num_classes=num_classes,
    )


def random_game(n: int, seed: int):
    """Random cooperative game: every coalition value drawn U[0, 1]."""
    from itertools import combinations

    from fedsel.valuation import CoalitionGame

    rng = np.random.default_rng(seed)
    players = tuple(range(n))
    values = {(): float(rng.uniform())}
    for size in range(1, n + 1):
        for subset in combinations(players, size):
            values[subset] = float(rng.uniform())
    return CoalitionGame(players=players, value_fn=lambda s: values[tuple(sorted(s))])


# -- acceptance report ------------------------------------------------------

_CRITERIA: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _CRITERIA[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        ok, detail = _CRITERIA[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {number:2d}] {status}  {detail}")
