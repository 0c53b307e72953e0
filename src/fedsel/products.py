"""Class-major products of a fixed data matrix with thin weight blocks.

Evaluation and the value oracle multiply a tall data matrix (on the paper
grid the 44,001 training or 5,000 validation rows by 785 features, or the
10,000 test rows in the 2,000-row chunks of _probe_chunks) by thin weight
blocks: phi or one explored update, (d, K) each.
`kmajor_product` returns such a product class-major, as the (K, n) product
`W.T @ X.T`, so each class is one contiguous row. With OpenBLAS 0.3.31 on
2-core x86-64 hosts this was faster than the row-major `X @ W` at the grid
shapes (44,001 rows: 56.6 -> 42.6 ms with SkylakeX kernels) and had its
bytes, but not at every shape: at 44 to 165 rows some scores differed. So
every shape is probed in the process against the row-major products, on
its first use with a nonzero weight block, and a shape whose bytes differ
stays on them, transposed. The probe takes its row-major references over
row chunks of at most PROBE_ROWS rows; tests check that each chunk's bytes
are its rows of the full-height product. The products of a device's few
rows stay row-major (row_major_scores). The zero model's products are not
computed at all (zero_model).
"""
from __future__ import annotations

from collections import Counter

import numpy as np

# (rows, features, block columns, blocks) of a product -> whether its
# class-major bytes equalled the row-major ones on its first use with a
# nonzero block in this process
_SHAPES: dict[tuple[int, int, int, int], bool] = {}
# how many products this process ran as one class-major product
# ("k_major") and as row-major products, transposed ("row_major"); the zero
# model's +0.0 scores are neither
LAYOUTS: Counter = Counter()
# the most rows of one row-major product a probe takes: OpenBLAS keeps each
# thread's packing buffer at its largest size until the process exits, and
# that size grows with the product's rows (62.8 MiB resident after one
# 44,001-row reference, 6.1 MiB after 2,048-row ones)
PROBE_ROWS = 2048


def kmajor_product(features: np.ndarray, blocks) -> np.ndarray:
    """np.vstack([(features @ w).T for w in blocks]), equal bit for bit: the
    (len(blocks) * b, n) class-major scores of the n rows of `features`
    under B weight blocks of one shape (d, b), block after block.

    Where the shape (n, d, b, B) passed its probe, this is the one product
    `hstack(blocks).T @ features.T`. The first call of a shape also probes
    it: over near-equal row chunks of at most PROBE_ROWS rows
    (_probe_chunks), it computes each chunk's row-major products and
    compares them byte for byte with the chunk's class-major columns
    (_same_bytes). The shape keeps the verdict `k_major` for the rest of the
    process only if every chunk matched; otherwise this call and every later
    one return the full-height row-major products `features @ w`,
    transposed. Blocks that are all +0.0 (the zero model every run starts
    from) give +0.0 scores without a product or a probe: they show nothing
    of how a layout rounds.
    """
    n, d = features.shape
    width = blocks[0].shape[1]
    out = np.empty((len(blocks) * width, n))
    if zero_model(blocks):
        out[...] = 0.0
        return out
    shape = (n, d, width, len(blocks))
    verdict = _SHAPES.get(shape)  # None: not probed yet
    if verdict is not False:
        np.matmul(np.hstack(blocks).T, features.T, out=out)
    if verdict is None:
        verdict = _SHAPES[shape] = all(
            _same_bytes([features[rows] @ w for w in blocks], out[:, rows])
            for rows in _probe_chunks(n)
        )
    if not verdict:
        for j, w in enumerate(blocks):
            out[j * width : (j + 1) * width] = (features @ w).T
    LAYOUTS["k_major" if verdict else "row_major"] += 1
    return out


def row_major_scores(features: np.ndarray, w: np.ndarray) -> np.ndarray:
    """features @ w, the (n, b) row-major scores of the n rows of `features`
    under one (d, b) weight block; +0.0 without a product for the zero
    model (zero_model).

    A device's test scores and its local solve's base margins are these
    products: at the grid's 44 to 165 rows per device, class-major products
    (kmajor_product) changed some scores.
    """
    if zero_model([w]):
        return np.zeros((features.shape[0], w.shape[1]))
    return features @ w


def zero_model(blocks) -> bool:
    """Whether every block in `blocks` is float64 and all +0.0, the bits of
    np.zeros.

    The product of finite features with such weights is +0.0 in every
    entry, in either layout: each term x * (+0.0) is +0.0 or -0.0, and the
    sums start from +0.0, to which adding either zero gives +0.0 (tests
    check this against BLAS on features with negative entries). So callers
    return +0.0 arrays instead of such a product; -0.0 weights take the
    product. kmajor_product and row_major_scores then read only
    `features.shape`, so rows not yet read (data.HeldOutRows) may stand in.
    """
    arrays = [np.asarray(w) for w in blocks]
    return all(a.dtype == np.float64 and not a.view(np.uint64).any() for a in arrays)


def _probe_chunks(n: int) -> list[slice]:
    """The row ranges a probe compares: ceil(n / PROBE_ROWS) near-equal
    ranges that tile [0, n), so no chunk is a small tail (row-major products
    of 44 or 100 rows take another BLAS path and round otherwise)."""
    parts = max(1, -(-n // PROBE_ROWS))
    bounds = [n * i // parts for i in range(parts + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _same_bytes(by_block, kmajor: np.ndarray) -> bool:
    """Whether each block's (n, b) row-major float64 scores hold the bytes of
    its b rows of the class-major scores."""
    width = by_block[0].shape[1]
    return len(kmajor) == len(by_block) * width and all(
        np.array_equal(scores.T.view(np.uint64), rows.view(np.uint64))
        for scores, rows in zip(by_block, np.split(kmajor, len(by_block)))
    )
