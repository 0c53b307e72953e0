"""Primal-dual solver: dual objective, local sub-problems, aggregation.

The model is linear with regularizer g(w) = ||w||^2/2, whose conjugate is
itself, so the server's shared vector phi(alpha) = X.alpha/(lambda*D) is also
the primal iterate w(alpha) = grad g*(phi). Devices own disjoint blocks of the
dual vector alpha (one coordinate per training sample) and improve them by
randomized coordinate ascent with exact closed-form steps; the server absorbs
accepted increments into (alpha, phi) keeping the two consistent to machine
precision. The devices a round explores are solved as one batch
(_solve_columns): each device's coordinate loop and theta certificate run as
one call of the compiled job sdca_job (_sdca.c), bound by fedsel.native
when a compiler is available and the job reproduces the numpy reference loop
and certificate bit for bit on its probe (_probe_matches); otherwise the
numpy reference runs. native.FAST_PATHS records which ran and why.

A device's scaled Gram is symmetric byte for byte (numpy forms X @ X.T by
mirroring one computed triangle), so it is held packed: its upper triangle
row by row in n(n+1)/2 float64 (LAPACK's packed storage, UPLO='U'), half
the bytes of the square. _scaled_gram_upper builds the square, packs it
with the compiled pack_upper (numpy's mask pack where that is not bound)
and lets the square go; it refuses a Gram that is not symmetric, whose
triangle would give other bytes back. Each job unpacks its triangle into a
square scratch of its lane: sdca_job in C, _unpack_upper for the numpy
reference.

Conventions: feature matrices are row-per-sample (n, d); the dual dimension D
is always the global training size, so every data term carries 1/D and the
shared-vector map is phi = F.T @ alpha / (lambda * D).
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, replace

import numpy as np

from . import native
from .losses import GAMMA, LOSS, Loss, SmoothedHinge, SquaredLoss, make_loss
from .products import row_major_scores
from .rng import substream
from .settings import check_fields, setting

AGGREGATION_RULES = ("accepted", "explored", "all")


@dataclass(frozen=True)
class Hyperparams:
    """The experiment-wide knob bag; each field declares its config key,
    default and legal values, and construction checks them all.

    reg_lambda=None means "resolve to 1/D once the dataset size is known".
    """

    loss: str = LOSS.field()
    gamma: float = GAMMA.field()
    reg_lambda: float | None = setting("solver.reg_lambda", "opt_float", None, "(0, inf)")
    epochs: int = setting("solver.epochs", "int", 10, "[1, inf)")
    c_fraction: float = setting("selection.c_fraction", "float", 0.1, "(0, 1]")
    delta_t: int = setting("valuation.delta_t", "int", 1, "[1, inf)")
    # inf truncates every walk at once
    trunc_tol: float = setting("valuation.trunc_tol", "float", 0.0, "[0, inf]")
    # a risk is a mean loss
    theta_threshold: float = setting("orchestrator.theta_threshold", "float", 0.5, "[0, inf)")
    duality_gap_target: float | None = setting(
        "orchestrator.duality_gap_target", "opt_float", None, "(0, inf)"
    )
    # numpy seeds only non-negative integers
    seed: int = setting("orchestrator.seed", "int", 1, "[0, inf)")
    aggregation_denominator: str = setting(
        "solver.aggregation_denominator", "str", "accepted", AGGREGATION_RULES
    )

    def __post_init__(self) -> None:
        check_fields(self)

    def resolved_lambda(self, total_samples: int) -> float:
        if self.reg_lambda is not None:
            return self.reg_lambda
        return 1.0 / total_samples

    def make_loss(self) -> Loss:
        return make_loss(self.loss, self.gamma)


@dataclass
class GlobalState:
    """Server-held shared vector phi and the full dual vector alpha.

    One binary problem holds phi (d,) and alpha (D,); K one-vs-rest problems
    hold them as phi (d, K) and alpha (D, K), one column per class.
    """

    phi: np.ndarray
    alpha: np.ndarray

    @classmethod
    def zeros(cls, dim: int, total_samples: int, num_classes: int) -> "GlobalState":
        """The zero state of num_classes one-vs-rest problems."""
        return cls(phi=np.zeros((dim, num_classes)), alpha=np.zeros((total_samples, num_classes)))

    def consistency_error(self, features: np.ndarray, lam: float) -> float:
        """max-norm distance between phi and its recomputation from alpha."""
        recomputed = primal_from_dual(self.alpha, features, lam)
        return float(np.max(np.abs(self.phi - recomputed), initial=0.0))


@dataclass
class LocalUpdate:
    """One device's reply: its dual increment rho and the matching delta_phi.

    From device_update, rho is (n,), delta_phi (d,) and achieved_theta a float;
    from device_update_ovr, rho is (n, K), delta_phi (d, K) and
    achieved_theta (K,), one column per class.
    """

    device_id: int
    sample_indices: np.ndarray
    rho: np.ndarray
    delta_phi: np.ndarray
    achieved_theta: float | np.ndarray


def dual_objective(alpha, features, labels, loss: Loss, lam: float) -> float:
    """(1/D) sum_i -f_i*(-alpha_i) - (lambda/2)||phi(alpha)||^2."""
    alpha = np.asarray(alpha, dtype=np.float64)
    phi = primal_from_dual(alpha, features, lam)
    conj = loss.conjugate(-alpha, labels)
    return float(-np.mean(conj) - 0.5 * lam * phi @ phi)


def primal_objective(w, features, labels, loss: Loss, lam: float) -> float:
    """Mean per-sample loss plus (lambda/2)||w||^2."""
    w = np.asarray(w, dtype=np.float64)
    margins = features @ w
    return float(np.mean(loss.value(margins, labels)) + 0.5 * lam * w @ w)


def primal_from_dual(alpha, features, lam: float) -> np.ndarray:
    """w(alpha) = grad g*(phi(alpha)) = phi(alpha) for the L2 regularizer."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return np.asarray(features, dtype=np.float64).T @ alpha / (lam * alpha.shape[0])


def duality_gap(alpha, features, labels, loss: Loss, lam: float) -> float:
    w = primal_from_dual(alpha, features, lam)
    return primal_objective(w, features, labels, loss, lam) - dual_objective(
        alpha, features, labels, loss, lam
    )


def fenchel_gap(alpha, margins, labels, loss: Loss, values=None) -> float:
    """Per-coordinate Fenchel-Young decomposition of the duality gap.

    Equal to primal - dual whenever margins = F @ phi(alpha); every summand is
    nonnegative in exact arithmetic, which keeps the reported gap from dipping
    below zero through summation noise on large datasets. alpha is projected
    onto the conjugate's domain first, absorbing ulp-level drift from
    aggregation without changing feasible inputs. `values`, when given, is
    loss.value(margins, labels), already computed by the caller.
    """
    alpha = loss.project_dual(np.asarray(alpha, dtype=np.float64), labels)
    if values is None:
        values = loss.value(margins, labels)
    terms = values + loss.conjugate(-alpha, labels) + alpha * margins
    return float(np.mean(terms))


def one_vs_rest_targets(labels, num_classes: int) -> np.ndarray:
    """(n, K) matrix of {-1, +1} targets, +1 where the label is the column's class."""
    return np.where(labels[:, None] == np.arange(num_classes)[None, :], 1.0, -1.0)


def _visit_orders(rng, epochs: int, n: int) -> np.ndarray:
    """The (epochs, n) coordinate visit orders, one permutation per epoch."""
    return np.array([rng.permutation(n) for _ in range(epochs)], dtype=np.int64).reshape(epochs, n)


def _coordinate_passes(labels_pm, alpha0, margins, gram_scaled, qii, loss, orders):
    """Sequential closed-form coordinate ascent, margins maintained via Gram rows.

    The reference loop: the compiled kernel must reproduce its bytes. Mutates
    nothing passed in; `margins` is copied. Shapes are (n, K): each visit
    order drives all K one-vs-rest columns at once, and only the columns
    whose step moved (NaN moves, -0.0 does not) update rho and margins.
    """
    rho = np.zeros_like(alpha0)
    margins = margins.copy()
    for order in orders:
        for i in order:
            delta = loss.coordinate_delta(alpha0[i] + rho[i], labels_pm[i], margins[i], qii[i])
            for c in np.flatnonzero(delta).tolist():
                rho[i, c] += delta[c]
                margins[:, c] += gram_scaled[i] * delta[c]
    return rho, margins


_LOSS_CODES = {SmoothedHinge: 0, SquaredLoss: 1}


def _check_shapes(classes, alpha0, base, gram_upper, qii, orders) -> None:
    """Refuse a job the compiled kernel would read out of bounds."""
    n, k = base.shape
    if not (
        classes.shape == (n,)
        and alpha0.shape == (n, k)
        and gram_upper.shape == (n * (n + 1) // 2,)
        and qii.shape == (n,)
        and orders.ndim == 2
        and orders.shape[1] == n
        and (orders.size == 0 or 0 <= orders.min() <= orders.max() < n)
    ):
        raise ValueError("coordinate kernel arguments have inconsistent shapes")


def _certificate_sums(loss, labels_pm, alpha0, rho, base_margins, margins) -> np.ndarray:
    """The theta certificate's three (K,) column sums, as a (3, K) array:
    sum(conj0 - conj1), sum(rho * base_margins) and
    sum(value + conj1 + beta * margins), where conj0 and conj1 are the
    conjugates at alpha0 and beta = alpha0 + rho, each projected onto the
    conjugate's domain first, and margins are the margins after the passes.

    The numpy reference: the compiled job must reproduce its bytes.
    """
    # projection guards the conjugates against ulp drift in aggregated alpha
    alpha_in = loss.project_dual(alpha0, labels_pm)
    beta = loss.project_dual(alpha0 + rho, labels_pm)
    conj0 = loss.conjugate(-alpha_in, labels_pm)
    conj1 = loss.conjugate(-beta, labels_pm)
    return np.array([
        (conj0 - conj1).sum(axis=0),
        (rho * base_margins).sum(axis=0),
        (loss.value(margins, labels_pm) + conj1 + beta * margins).sum(axis=0),
    ])


def _local_solves(kernel, loss, jobs, lanes=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each job's coordinate passes and certificate sums: one (rho, sums) per job.

    A job is one device's (classes, alpha0, base_margins, gram_upper, qii,
    orders), as _solve_columns prepares them: gram_upper is the packed upper
    triangle of its scaled Gram (see _scaled_gram_upper), and its targets
    are +1 in the column of the sample's class and -1 elsewhere. With the
    compiled kernel (sdca_job) each job is one call, and the calls run on at
    most `lanes` lanes (native.lanes() when None), balanced by their E * n^2
    coordinate work; this thread allocates and checks every buffer first,
    the square each lane unpacks its Grams into included, so a lane calls
    nothing but the jobs. Without it the numpy reference runs here, job
    after job, each on its Gram unpacked alone. A job reads and writes only
    its own buffers, so the results do not depend on `lanes`.
    """
    if kernel is None:
        results = []
        for classes, alpha0, base, gram_upper, qii, orders in jobs:
            labels_pm = one_vs_rest_targets(classes, base.shape[1])
            gram_scaled = _unpack_upper(gram_upper, base.shape[0])
            rho, margins = _coordinate_passes(
                labels_pm, alpha0, base, gram_scaled, qii, loss, orders
            )
            results.append((rho, _certificate_sums(loss, labels_pm, alpha0, rho, base, margins)))
        return results
    results, calls, sizes, work = [], [], [], []
    for classes, alpha0, base, gram_upper, qii, orders in jobs:
        _check_shapes(classes, alpha0, base, gram_upper, qii, orders)
        n, k = base.shape
        rho, sums = np.zeros((n, k)), np.empty((3, k))
        results.append((rho, sums))
        calls.append(functools.partial(
            kernel, n, k, orders.shape[0], orders, _LOSS_CODES[type(loss)],
            getattr(loss, "gamma", 0.0), classes, alpha0, gram_upper, qii, base, rho, sums,
        ))
        sizes.append(n)
        work.append(orders.size * n)
    _run_lanes(calls, sizes, work, lanes)
    # which NaN a sum holds depends on the operand order of each addition,
    # which the C compiler may swap: the numpy reference gives those sums
    for j, (_, sums) in enumerate(results):
        if np.isnan(sums).any():
            results[j] = _local_solves(None, loss, jobs[j : j + 1], 1)[0]
    return results


def _run_lanes(calls, sizes, work, lanes: int | None) -> None:
    """Run the job calls on at most `lanes` lanes (native.lanes() when None),
    each running its calls in turn: largest work first, each to the lane
    with the least work so far. Each call takes the square its job of
    sizes[j] samples unpacks its Gram into: one per lane, allocated here
    with the side of the lane's largest job. The lanes run through
    native.run_concurrently, the first on this thread."""
    if lanes is None:
        lanes = native.lanes() if len(calls) > 1 else 1
    loads = [0] * max(1, min(lanes, len(calls)))
    groups = [[] for _ in loads]
    sides = [0] * len(loads)
    for j in sorted(range(len(calls)), key=lambda j: -work[j]):
        lane = loads.index(min(loads))
        groups[lane].append(calls[j])
        loads[lane] += work[j]
        sides[lane] = max(sides[lane], sizes[j])
    native.run_concurrently([
        functools.partial(_run_jobs, group, np.empty(side * side))
        for group, side in zip(groups, sides)
    ])


def _run_jobs(calls, square) -> None:
    for call in calls:
        if call(square) != 0:
            raise MemoryError("no memory for a local solve's scratch")


def _probe_jobs() -> list[tuple]:
    """The probe's _local_solves arguments: (loss, jobs) for each loss.

    Jobs of 4 one-vs-rest columns and 37 samples, and of a single column and
    301 samples (numpy sums a contiguous column pairwise: 301 rows take its
    split, its blocks of 8 and its remainder). alpha0 holds 0, -0.0,
    interior values, both clip bounds and values outside the hinge's dual
    domain; the base margins hold -0.0. In the 4-column hinge jobs many steps
    move some columns and leave others still, column 0 among the still ones,
    which checks the loop's per-column gate. One job's last column has a NaN
    base margin, whose steps move with NaN deltas and give a +inf hinge
    conjugate. The jobs of 0 epochs have negative base margins, so every
    rho * base is -0.0 and their sums show that numpy adds from +0.0.
    """
    rng = np.random.default_rng(23)
    cases = []
    for loss in (SmoothedHinge(gamma=0.5), SquaredLoss()):
        jobs = []
        for n, k, epochs, nan in (
            (37, 4, 2, False), (37, 4, 2, True), (301, 1, 2, False), (37, 4, 0, False),
            (301, 1, 0, False),
        ):
            feats = rng.normal(size=(n, 5))
            gram_scaled = feats @ feats.T / n
            classes = rng.integers(0, max(k, 2), size=n)
            labels_pm = one_vs_rest_targets(classes, k)
            alpha0 = labels_pm * rng.choice([0.0, -0.0, 0.3, 1.0, 1.5, -0.2], size=(n, k))
            base = rng.normal(size=(n, k))
            base[::7] = -0.0
            if epochs == 0:
                base = -np.abs(base)
            if nan:
                base[n // 2, k - 1] = np.nan
            jobs.append((
                classes, alpha0, base, _numpy_pack(gram_scaled)[0],
                np.diagonal(gram_scaled).copy(), _visit_orders(rng, epochs, n),
            ))
        cases.append((loss, jobs))
    return cases


def _probe_matches(kernel) -> bool:
    """Whether the compiled jobs reproduce the numpy loop's and certificate's
    bytes on _probe_jobs."""
    for loss, jobs in _probe_jobs():
        expected = _local_solves(None, loss, jobs, 1)
        got = _local_solves(kernel, loss, jobs, 1)
        if any(
            a.tobytes() != b.tobytes()
            for pair_a, pair_b in zip(expected, got)
            for a, b in zip(pair_a, pair_b)
        ):
            return False
    return True


def _kernel():
    argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, native.I64, ctypes.c_int32,
        ctypes.c_double, native.I64, *[native.F64] * 7,
    ]
    return native.kernel("sdca_job", argtypes, ctypes.c_int, _probe_matches)


def _numpy_pack(gram) -> tuple[np.ndarray, bool]:
    """The upper triangle of the square gram packed row by row, and whether
    every entry below the diagonal has its mirror's bytes: the reference of
    pack_upper."""
    upper = np.triu(np.ones(gram.shape, dtype=bool))
    packed, mirrored = gram[upper], gram.T[upper]
    return packed, packed.tobytes() == mirrored.tobytes()


def _unpack_upper(gram_upper, n: int) -> np.ndarray:
    """The symmetric n x n matrix whose upper triangle gram_upper packs."""
    upper = np.triu(np.ones((n, n), dtype=bool))
    gram = np.empty((n, n))
    gram[upper] = gram_upper
    gram.T[upper] = gram_upper
    return gram


def _pack_probe_matches(kernel) -> bool:
    """Whether the compiled pack gives numpy's mask pack and its verdict: on
    symmetric matrices of sizes below, at and above the kernel's 32-row tile,
    holding zeros and a NaN, and on each with the sign of one entry below the
    diagonal flipped, in the tile of the diagonal and in one off it (row 0 is
    zero: there the flip gives -0.0 against +0.0)."""
    rng = np.random.default_rng(31)
    for n in (1, 2, 31, 32, 33, 70):
        feats = rng.normal(size=(n, 3))
        feats[::5] = 0.0
        gram = feats @ feats.T
        gram[n // 2, n // 2] = np.nan
        cases = [gram]
        for i, j in ((n - 1, n // 2), (n - 1, 0)):
            if i > j:
                cases.append(gram.copy())
                cases[-1].view(np.uint64)[i, j] ^= 1 << 63
        for case in cases:
            packed, symmetric = _numpy_pack(case)
            got = np.empty_like(packed)
            if (kernel(n, case, got) == 0) != symmetric or got.tobytes() != packed.tobytes():
                return False
    return True


def _pack_kernel():
    argtypes = [ctypes.c_int64, native.F64, native.F64]
    return native.kernel("pack_upper", argtypes, ctypes.c_int, _pack_probe_matches)


def _theta_from_certificate(improvement: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """gap/(improvement+gap), clipped; 0 when nothing was achievable."""
    improvement = np.maximum(improvement, 0.0)
    gap = np.maximum(gap, 0.0)
    denom = improvement + gap
    theta = np.divide(gap, denom, out=np.zeros_like(denom), where=denom > 0)
    return np.clip(theta, 0.0, 1.0)


def scaled_gram(features, lam: float, total_samples: int) -> np.ndarray:
    """The device's Gram matrix over lambda*D, the local solve's coupling matrix.

    The product is taken of C-contiguous rows: numpy multiplies a strided
    view, such as every other column, through gemm on separate copies, and
    that Gram need not be symmetric byte for byte."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    gram = features @ features.T
    gram /= lam * total_samples  # in place: the same ufunc and bytes, no second n x n array
    return gram


def _scaled_gram_upper(features, lam: float, total_samples: int, device_id) -> np.ndarray:
    """scaled_gram's upper triangle, packed row by row in n(n+1)/2 float64.

    Raises ValueError, naming the device, where the Gram is not symmetric
    byte for byte, as a BLAS that does not mirror X @ X.T could make it:
    the triangle would not give its bytes back."""
    gram = scaled_gram(features, lam, total_samples)
    kernel = _pack_kernel()
    if kernel is None:
        packed, symmetric = _numpy_pack(gram)
    else:
        n = gram.shape[0]
        packed = np.empty(n * (n + 1) // 2)
        symmetric = kernel(n, gram, packed) == 0
    if not symmetric:
        raise ValueError(
            f"device {device_id}: its scaled Gram is not symmetric byte for byte, "
            f"so its upper triangle cannot hold it"
        )
    return packed


def _packed_diagonal(gram_upper, n: int) -> np.ndarray:
    """The diagonal of the n x n matrix whose upper triangle gram_upper packs:
    row i starts at i*n - i(i-1)/2 with its diagonal entry."""
    rows = np.arange(n)
    return gram_upper[rows * n - rows * (rows - 1) // 2]


def _solve_columns(
    devices, phi_cols, alpha_rows, classes, num_classes: int, hp: Hyperparams, rngs,
    total_samples, epochs, grams,
) -> list[LocalUpdate]:
    """The local dual solves of a list of devices, K one-vs-rest columns
    each: one (n, K) LocalUpdate per device, in order.

    phi_cols is (d, K), K = num_classes. Each device comes with its dual rows
    (n, K), its class ids (its targets are +1 in the column of the sample's
    class and -1 elsewhere), its rng (or seed) and its scaled Gram's packed
    upper triangle (None: computed here, see _scaled_gram_upper); `epochs`
    overrides hp.epochs. Three phases:

    1. this thread makes every BLAS product and RNG draw, device after
       device: the Gram where not given, the row-major base margins and the
       E visit orders;
    2. _local_solves runs each device's coordinate passes and certificate
       sums, on at most native.lanes() lanes;
    3. this thread computes delta_phi = feats.T @ rho / (lambda * D) and theta.

    Every buffer belongs to one device and every BLAS call is made on this
    thread, so each update has the bytes of solving its device alone.
    """
    epochs = hp.epochs if epochs is None else epochs
    lam = hp.resolved_lambda(total_samples)
    loss = hp.make_loss()
    phi_cols = np.asarray(phi_cols, dtype=np.float64)
    jobs = []
    for device, alpha_cols, labels, rng, gram_upper in zip(
        devices, alpha_rows, classes, rngs, grams, strict=True
    ):
        if device.size == 0:
            raise ValueError(f"device {device.device_id} has no training samples")
        if isinstance(rng, (int, np.integer)):
            rng = substream(int(rng))
        # a strided view would give its products other bytes (see scaled_gram)
        feats = np.ascontiguousarray(device.features, dtype=np.float64)
        if gram_upper is None:
            gram_upper = _scaled_gram_upper(feats, lam, total_samples, device.device_id)
        gram_upper = np.ascontiguousarray(gram_upper, dtype=np.float64)
        alpha_cols = np.ascontiguousarray(alpha_cols, dtype=np.float64)
        if phi_cols.shape[1:] != (num_classes,) or alpha_cols.shape != (device.size, num_classes):
            raise ValueError(
                f"device {device.device_id}: phi and alpha need {num_classes} columns and "
                f"alpha one row per sample"
            )
        if gram_upper.shape != (device.size * (device.size + 1) // 2,):
            raise ValueError(
                f"device {device.device_id}: gram_upper needs the n(n+1)/2 values of its "
                f"scaled Gram's packed upper triangle"
            )
        jobs.append((
            np.ascontiguousarray(labels, dtype=np.int64),
            alpha_cols,
            row_major_scores(feats, phi_cols),
            gram_upper,
            _packed_diagonal(gram_upper, device.size),
            _visit_orders(rng, epochs, device.size),
        ))
    updates = []
    for device, (rho, sums) in zip(devices, _local_solves(_kernel(), loss, jobs)):
        feats = np.ascontiguousarray(device.features, dtype=np.float64)
        delta_phi = feats.T @ rho / (lam * total_samples)
        improvement = (
            sums[0] / total_samples
            - sums[1] / total_samples
            - 0.5 * lam * (delta_phi * delta_phi).sum(axis=0)
        )
        theta = _theta_from_certificate(improvement, sums[2] / total_samples)
        updates.append(LocalUpdate(device.device_id, device.sample_indices, rho, delta_phi, theta))
    return updates


def device_update(
    device,
    phi,
    alpha_slice,
    hp: Hyperparams,
    rng,
    *,
    total_samples: int,
    labels=None,
    epochs: int | None = None,
    gram_upper=None,
) -> LocalUpdate:
    """E passes of seeded randomized dual coordinate ascent on one device.

    Labels must be in {-1, +1} (pass binarized labels for one-vs-rest use).
    `epochs` overrides hp.epochs and may be 0, in which case rho = 0 and
    achieved_theta = 1 whenever any improvement was available. `gram_upper`
    is the upper triangle of the device's scaled_gram(features, lambda,
    total_samples), packed row by row in n(n+1)/2 values, computed here when
    not given.
    """
    labels = device.labels if labels is None else np.asarray(labels)
    if not np.all(np.abs(labels) == 1):
        raise ValueError("device_update needs labels in {-1, +1}")
    # one column whose class 0 is the label +1
    [update] = _solve_columns(
        [device],
        np.asarray(phi, dtype=np.float64)[:, None],
        [np.asarray(alpha_slice, dtype=np.float64)[:, None]],
        [np.where(labels == 1, 0, 1)],
        1, hp, [rng], total_samples, epochs, [gram_upper],
    )
    rho, delta_phi, theta = update.rho[:, 0], update.delta_phi[:, 0], update.achieved_theta[0]
    return replace(update, rho=rho, delta_phi=delta_phi, achieved_theta=float(theta))


def device_update_ovr(
    device,
    phi_cols,
    alpha_cols,
    num_classes: int,
    hp: Hyperparams,
    rng,
    *,
    total_samples: int,
    epochs: int | None = None,
    gram_upper=None,
) -> LocalUpdate:
    """One-vs-rest device update: all K class columns in one sweep.

    phi_cols is (d, K) and alpha_cols the device's (n, K) dual rows; the reply
    holds rho (n, K), delta_phi (d, K) and achieved_theta (K,). Every class
    column sees the same coordinate visit order, so the dual coordinates of
    column k are bitwise-identical to a lone device_update run with the same
    rng stream; delta_phi and achieved_theta agree to rounding (batched
    matrix products may differ from a lone run in the last ulp).
    `gram_upper` is as in device_update.
    """
    [update] = _solve_columns(
        [device], phi_cols, [alpha_cols], [device.labels], num_classes, hp, [rng],
        total_samples, epochs, [gram_upper],
    )
    return update


def aggregation_count(rule: str, accepted: int, explored: int, total_devices: int | None) -> int:
    """Averaging denominator of one aggregation.

    `accepted` divides by the number of aggregated updates, `explored` by the
    round's explored count, `all` by the fleet size, total_devices.
    """
    if rule == "accepted":
        return accepted
    if rule == "explored":
        return explored
    if rule == "all":
        if total_devices is None:
            raise ValueError("aggregation rule 'all' needs total_devices")
        return total_devices
    raise ValueError(f"unknown aggregation rule {rule!r}; known: {AGGREGATION_RULES}")


def apply_dual_update(state: GlobalState, updates, aggregation_count: int) -> GlobalState:
    """Absorb accepted updates, each scaled by 1/aggregation_count.

    State and updates share their columns: none for one binary problem, K for
    K one-vs-rest problems. alpha and phi absorb the same scaled quantities,
    so the consistency invariant ||phi - X.alpha/(lambda D)||_inf survives
    exactly. Updates are combined in device-id order regardless of arrival
    order.
    """
    if aggregation_count <= 0:
        raise ValueError(f"aggregation_count must be positive, got {aggregation_count}")
    phi = state.phi.copy()
    alpha = state.alpha.copy()
    for update in sorted(updates, key=lambda u: u.device_id):
        alpha[update.sample_indices] += update.rho / aggregation_count
        phi += update.delta_phi / aggregation_count
    return GlobalState(phi=phi, alpha=alpha)

