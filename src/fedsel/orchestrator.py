"""Round loop: explore, update, value, select, aggregate, evaluate, report.

One Experiment owns a per-policy run. Each global round draws the explored
set from a per-round exploration stream shared by every policy under the same
master seed (so baseline comparisons are paired by construction), computes all
explored devices' one-vs-rest updates, lets the policy pick the accepted
subset, and aggregates atomically. Metrics rows stream to CSV as rounds
complete; reruns with equal config and seed produce byte-identical CSV bodies.
"""
from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data, native, products, solver, valuation
from .config import ExperimentConfig
from .cost import sample_profiles, schedule_cost
from .data import DeviceDataset, SplitDataset
from .losses import Loss
from .rng import DEVICE, EXPLORE, VALUATION, stream_seed, substream
from .selection import (
    RoundPlan,
    SelectionPolicy,
    exploit_select,
    explore_select,
    greedy_from_value_fn,
    random_aggregate_plan,
)
from .settings import check_args
from .solver import (
    GlobalState,
    Hyperparams,
    LocalUpdate,
    _scaled_gram_upper,
    _solve_columns,
    aggregation_count,
    apply_dual_update,
    device_update_ovr,
    fenchel_gap,
    one_vs_rest_targets,
)
from .valuation import CoalitionGame, CoalitionOracle, ContributionLedger, tmc_estimate


@dataclass
class RoundMetrics:
    """One metrics.csv row: global and per-device quality after a completed
    round. Its fields, in order, are CSV_COLUMNS; round_index is `round`."""

    round_index: int
    policy: str
    test_acc: float
    train_loss: float
    personalization_mean: float
    personalization_var: float
    fairness_violations: int
    duality_gap: float
    round_cost_s: float
    cum_cost_s: float
    explored: int
    accepted: int

    def csv_line(self) -> str:
        """This row as a line under CSV_HEADER. Floats are written by repr,
        which round-trips exactly, keeping rerun CSVs byte-identical."""
        cells = (repr(v) if isinstance(v, float) else str(v) for v in astuple(self))
        return ",".join(cells) + "\n"


CSV_COLUMNS = ("round", *(f.name for f in fields(RoundMetrics)[1:]))
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


def rounds_to_target(metrics: list[RoundMetrics], target: float) -> int | None:
    """First round index whose test accuracy reaches target, else None."""
    for m in metrics:
        if m.test_acc >= target:
            return m.round_index
    return None


@dataclass
class ExperimentResult:
    """A finished run; states holds one 1-D GlobalState view per class of the
    final (d, K) state."""

    policy: str
    seed: int
    metrics: list[RoundMetrics]
    states: list[GlobalState]
    stop_reason: str
    out_dir: Path | None = None


def _accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    if predicted.shape[0] == 0:
        raise ValueError("accuracy over an empty sample set is undefined")
    return float(np.mean(predicted == labels))


def evaluate_global(phi_cols: np.ndarray, split: SplitDataset) -> float:
    """Test accuracy of the argmax predictor over the split's global test set,
    from its chunked scores (_kmajor_scores). With phi_cols == 0 it equals
    the frequency of class 0, because argmax breaks ties toward the lowest
    class id, and no row is read (see products.zero_model).
    """
    predicted = np.argmax(_kmajor_scores(phi_cols, split.test_features), axis=0)
    return _accuracy(predicted, split.test_labels)


def _kmajor_scores(phi_cols: np.ndarray, rows: data.FeatureRows) -> np.ndarray:
    """The (K, n) class-major scores of all n rows, products.kmajor_product
    of each near-equal chunk products._probe_chunks cuts, as
    data.feature_blocks reads it (pixels decoded one chunk at a time): each
    chunk's scores are its rows of the full-height product, in either
    layout. The zero model reads no row."""
    chunks = _read_unless_zero(phi_cols, [rows[span] for span in products._probe_chunks(len(rows))])
    return np.hstack([products.kmajor_product(chunk, [phi_cols]) for chunk in chunks])


def _read_unless_zero(phi_cols: np.ndarray, parts: list[data.FeatureRows]):
    """The float64 rows of each part (data.feature_blocks), or for the zero
    model the parts themselves: its +0.0 scores need only their shape."""
    return parts if products.zero_model([phi_cols]) else data.feature_blocks(parts)


def _dual_rows(alpha: np.ndarray, device: DeviceDataset) -> np.ndarray:
    """A view of the device's rows of alpha: a split gives every device one
    nonempty row range of dual ids (SplitDataset)."""
    start = device.sample_indices[0]
    return alpha[start : start + device.size]


def _train_loss_values(
    train_margins: np.ndarray, train_targets: np.ndarray, loss: Loss
) -> np.ndarray:
    """loss.value of class-major (K, n) margins and targets, as an (n, K) array.

    One class at a time on contiguous rows, into the (n, K) order the train
    objective's mean has always summed in: a class-major sum would round
    differently.
    """
    values = np.empty(train_margins.shape[::-1])
    for k, (margins, targets) in enumerate(zip(train_margins, train_targets)):
        values[:, k] = loss.value(margins, targets)
    return values


def fairness_audit(
    phi_cols: np.ndarray,
    devices: list[DeviceDataset],
    loss: Loss,
    threshold: float,
    num_classes: int,
) -> tuple[dict[int, float], dict[int, float], set[int]]:
    """Each device's held-out accuracy and risk, keyed by device id, and the
    ids whose risk exceeds the threshold.

    A device's scores are products.row_major_scores of its local test split,
    read by data.feature_blocks (pixels one device at a time; none for
    the zero model); its accuracy is the argmax predictor's, its risk the
    mean one-vs-rest loss (samples x classes). A device whose held-out
    split has 0 rows has no entry and cannot violate.
    """
    accuracies: dict[int, float] = {}
    risks: dict[int, float] = {}
    violators: set[int] = set()
    held = [device for device in devices if len(device.test_features)]
    rows_of = _read_unless_zero(phi_cols, [device.test_features for device in held])
    for device, rows in zip(held, rows_of):
        scores = products.row_major_scores(rows, phi_cols)
        accuracies[device.device_id] = _accuracy(np.argmax(scores, axis=1), device.test_labels)
        targets = one_vs_rest_targets(device.test_labels, num_classes)
        risk = risks[device.device_id] = float(np.mean(loss.value(scores, targets)))
        if risk > threshold:
            violators.add(device.device_id)
    return accuracies, risks, violators


class Experiment:
    """Stateful driver for one (policy, seed) run over a fixed split."""

    def __init__(
        self,
        split: SplitDataset,
        hyper: Hyperparams,
        policy: SelectionPolicy,
        *,
        eval_every: int = ExperimentConfig.eval_every,
        stop_at_accuracy: float | None = ExperimentConfig.stop_at_accuracy,
        cost_ranges: dict | None = None,
    ):
        check_args(ExperimentConfig, eval_every=eval_every, stop_at_accuracy=stop_at_accuracy)
        self.split = split
        self.hyper = hyper
        self.policy = policy
        self.eval_every = eval_every
        self.stop_at_accuracy = stop_at_accuracy

        self.devices = {d.device_id: d for d in split.devices}
        self.num_devices = len(split.devices)
        self.num_classes = split.num_classes
        self.total_samples = split.total_train
        self.loss = hyper.make_loss()
        self.reg_lambda = hyper.resolved_lambda(self.total_samples)

        # class-major, (K, D), as the train margins are
        self.train_targets = np.ascontiguousarray(
            one_vs_rest_targets(split.train_labels, self.num_classes).T
        )

        sizes = {d.device_id: d.size for d in split.devices}
        self.profiles = sample_profiles(
            self.num_devices,
            sizes,
            split.feature_dim,
            hyper.seed,
            **(cost_ranges or {}),
        )

        # each device's Gram matrix over lambda*D as its packed upper triangle,
        # built by its first local solve from the rows the solve decodes:
        # inside run() until its last scheduled one (_last_solve), so no Gram
        # is built twice and none outlives its use; kept for the
        # Experiment's life when run_round is driven by hand
        self._gram_cache: dict[int, np.ndarray] = {}
        self._last_solve: dict[int, int] | None = None
        self._persistent_ledger: ContributionLedger | None = (
            ContributionLedger() if policy.beta_persistence else None
        )

    # -- per-device caches ------------------------------------------------

    def _gram_upper(self, device_id: int) -> np.ndarray:
        """The device's cached Gram, built from its rows where missing: for
        a per-device update, which cannot hand its Gram back."""
        gram = self._gram_cache.get(device_id)
        if gram is None:
            rows = self.devices[device_id].features.rows()
            gram = self._gram_cache[device_id] = _scaled_gram_upper(
                rows, self.reg_lambda, self.total_samples, device_id
            )
        return gram

    # -- round mechanics ---------------------------------------------------

    def _explored(self, round_index: int) -> tuple[int, ...]:
        # greedy is defined as collecting every device's update and then
        # picking a subset, so it pays the full fleet's round cost; cds and
        # random draw the same S_t from the shared exploration stream.
        if self.policy.kind == "greedy":
            return tuple(sorted(self.devices))
        rng = substream(self.hyper.seed, EXPLORE, round_index)
        return explore_select(self.num_devices, self.hyper.c_fraction, rng)

    def _device_updates(
        self, round_index: int, explored: tuple[int, ...], state: GlobalState
    ) -> dict[int, LocalUpdate]:
        devices = [self.devices[m] for m in explored]
        alpha_rows = [_dual_rows(state.alpha, device) for device in devices]
        rngs = [substream(self.hyper.seed, DEVICE, round_index, m) for m in explored]
        if device_update_ovr is solver.device_update_ovr:
            # the batch builds each missing Gram from the rows it decodes
            # anyway, and fills it in
            grams = [self._gram_cache.get(m) for m in explored]
            updates = _solve_columns(
                devices, state.phi, alpha_rows, [device.labels for device in devices],
                self.num_classes, self.hyper, rngs, self.total_samples, None, grams,
            )
            self._gram_cache.update(zip(explored, grams))
        else:
            # a replaced per-device update (a tracer's wrapper, a test's fake)
            # is called device by device; the bytes are the batch's
            updates = [
                device_update_ovr(
                    device, state.phi, alpha_cols, self.num_classes, self.hyper, rng,
                    total_samples=self.total_samples, gram_upper=self._gram_upper(m),
                )
                for m, device, alpha_cols, rng in zip(explored, devices, alpha_rows, rngs)
            ]
        return dict(zip(explored, updates))

    def _plan(
        self,
        round_index: int,
        explored: tuple[int, ...],
        phi_cols: np.ndarray,
        deltas: dict[int, np.ndarray],
    ) -> RoundPlan:
        if self.policy.kind == "random":
            return random_aggregate_plan(explored)

        value = CoalitionOracle(
            phi_cols,
            deltas,
            self.split.validation_features,
            self.split.validation_labels,
            self.hyper.aggregation_denominator,
            self.num_devices,
        )
        if self.policy.kind == "greedy":
            # the budget is the whole candidate pool; early stop trims it
            accepted = greedy_from_value_fn(
                explored, len(explored), value, early_stop=self.policy.greedy_early_stop
            )
            return RoundPlan(explored=explored, accepted=accepted, betas={})

        game = CoalitionGame(players=explored, value_fn=value)
        ledger = tmc_estimate(
            game,
            self.hyper.delta_t,
            self.hyper.trunc_tol,
            stream_seed(self.hyper.seed, VALUATION, round_index),
            ledger=self._persistent_ledger,
        )
        # a persistent ledger also holds devices explored in earlier rounds
        betas = {m: ledger.beta[m] for m in explored}
        accepted = exploit_select(betas, self.policy.keep_rule)
        return RoundPlan(explored=explored, accepted=accepted, betas=betas)

    def run_round(
        self, state: GlobalState, round_index: int
    ) -> tuple[GlobalState, RoundPlan]:
        """One atomic global round; returns the new state and the round plan.

        state holds phi (d, K) and alpha (D, K). Each explored device replies
        with one LocalUpdate of rho (n_m, K) and delta_phi (d, K), and the
        accepted replies are absorbed in one apply_dual_update call.
        """
        explored = self._explored(round_index)
        updates = self._device_updates(round_index, explored, state)
        if self._last_solve is not None:
            for m in explored:
                if self._last_solve[m] == round_index:
                    del self._gram_cache[m]
        deltas = {m: u.delta_phi for m, u in updates.items()}
        plan = self._plan(round_index, explored, state.phi, deltas)
        count = aggregation_count(
            self.hyper.aggregation_denominator,
            len(plan.accepted),
            len(plan.explored),
            self.num_devices,
        )
        return apply_dual_update(state, [updates[m] for m in plan.accepted], count), plan

    # -- evaluation ---------------------------------------------------------

    def evaluate(
        self,
        state: GlobalState,
        round_index: int,
        plan: RoundPlan | None,
        round_cost_s: float,
        cum_cost_s: float,
    ) -> RoundMetrics:
        train_margins = _kmajor_scores(state.phi, self.split.train_features)
        train_values = _train_loss_values(train_margins, self.train_targets, self.loss)
        test_acc = evaluate_global(state.phi, self.split)
        # the regularized primal objective on the full training pool, averaged
        # over the one-vs-rest problems
        train_loss = float(np.mean(train_values)) + 0.5 * self.reg_lambda * float(
            np.mean(np.sum(state.phi**2, axis=0))
        )
        duality_gap = float(
            np.mean(
                [
                    fenchel_gap(
                        state.alpha[:, k], margins, targets, self.loss, values=train_values[:, k]
                    )
                    for k, (margins, targets) in enumerate(zip(train_margins, self.train_targets))
                ]
            )
        )

        accuracies, _, violators = fairness_audit(
            state.phi, self.split.devices, self.loss, self.hyper.theta_threshold, self.num_classes
        )
        if accuracies:
            local_accs = list(accuracies.values())
            pers_mean = float(np.mean(local_accs))
            pers_var = float(np.var(local_accs))
        else:
            pers_mean = pers_var = float("nan")

        return RoundMetrics(
            round_index=round_index,
            policy=self.policy.kind,
            test_acc=test_acc,
            train_loss=train_loss,
            personalization_mean=pers_mean,
            personalization_var=pers_var,
            fairness_violations=len(violators),
            duality_gap=duality_gap,
            round_cost_s=round_cost_s,
            cum_cost_s=cum_cost_s,
            explored=0 if plan is None else len(plan.explored),
            accepted=0 if plan is None else len(plan.accepted),
        )

    # -- full run -----------------------------------------------------------

    def run(
        self,
        rounds: int,
        *,
        out_dir: Path | str | None = None,
        config_payload: dict | None = None,
        log=None,
    ) -> ExperimentResult:
        check_args(ExperimentConfig, rounds=rounds)
        started = time.monotonic()
        out = Path(out_dir) if out_dir is not None else None
        state = GlobalState.zeros(self.split.feature_dim, self.total_samples, self.num_classes)
        metrics: list[RoundMetrics] = []
        stop_reason = "completed"
        cum_cost = 0.0
        record = None if out is None else RunDirectory.start(
            out, self.policy.kind, self.hyper.seed, config_payload or {}, started
        )

        def emit(row: RoundMetrics) -> None:
            metrics.append(row)
            if record is not None:
                record.write_row(row)
            if log is not None:
                log(
                    f"round {row.round_index:4d} policy={row.policy} "
                    f"acc={row.test_acc:.4f} gap={row.duality_gap:.3e} "
                    f"accepted={row.accepted}/{row.explored}"
                )

        try:
            # a floating-point fault fails the run instead of writing garbage;
            # underflow to a subnormal or zero stays silent
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                # the explored sets never read the model: the schedule is known now
                self._last_solve = {m: t for t in range(1, rounds + 1) for m in self._explored(t)}
                emit(self.evaluate(state, 0, None, 0.0, 0.0))
                for t in range(1, rounds + 1):
                    state, plan = self.run_round(state, t)
                    round_cost_s = schedule_cost(self.profiles, plan.explored, epochs=self.hyper.epochs)
                    cum_cost += round_cost_s
                    if t % self.eval_every == 0 or t == rounds:
                        row = self.evaluate(state, t, plan, round_cost_s, cum_cost)
                        emit(row)
                        if (
                            self.stop_at_accuracy is not None
                            and row.test_acc >= self.stop_at_accuracy
                        ):
                            stop_reason = "accuracy_target"
                            break
                        if (
                            self.hyper.duality_gap_target is not None
                            and row.duality_gap <= self.hyper.duality_gap_target
                        ):
                            stop_reason = "duality_gap_target"
                            break
        except BaseException as exc:
            if record is not None:
                record.close(None, exc)
            raise
        finally:
            self._last_solve = None
            self._gram_cache.clear()
        if record is not None:
            record.close(stop_reason)
        return ExperimentResult(
            policy=self.policy.kind,
            seed=self.hyper.seed,
            metrics=metrics,
            states=[
                GlobalState(phi=state.phi[:, k], alpha=state.alpha[:, k])
                for k in range(self.num_classes)
            ],
            stop_reason=stop_reason,
            out_dir=out,
        )


def fast_paths() -> dict:
    """native.FAST_PATHS by name once every kernel is bound: the manifest's `fast_paths`."""
    data._pixel_kernel(), solver._kernel(), solver._pack_kernel(), valuation._walk_kernel()
    return {name: dict(record) for name, record in sorted(native.FAST_PATHS.items())}


@dataclass(kw_only=True)
class RunDirectory:
    """A run directory's one writer. manifest.json holds these fields, in
    this order: it says `running` from before round 0, and `complete` or
    `failed` once close has run. metrics.csv gets one flushed row per
    evaluation."""

    policy: str
    seed: int
    config_digest: str
    config: dict
    started_at: str = field(default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    finished_at: str | None = None
    status: str = "running"
    fast_paths: dict = field(default_factory=fast_paths)
    lanes: int = field(default_factory=native.lanes)
    blas: dict = field(default_factory=native.blas)
    python: str = field(default_factory=platform.python_version)
    numpy: str = np.__version__
    value_products: str | None = None
    rows_written: int = 0
    stop_reason: str | None = None
    error: str | None = None
    outputs: tuple[str, ...] = ()
    wall_s: float | None = None
    peak_rss_mib: float | None = None

    PATH = "manifest.json"

    @staticmethod
    def digest(config: dict) -> str:
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def start(
        cls, out: Path, policy: str, seed: int, config: dict, started: float
    ) -> "RunDirectory":
        """Create out, write its running manifest and open metrics.csv with
        its header; wall_s counts from started, a time.monotonic() reading."""
        out.mkdir(parents=True, exist_ok=True)
        config = _finite_json(config)
        record = cls(policy=policy, seed=seed, config_digest=cls.digest(config), config=config)
        record._out, record._started, record._csv = out, started, None
        # after the fast_paths field: the kernels' probes it runs make products too
        record._layouts = products.LAYOUTS.copy()
        record._write_manifest()
        try:
            record._csv = open(out / "metrics.csv", "w", encoding="utf-8")
            record._csv.write(CSV_HEADER)
        except BaseException as exc:
            record.close(None, exc)
            raise
        return record

    def write_row(self, row: RoundMetrics) -> None:
        """Append row to metrics.csv and flush it, so a killed run keeps its rows."""
        self._csv.write(row.csv_line())
        self._csv.flush()
        self.rows_written += 1

    def close(self, stop_reason: str | None, error: BaseException | None = None) -> None:
        """Close metrics.csv and write the final manifest: `failed` with
        error if one is given, else `complete`."""
        if self._csv is not None:
            self._csv.close()
        ran = products.LAYOUTS - self._layouts
        self.value_products = (
            "row_major" if ran["row_major"] else "k_major" if ran["k_major"] else None
        )
        self.finished_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.status = "complete" if error is None else "failed"
        self.stop_reason = stop_reason
        if error is not None:
            self.error = f"{type(error).__name__}: {error}"
        self.outputs = ("metrics.csv", self.PATH) if self._csv is not None else (self.PATH,)
        self.wall_s = time.monotonic() - self._started
        self.peak_rss_mib = _peak_rss_mib()
        self._write_manifest()

    def _write_manifest(self) -> None:
        text = json.dumps(asdict(self), indent=2, allow_nan=False)
        (self._out / self.PATH).write_text(text + "\n")


def _finite_json(value):
    """value with each non-finite float as the string --set reads back
    ("inf"): JSON has no infinity."""
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _peak_rss_mib() -> float | None:
    """The whole process's peak resident set so far, in MiB; None without `resource`."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB on Linux
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10
