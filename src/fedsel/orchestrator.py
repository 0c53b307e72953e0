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
import platform
import time
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import native, products, solver, valuation
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
from .solver import (
    GlobalState,
    Hyperparams,
    LocalUpdate,
    _solve_columns,
    aggregation_count,
    apply_dual_update,
    device_update_ovr,
    fenchel_gap,
    one_vs_rest_targets,
    scaled_gram,
)
from .valuation import CoalitionGame, CoalitionOracle, ContributionLedger, tmc_estimate

CSV_COLUMNS = (
    "round",
    "policy",
    "test_acc",
    "train_loss",
    "personalization_mean",
    "personalization_var",
    "fairness_violations",
    "duality_gap",
    "round_cost_s",
    "cum_cost_s",
    "explored",
    "accepted",
)
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


@dataclass
class RoundMetrics:
    """One metrics.csv row: global and per-device quality after a completed
    round. The fields are CSV_COLUMNS, in order; round_index is `round`."""

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


def evaluate_global(
    phi_cols: np.ndarray,
    split: SplitDataset,
    reg_lambda: float,
    train_values: np.ndarray,
) -> tuple[float, float]:
    """Test accuracy of the argmax predictor plus mean per-class train objective.

    train_values is the loss value of each of the split's n training rows
    under each one-vs-rest problem, (n, K), as _train_loss_values gives it.
    Its mean is summed in that order, so any other shape, the class-major
    (K, n) layout among them, raises ValueError.
    The objective averages, over the one-vs-rest problems, the regularized
    primal value on the full training pool; with phi_cols == 0 it equals
    loss.value(0, -1) averaged with loss.value(0, +1) weighted by class
    frequency, and the accuracy equals the frequency of class 0 because
    argmax breaks ties toward the lowest class id.
    """
    row_major = (split.stacked_train()[0].shape[0], phi_cols.shape[1])
    if train_values.shape != row_major:
        raise ValueError(f"train values must be (n, K) {row_major}, got {train_values.shape}")
    test_scores = products.kmajor_product(split.test_features, [phi_cols])
    accuracy = _accuracy(np.argmax(test_scores, axis=0), split.test_labels)
    data_term = float(np.mean(train_values))
    reg_term = 0.5 * reg_lambda * float(np.mean(np.sum(phi_cols**2, axis=0)))
    return accuracy, data_term + reg_term


def _dual_rows(alpha: np.ndarray, device: DeviceDataset) -> np.ndarray:
    """A view of the device's rows of alpha: a split gives every device one
    row range of dual ids (SplitDataset)."""
    start = device.sample_indices[0] if device.size else 0
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


def device_test_scores(
    phi_cols: np.ndarray, devices: list[DeviceDataset]
) -> dict[int, np.ndarray]:
    """(n_test, K) scores of each device's local test split, keyed by device id.

    Devices without held-out samples have no entry. The scores are
    products.row_major_scores.
    """
    return {
        device.device_id: products.row_major_scores(device.test_features, phi_cols)
        for device in devices
        if device.test_features is not None and device.test_features.shape[0] > 0
    }


def fairness_audit(
    test_scores: dict[int, np.ndarray],
    devices: list[DeviceDataset],
    loss: Loss,
    threshold: float,
    num_classes: int,
) -> tuple[dict[int, float], set[int]]:
    """Per-device held-out risk and the ids whose risk exceeds the threshold.

    test_scores comes from device_test_scores. Risk for a device is the mean
    one-vs-rest loss over its local test split (samples x classes). Devices
    without held-out samples carry no risk estimate and cannot violate.
    """
    risks: dict[int, float] = {}
    violators: set[int] = set()
    for device in devices:
        margins = test_scores.get(device.device_id)
        if margins is None:
            continue
        targets = one_vs_rest_targets(device.test_labels, num_classes)
        risk = float(np.mean(loss.value(margins, targets)))
        risks[device.device_id] = risk
        if risk > threshold:
            violators.add(device.device_id)
    return risks, violators


class Experiment:
    """Stateful driver for one (policy, seed) run over a fixed split."""

    def __init__(
        self,
        split: SplitDataset,
        hyper: Hyperparams,
        policy: SelectionPolicy,
        *,
        eval_every: int = 1,
        stop_at_accuracy: float | None = None,
        audit_sink: list[dict] | None = None,
        cost_ranges: dict | None = None,
    ):
        if eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if stop_at_accuracy is not None and not 0.0 < stop_at_accuracy <= 1.0:
            raise ValueError(f"stop_at_accuracy must be in (0, 1], got {stop_at_accuracy}")
        self.split = split
        self.hyper = hyper
        self.policy = policy
        self.eval_every = eval_every
        self.stop_at_accuracy = stop_at_accuracy
        self.audit_sink = audit_sink

        self.devices = {d.device_id: d for d in split.devices}
        self.num_devices = len(split.devices)
        self.num_classes = split.num_classes
        self.total_samples = split.total_train
        self.loss = hyper.make_loss()
        self.reg_lambda = hyper.resolved_lambda(self.total_samples)

        # class-major, (K, D), as the train margins are
        self.train_targets = np.ascontiguousarray(
            one_vs_rest_targets(split.stacked_train()[1], self.num_classes).T
        )

        sizes = {d.device_id: d.size for d in split.devices}
        self.profiles = sample_profiles(
            self.num_devices,
            sizes,
            split.feature_dim,
            hyper.seed,
            **(cost_ranges or {}),
        )

        # every device's Gram matrix over lambda*D once computed: 8 * sum(n_m^2)
        # bytes at most, which is no more than 8 * D * max(n_m)
        self._gram_cache: dict[int, np.ndarray] = {}
        self._persistent_ledger: ContributionLedger | None = (
            ContributionLedger() if policy.beta_persistence else None
        )

    # -- per-device caches ------------------------------------------------

    def _scaled_gram(self, device_id: int) -> np.ndarray:
        gram = self._gram_cache.get(device_id)
        if gram is None:
            gram = self._gram_cache[device_id] = scaled_gram(
                self.devices[device_id].features, self.reg_lambda, self.total_samples
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
        grams = [self._scaled_gram(m) for m in explored]
        if device_update_ovr is solver.device_update_ovr:
            updates = _solve_columns(
                devices, state.phi, alpha_rows, [device.labels for device in devices],
                self.num_classes, self.hyper, rngs, self.total_samples, None, grams,
            )
        else:
            # a replaced per-device update (a tracer's wrapper, a test's fake)
            # is called device by device; the bytes are the batch's
            updates = [
                device_update_ovr(
                    device, state.phi, alpha_cols, self.num_classes, self.hyper, rng,
                    total_samples=self.total_samples, gram_scaled=gram,
                )
                for device, alpha_cols, rng, gram in zip(devices, alpha_rows, rngs, grams)
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

        sink = None
        if self.audit_sink is not None:
            def sink(entry: dict) -> None:
                entry["global_round"] = round_index
                self.audit_sink.append(entry)

        game = CoalitionGame(players=explored, value_fn=value)
        ledger = tmc_estimate(
            game,
            self.hyper.delta_t,
            self.hyper.trunc_tol,
            stream_seed(self.hyper.seed, VALUATION, round_index),
            ledger=self._persistent_ledger,
            audit_sink=sink,
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
        train_margins = products.kmajor_product(self.split.stacked_train()[0], [state.phi])
        train_values = _train_loss_values(train_margins, self.train_targets, self.loss)
        test_acc, train_loss = evaluate_global(state.phi, self.split, self.reg_lambda, train_values)
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

        test_scores = device_test_scores(state.phi, self.split.devices)
        local_accs = [
            _accuracy(np.argmax(scores, axis=1), self.devices[m].test_labels)
            for m, scores in test_scores.items()
        ]
        if local_accs:
            pers_mean = float(np.mean(local_accs))
            pers_var = float(np.var(local_accs))
        else:
            pers_mean = pers_var = float("nan")

        _, violators = fairness_audit(
            test_scores,
            self.split.devices,
            self.loss,
            self.hyper.theta_threshold,
            self.num_classes,
        )

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
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        out = Path(out_dir) if out_dir is not None else None
        manifest = None
        csv_handle = None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            manifest = RunManifest.start(
                out, self.policy.kind, self.hyper.seed, config_payload or {}
            )
            csv_handle = open(out / "metrics.csv", "w", encoding="utf-8")
            csv_handle.write(CSV_HEADER)
        # after RunManifest.start: the kernels' probes it runs make products too
        layouts_before = products.LAYOUTS.copy()

        def value_products() -> str | None:
            ran = products.LAYOUTS - layouts_before
            return "row_major" if ran["row_major"] else "k_major" if ran["k_major"] else None

        state = GlobalState.zeros(self.split.feature_dim, self.total_samples, self.num_classes)
        metrics: list[RoundMetrics] = []
        stop_reason = "completed"
        cum_cost = 0.0

        def emit(row: RoundMetrics) -> None:
            metrics.append(row)
            if csv_handle is not None:
                csv_handle.write(row.csv_line())
                csv_handle.flush()
            if log is not None:
                log(
                    f"round {row.round_index:4d} policy={row.policy} "
                    f"acc={row.test_acc:.4f} gap={row.duality_gap:.3e} "
                    f"accepted={row.accepted}/{row.explored}"
                )

        try:
            emit(self.evaluate(state, 0, None, 0.0, 0.0))
            for t in range(1, rounds + 1):
                state, plan = self.run_round(state, t)
                report = schedule_cost(
                    self.profiles,
                    plan.explored,
                    epochs=self.hyper.epochs,
                    cumulative_before=cum_cost,
                )
                cum_cost = report.cumulative_s
                if t % self.eval_every == 0 or t == rounds:
                    row = self.evaluate(state, t, plan, report.round_cost_s, cum_cost)
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
            if manifest is not None:
                manifest.fail(out, exc, len(metrics), value_products())
            raise
        finally:
            if csv_handle is not None:
                csv_handle.close()
        if manifest is not None:
            manifest.finalize(
                out, stop_reason, len(metrics), value_products=value_products()
            )
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
    """native.FAST_PATHS by name once both kernels are bound: the manifest's `fast_paths`."""
    solver._kernel(), valuation._walk_kernel()
    return {name: dict(record) for name, record in sorted(native.FAST_PATHS.items())}


@dataclass(kw_only=True)
class RunManifest:
    """Provenance record written before round 1 and finalized at exit;
    manifest.json holds its fields, in this order."""

    policy: str
    seed: int
    config_digest: str
    config: dict
    started_at: str
    finished_at: str | None = None
    status: str = "running"
    fast_paths: dict
    lanes: int
    blas: dict
    python: str
    numpy: str
    value_products: str | None = None
    rows_written: int = 0
    stop_reason: str | None = None
    error: str | None = None
    outputs: tuple[str, ...] = ()

    PATH = "manifest.json"

    @staticmethod
    def digest(config: dict) -> str:
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def start(cls, out: Path, policy: str, seed: int, config: dict) -> "RunManifest":
        manifest = cls(
            policy=policy,
            seed=seed,
            config_digest=cls.digest(config),
            config=config,
            started_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            fast_paths=fast_paths(),
            lanes=native.lanes(),
            blas=native.blas(),
            python=platform.python_version(),
            numpy=np.__version__,
        )
        manifest.write(out)
        return manifest

    def write(self, out: Path) -> None:
        (out / self.PATH).write_text(json.dumps(asdict(self), indent=2) + "\n")

    def finalize(
        self,
        out: Path,
        stop_reason: str | None,
        rows: int,
        status: str = "complete",
        value_products: str | None = None,
    ) -> None:
        self.status = status
        self.value_products = value_products
        self.finished_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.stop_reason = stop_reason
        self.rows_written = rows
        self.outputs = ("metrics.csv", self.PATH)
        self.write(out)

    def fail(
        self, out: Path, exc: BaseException, rows: int, value_products: str | None = None
    ) -> None:
        """Record a run that raised: the error and the rows written before it."""
        self.error = f"{type(exc).__name__}: {exc}"
        self.finalize(out, None, rows, "failed", value_products)
