"""Monte Carlo MSE studies, the relative-RMSE metric with its simulation-based
standard error, dataset file I/O, and the noisy-nuisance scenario builder.

Replications draw independent random streams from a splittable seed sequence,
so results do not depend on execution order. With the OPE_DML_THREADS
environment variable above 1, the replications are split into one contiguous
block per worker process; each block builds the scenario once, and the blocks'
rows are joined in order.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .estimators import (
    Estimator,
    ValueEstimate,
    dm_estimate,
    dml_estimate,
    dr_full_estimate,
    dr_half_estimate,
    ipw_estimate,
)
from .mdp import (
    LoggedDataset,
    Policy,
    TabularMdp,
    ValidationError,
    check_keys,
    exact_policy_value,
    json_field,
    load_mdp,
    mdp_from_dict,
    sample_dataset,
)
from .nuisance import NuisanceConfig, check_ids, fit_nuisance

_INT64_MAX = np.iinfo(np.int64).max
_WRITE_BLOCK_ROWS = 4096
_STEP_KEYS = {"s", "a", "r"}


# ---------------------------------------------------------------------------
# Policy / dataset serialization


def policy_to_dict(policy: Policy) -> dict:
    return {"table": policy.table.tolist()}


def policy_from_dict(obj: dict) -> Policy:
    if not isinstance(obj, dict) or "table" not in obj:
        raise ValidationError("policy spec must be an object with a 'table' field")
    return Policy(table=json_field(obj, "table", "policy spec", np.ndarray))


def load_policy(path: str | Path) -> Policy:
    with open(path) as fh:
        return policy_from_dict(json.load(fh))


def _json_cells(column: np.ndarray) -> list[str]:
    """The JSON text of each entry, exactly as json.dumps writes it in a list."""
    return json.dumps(column.ravel().tolist())[1:-1].split(", ")


def write_jsonl(data: LoggedDataset, path: str | Path) -> None:
    """Emit one {"steps": [{"s", "a", "r", "p"}, ...]} object per trajectory.

    Each field of a block of rows is encoded by one json.dumps call and split
    into per-step cells, so the bytes equal json.dumps of every line's object;
    ``p`` is null when the dataset carries no propensities. Encoding by block
    keeps the per-step strings of only one block in memory.
    """
    width = data.horizon + 1
    with open(path, "w") as fh:
        for start in range(0, data.n, _WRITE_BLOCK_ROWS):
            rows = slice(start, start + _WRITE_BLOCK_ROWS)
            cells = [_json_cells(col[rows]) for col in (data.states, data.actions, data.rewards)]
            cells.append(
                _json_cells(data.propensities[rows]) if data.propensities is not None
                else ["null"] * len(cells[0])
            )
            steps = list(map('{{"s": {}, "a": {}, "r": {}, "p": {}}}'.format, *cells))
            fh.writelines(
                '{"steps": [' + ", ".join(steps[i:i + width]) + "]}\n"
                for i in range(0, len(steps), width)
            )


def _first(values: list, bad) -> int:
    return next(k for k, x in enumerate(values) if bad(x))


def _label_ids(labels: list, provided: dict | None, field: str, kind: str, where) -> np.ndarray:
    """Map one label column to integer ids.

    JSON integers are their own ids and strings map to dense ids in sorted
    order, unless ``provided`` maps the labels. Booleans, other numbers and a
    column mixing integers with strings are rejected.
    """
    types = set(map(type, labels))
    if not types <= {int, str}:
        k = _first(labels, lambda x: type(x) not in (int, str))
        raise ValidationError(
            f"{where(k)}: '{field}' must be an integer or string {kind} label, "
            f"got {json.dumps(labels[k])}"
        )
    if provided is not None:
        if not set(labels) <= provided.keys():
            k = _first(labels, lambda x: x not in provided)
            raise ValidationError(
                f"{where(k)}: '{field}': {kind} label map is missing {json.dumps(labels[k])}"
            )
        return np.array(list(map(provided.__getitem__, labels)), dtype=np.int64)
    if len(types) > 1:
        k = _first(labels, lambda x: type(x) is not type(labels[0]))
        raise ValidationError(f"{where(k)}: '{field}' mixes integer and string {kind} labels")
    if types == {int}:
        if min(labels) < 0 or max(labels) > _INT64_MAX:
            k = _first(labels, lambda x: not 0 <= x <= _INT64_MAX)
            raise ValidationError(
                f"{where(k)}: '{field}' integer {kind} label {labels[k]} is negative or too large"
            )
        return np.array(labels, dtype=np.int64)
    lookup = {label: i for i, label in enumerate(sorted(set(labels)))}
    return np.array(list(map(lookup.__getitem__, labels)), dtype=np.int64)


def _number_column(values: list, field: str, where, valid, rule: str,
                   nullable: bool = False) -> np.ndarray:
    """One step field as floats: every entry must be a JSON number passing
    ``valid``, or null if ``nullable`` (null reads as NaN and is not checked)."""
    allowed = (int, float, type(None)) if nullable else (int, float)
    if not set(map(type, values)) <= set(allowed):
        k = _first(values, lambda x: type(x) not in allowed)
        raise ValidationError(
            f"{where(k)}: '{field}' must be a number, got {json.dumps(values[k])}"
        )
    try:
        column = np.array(values, dtype=float)
    except OverflowError:
        k = _first(values, lambda x: type(x) is int and abs(x) > sys.float_info.max)
        raise ValidationError(f"{where(k)}: '{field}' is beyond the float range") from None
    bad = np.flatnonzero(~valid(column)).tolist()
    if nullable and None in values:
        bad = [k for k in bad if values[k] is not None]
    if bad:
        k = bad[0]
        raise ValidationError(f"{where(k)}: '{field}' {rule}, got {json.dumps(values[k])}")
    return column


def ingest_jsonl(
    path: str | Path,
    state_map: dict | None = None,
    action_map: dict | None = None,
) -> LoggedDataset:
    """Read a trajectory-per-line JSONL file into a LoggedDataset.

    Steps are gathered into flat per-field lists, checked column by column and
    reshaped to (N, T+1) once. String state/action labels are mapped through
    the provided maps, or through maps inferred in sorted label order. Horizons
    must be uniform; propensities are kept only if every step of every
    trajectory carries one. Errors name the file, line, step and field.
    """
    s_col, a_col, r_col, p_col = [], [], [], []
    lengths, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise ValidationError(
                    f"{path}: line {lineno}: expected an object with a 'steps' array"
                )
            steps = obj.get("steps")
            if not isinstance(steps, list) or not steps:
                raise ValidationError(f"{path}: line {lineno}: expected a nonempty 'steps' array")
            try:
                for step in steps:
                    s_col.append(step["s"])
                    a_col.append(step["a"])
                    r_col.append(step["r"])
                    p_col.append(step.get("p"))
            except (KeyError, TypeError):
                j = _first(steps, lambda st: not (isinstance(st, dict) and _STEP_KEYS <= st.keys()))
                raise ValidationError(
                    f"{path}: line {lineno}: step {j} needs 's', 'a', 'r'"
                ) from None
            lengths.append(len(steps))
            linenos.append(lineno)
    if not linenos:
        raise ValidationError(f"{path}: empty dataset")
    width = lengths[0]
    ragged = np.flatnonzero(np.array(lengths) != width)
    if ragged.size:
        i = ragged[0]
        raise ValidationError(
            f"{path}: line {linenos[i]}: horizon {lengths[i] - 1} differs from {width - 1}"
        )

    def where(k: int) -> str:
        return f"{path}: line {linenos[k // width]}: step {k % width}"

    states = _label_ids(s_col, state_map, "s", "state", where)
    actions = _label_ids(a_col, action_map, "a", "action", where)
    rewards = _number_column(r_col, "r", where, np.isfinite, "must be finite")
    props = _number_column(p_col, "p", where, lambda p: (p > 0) & (p <= 1),
                           "propensity must lie in (0, 1]", nullable=True)
    shape = (len(linenos), width)
    return LoggedDataset(
        states=states.reshape(shape),
        actions=actions.reshape(shape),
        rewards=rewards.reshape(shape),
        propensities=None if None in p_col else props.reshape(shape),
    )


# ---------------------------------------------------------------------------
# Noisy-nuisance scenario: product with a reward-independent noise chain


def with_noise_states(mdp: TabularMdp, num_noise_states: int, seed: int = 0) -> TabularMdp:
    """Product MDP whose extra state dimension evolves independently of rewards.

    Product state ids are s * num_noise_states + z. Rewards and the reward-
    relevant dynamics depend only on s, so the value of any lifted policy is
    unchanged while every nuisance table has num_noise_states times as many
    rows to estimate.
    """
    if num_noise_states < 1:
        raise ValidationError("need at least one noise state")
    # The noise chain starts uniform; its transition rows are Dirichlet draws from ``seed``.
    rng = np.random.default_rng(seed)
    z_trans = rng.dirichlet(np.ones(num_noise_states), size=num_noise_states)
    big_s = mdp.num_states * num_noise_states
    initial = np.kron(mdp.initial_dist, np.full(num_noise_states, 1.0 / num_noise_states))
    transitions = np.empty((big_s, mdp.num_actions, big_s))
    for a in range(mdp.num_actions):
        transitions[:, a, :] = np.kron(mdp.transitions[:, a, :], z_trans)
    rewards = [
        [mdp.rewards[s][a] for a in range(mdp.num_actions)]
        for s in range(mdp.num_states)
        for _ in range(num_noise_states)
    ]
    return TabularMdp(
        num_states=big_s,
        num_actions=mdp.num_actions,
        horizon=mdp.horizon,
        discount=mdp.discount,
        initial_dist=initial,
        transitions=transitions,
        rewards=rewards,
    )


def lift_policy(policy: Policy, num_noise_states: int) -> Policy:
    """Lift a base-state policy to the noise-product state space (ignores z)."""
    return Policy(table=np.repeat(policy.table, num_noise_states, axis=0))


# ---------------------------------------------------------------------------
# Single-dataset evaluation


def check_estimator_names(names, where: str = "estimators") -> None:
    """Reject an empty list, an unknown name and a repeated name; ``where`` names
    the key or flag the list came from."""
    if not names:
        raise ValidationError(f"{where}: name at least one estimator")
    for k, name in enumerate(names):
        if name not in [e.value for e in Estimator]:
            raise ValidationError(f"unknown estimator '{name}'")
        if name in names[:k]:
            raise ValidationError(f"{where}: estimator '{name}' is given more than once")


def evaluate_dataset(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    estimators: tuple[str, ...],
    rng: np.random.Generator,
    known_behavior: Policy | None = None,
    k_folds: int = 2,
    config: NuisanceConfig = NuisanceConfig(),
    level: float = 0.95,
) -> dict[str, ValueEstimate]:
    """Run the named estimators on one logged dataset.

    DM and DR-full use the full-data nuisance fit, which is built once; IPW
    uses the known behavior policy if supplied, else that fit's behavior
    estimate. State and action ids must lie inside the evaluation and known
    behavior policy tables.
    """
    check_estimator_names(estimators)
    check_ids(data, eval_policy, "evaluation")
    if known_behavior is not None:
        check_ids(data, known_behavior, "behavior")

    @functools.cache
    def full():
        return fit_nuisance(data, eval_policy, discount, known_behavior=known_behavior,
                            config=config)

    run = {
        Estimator.DM: lambda: dm_estimate(data, full(), eval_policy, level=level),
        Estimator.IPW: lambda: ipw_estimate(data, known_behavior or full().behavior, eval_policy,
                                            discount, level=level),
        Estimator.DR_FULL: lambda: dr_full_estimate(data, full(), eval_policy, discount,
                                                    level=level),
        Estimator.DR_HALF: lambda: dr_half_estimate(data, eval_policy, discount, rng, level=level,
                                                    known_behavior=known_behavior, config=config),
        Estimator.DML: lambda: dml_estimate(data, eval_policy, discount, rng, k_folds=k_folds,
                                            known_behavior=known_behavior, config=config,
                                            level=level),
    }
    return {name: run[name]() for name in estimators}


# ---------------------------------------------------------------------------
# MSE experiment


@dataclass(frozen=True)
class ExperimentConfig:
    mdp: TabularMdp
    behavior_policy: Policy
    evaluation_policy: Policy
    n_trajectories: int
    replications: int
    estimators: tuple = (Estimator.DML.value,)
    k_folds: int = 2
    seed: int = 0
    discount: float | None = None  # defaults to the MDP's discount
    level: float = 0.95
    behavior_known: bool = False
    nuisance: NuisanceConfig = field(default_factory=NuisanceConfig)
    noise_states: int = 0
    noise_seed: int = 0
    ground_truth_method: str = "dp_exact"  # or "on_policy_rollout"
    ground_truth_n: int = 100_000
    ground_truth_seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        if self.n_trajectories < self.k_folds:
            raise ValidationError("n_trajectories must be >= k_folds")
        if self.discount is not None and not 0.0 <= self.discount <= 1.0:
            raise ValidationError(f"experiment config: 'discount' must lie in [0, 1], "
                                  f"got {self.discount!r}")
        if self.noise_states < 0:
            raise ValidationError(f"noise_states: 'count' must be >= 0, got {self.noise_states}")
        check_estimator_names(self.estimators, "experiment config: 'estimators'")
        if self.ground_truth_method not in ("dp_exact", "on_policy_rollout"):
            raise ValidationError("ground_truth method must be dp_exact or on_policy_rollout")

    @property
    def effective_discount(self) -> float:
        return self.mdp.discount if self.discount is None else self.discount


def _load_component(obj: dict, key: str, base: Path, loader, inline_loader):
    """``obj[key]`` as a path relative to ``base`` or as an inline object."""
    value = obj.get(key)
    if isinstance(value, str):
        return loader(base / value)
    if isinstance(value, dict):
        return inline_loader(value)
    raise ValidationError(f"{key} must be a path or an inline object")


def experiment_config_from_dict(obj: dict, base_dir: Path | None = None) -> ExperimentConfig:
    where = "experiment config"
    check_keys(obj, {"mdp", "behavior_policy", "evaluation_policy", "n_trajectories",
                     "replications", "estimators", "seed", "discount", "level", "nuisance",
                     "noise_states", "ground_truth"}, where)
    base = base_dir or Path(".")
    mdp = _load_component(obj, "mdp", base, load_mdp, mdp_from_dict)
    behavior, evaluation = (_load_component(obj, key, base, load_policy, policy_from_dict)
                            for key in ("behavior_policy", "evaluation_policy"))
    nuisance_obj = obj.get("nuisance", {})
    check_keys(nuisance_obj, {"k_folds", "smoothing_alpha", "behavior_policy"}, "nuisance config")
    behavior_mode = nuisance_obj.get("behavior_policy", "estimated")
    if behavior_mode not in ("known", "estimated"):
        raise ValidationError("nuisance.behavior_policy must be 'known' or 'estimated'")
    gt = obj.get("ground_truth", {"method": "dp_exact"})
    check_keys(gt, {"method", "n", "seed"}, "ground_truth")
    noise = obj.get("noise_states", {})
    check_keys(noise, {"count", "seed"}, "noise_states")
    estimators = obj.get("estimators", [Estimator.DML.value])
    if not isinstance(estimators, list):
        raise ValidationError(f"{where}: 'estimators' must be an array of estimator names, "
                              f"got {json.dumps(estimators)}")
    return ExperimentConfig(
        mdp=mdp,
        behavior_policy=behavior,
        evaluation_policy=evaluation,
        n_trajectories=json_field(obj, "n_trajectories", where, int),
        replications=json_field(obj, "replications", where, int),
        estimators=tuple(estimators),
        k_folds=json_field(nuisance_obj, "k_folds", "nuisance config", int, 2),
        seed=json_field(obj, "seed", where, int, 0),
        discount=json_field(obj, "discount", where, float, None),
        level=json_field(obj, "level", where, float, 0.95),
        behavior_known=(behavior_mode == "known"),
        nuisance=NuisanceConfig(
            smoothing_alpha=json_field(nuisance_obj, "smoothing_alpha", "nuisance config",
                                       default=0.5),
        ),
        noise_states=json_field(noise, "count", "noise_states", int, 0),
        noise_seed=json_field(noise, "seed", "noise_states", int, 0),
        ground_truth_method=gt.get("method", "dp_exact"),
        ground_truth_n=json_field(gt, "n", "ground_truth", int, 100_000),
        ground_truth_seed=json_field(gt, "seed", "ground_truth", int, 0),
    )


@dataclass(frozen=True)
class EstimatorMse:
    estimator: str
    mse: float
    se_of_mse: float | None
    bias: float
    variance: float
    replications: int


@dataclass(frozen=True)
class MseReport:
    ground_truth: float
    ground_truth_method: str
    replications: int
    n_trajectories: int
    results: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _scenario(config: ExperimentConfig) -> tuple[TabularMdp, Policy, Policy]:
    mdp, behavior, evaluation = config.mdp, config.behavior_policy, config.evaluation_policy
    if config.noise_states > 0:
        mdp = with_noise_states(mdp, config.noise_states, config.noise_seed)
        behavior = lift_policy(behavior, config.noise_states)
        evaluation = lift_policy(evaluation, config.noise_states)
    return mdp, behavior, evaluation


def _run_replications(config: ExperimentConfig, seeds: list) -> list[dict[str, float]]:
    """The estimates of each replication in ``seeds``, in order, on one scenario build."""
    mdp, behavior, evaluation = _scenario(config)
    known = behavior if config.behavior_known else None
    rows = []
    for seed_seq in seeds:
        child = seed_seq.spawn(len(config.estimators) + 1)
        data = sample_dataset(mdp, behavior, config.n_trajectories, np.random.default_rng(child[0]))
        rows.append({
            name: evaluate_dataset(
                data, evaluation, config.effective_discount, (name,),
                np.random.default_rng(child[j + 1]), known_behavior=known,
                k_folds=config.k_folds, config=config.nuisance, level=config.level,
            )[name].value
            for j, name in enumerate(config.estimators)
        })
    return rows


def ground_truth_value(config: ExperimentConfig) -> float:
    """The evaluation policy's value at the discount the estimators use."""
    mdp, _, evaluation = _scenario(config)
    if config.ground_truth_method == "dp_exact":
        return exact_policy_value(dataclasses.replace(mdp, discount=config.effective_discount),
                                  evaluation)
    rng = np.random.default_rng(config.ground_truth_seed)
    rollout = sample_dataset(mdp, evaluation, config.ground_truth_n, rng)
    disc = config.effective_discount ** np.arange(mdp.horizon + 1)
    return float((rollout.rewards * disc).sum(axis=1).mean())


def run_mse_experiment(config: ExperimentConfig) -> MseReport:
    """Ground truth, then per-replication fresh datasets and estimator runs."""
    threads = os.environ.get("OPE_DML_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        raise ValidationError(f"OPE_DML_THREADS must be an integer, got {threads!r}") from None
    truth = ground_truth_value(config)
    reps = config.replications
    seeds = np.random.SeedSequence(config.seed).spawn(reps)
    if workers <= 1:
        rows = _run_replications(config, seeds)
    else:
        blocks = min(workers, reps)
        bounds = [i * reps // blocks for i in range(blocks + 1)]
        with ProcessPoolExecutor(max_workers=blocks) as pool:
            block_rows = pool.map(_run_replications, [config] * blocks,
                                  [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
            rows = [row for block in block_rows for row in block]
    results = {}
    for name in config.estimators:
        estimates = np.array([row[name] for row in rows])
        errors_sq = (estimates - truth) ** 2
        mse = float(errors_sq.mean())
        se = float(errors_sq.std(ddof=1) / np.sqrt(reps)) if reps > 1 else None
        results[name] = EstimatorMse(
            estimator=name,
            mse=mse,
            se_of_mse=se,
            bias=float(estimates.mean() - truth),
            variance=float(estimates.var()),
            replications=reps,
        )
    return MseReport(
        ground_truth=truth,
        ground_truth_method=config.ground_truth_method,
        replications=reps,
        n_trajectories=config.n_trajectories,
        results=results,
    )


# ---------------------------------------------------------------------------
# Relative-RMSE metric


@dataclass(frozen=True)
class CampaignBatchCell:
    """One campaign-batch comparison of an off-policy estimate to its ground truth."""

    campaign: str
    batch: str
    estimate: float
    actual: float
    n_impressions: float
    ope_variance: float | None = None
    n_ope: float | None = None
    online_variance: float | None = None

    def __post_init__(self):
        if self.n_impressions <= 0:
            raise ValidationError("n_impressions must be positive")
        if self.actual == 0:
            raise ValidationError("actual value must be nonzero for relative normalization")
        for name in ("ope_variance", "online_variance"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ValidationError(f"cell: '{name}' must be >= 0, got {getattr(self, name)}")
        if self.n_ope is not None and self.n_ope <= 0:
            raise ValidationError(f"cell: 'n_ope' must be positive, got {self.n_ope}")


def cell_from_dict(obj: dict) -> CampaignBatchCell:
    check_keys(obj, {"campaign", "batch", "estimate", "actual", "n_impressions",
                     "ope_variance", "n_ope", "online_variance"}, "cell")
    return CampaignBatchCell(
        campaign=json_field(obj, "campaign", "cell", str),
        batch=json_field(obj, "batch", "cell", str),
        estimate=json_field(obj, "estimate", "cell"),
        actual=json_field(obj, "actual", "cell"),
        n_impressions=json_field(obj, "n_impressions", "cell"),
        ope_variance=json_field(obj, "ope_variance", "cell", default=None),
        n_ope=json_field(obj, "n_ope", "cell", default=None),
        online_variance=json_field(obj, "online_variance", "cell", default=None),
    )


def relative_rmse(cells: list[CampaignBatchCell]) -> float:
    """Impression-weighted RMS of the relative prediction errors."""
    if not cells:
        raise ValidationError("need at least one cell")
    weights = np.array([c.n_impressions for c in cells])
    rel = np.array([(c.estimate - c.actual) / c.actual for c in cells])
    return float(np.sqrt((weights * rel**2).sum() / weights.sum()))


def relative_rmse_se(
    cells: list[CampaignBatchCell],
    rng: np.random.Generator,
    sims: int = 100_000,
) -> float:
    """Simulation standard error of relative-RMSE under normal approximations.

    Both simulated draws per cell are centered at the off-policy estimate: the
    estimate draw uses its estimated asymptotic variance, the actual draw uses
    the online variance (defaulting to the binary-reward value actual*(1-actual)).
    """
    if sims < 1:
        raise ValidationError("sims must be >= 1")
    for c in cells:
        if c.ope_variance is None or c.n_ope is None:
            raise ValidationError("every cell needs ope_variance and n_ope")
    est = np.array([c.estimate for c in cells])
    weights = np.array([c.n_impressions for c in cells])
    sd_ope = np.sqrt([c.ope_variance / c.n_ope for c in cells])
    online_var = np.array([
        c.actual * (1.0 - c.actual) if c.online_variance is None else c.online_variance
        for c in cells
    ])
    if np.any(online_var < 0):
        raise ValidationError("cell: the default 'online_variance', actual*(1-actual), "
                              "needs 'actual' in [0, 1]")
    sd_online = np.sqrt(online_var / weights)
    est_sim = est + rng.standard_normal((sims, len(cells))) * sd_ope
    actual_sim = est + rng.standard_normal((sims, len(cells))) * sd_online
    rel = (est_sim - actual_sim) / actual_sim
    rr = np.sqrt((weights * rel**2).sum(axis=1) / weights.sum())
    return float(rr.std())
