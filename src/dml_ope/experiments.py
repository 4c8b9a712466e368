"""Monte Carlo MSE studies, the relative-RMSE metric with its simulation-based
standard error, dataset file I/O, and the noisy-nuisance scenario builder.

Replications draw independent random streams from a splittable seed sequence,
so results do not depend on execution order. With the OPE_DML_THREADS
environment variable above 1, the replications are split into one contiguous
block per worker process, at most one worker per CPU and per replication; each
block builds the scenario once, and the blocks' estimates fill one table in
order. A single block runs in the calling process.

A block runs its replications in chunks of ``max(1, ROW_BUDGET // max(n, S*A))``.
A chunk is sampled, counted, fitted and scored as one stack of (R, n, T+1) row
sets, each replication with its own generator, folds and estimator streams,
so every replication's estimates are those of ``evaluate_dataset`` on its
dataset. A replication's arrays are its rows, n per step, and its (S, A)
tables, S*A cells per step, so the budget bounds a chunk's arrays at
ROW_BUDGET cells per step, whatever n and S*A; a cross-fit complement merges
its move counts in one replication's S*A*S table at a time.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path

import numpy as np

from .estimators import Estimator, ValueEstimate, _estimate
from .mdp import (
    LoggedDataset,
    Policy,
    TabularMdp,
    ValidationError,
    _policy_value,
    _sample,
    check_at_least,
    check_finite_nonnegative,
    check_folds,
    check_keys,
    check_level,
    check_unit_interval,
    json_field,
    load_mdp,
    mdp_from_dict,
    read_json,
    sized_by,
)
from .nuisance import NuisanceConfig, check_table_shape

_INT64_MAX = np.iinfo(np.int64).max
# Rows, or table cells, per step of a chunk of stacked replications. A larger chunk
# spreads each numpy call's fixed cost over more replications; at 8,192 its arrays
# stay a few MiB (BENCH_stacked_replications.json probes 2^12 to 2^15).
ROW_BUDGET = 8192
_WRITE_BLOCK_ROWS = 4096
_STEP_KEYS = {"s", "a", "r"}


# ---------------------------------------------------------------------------
# Policy / dataset serialization


def policy_to_dict(policy: Policy) -> dict:
    return {"table": policy.table.tolist()}


def policy_from_dict(obj: dict) -> Policy:
    check_keys(obj, {"table"}, "policy spec")
    return Policy(table=json_field(obj, "table", "policy spec", np.ndarray))


def load_policy(path: str | Path) -> Policy:
    return read_json(path, policy_from_dict)


def _jsonl_blocks(states, actions, rewards, propensities):
    """Yield the lines of each block of ``_WRITE_BLOCK_ROWS`` rows, each json.dumps
    of its row's {"steps": [{"s", "a", "r", "p"}, ...]} object, ``p`` null without
    propensities: one join of a ``(rows, T+1, 9)`` array, kept across blocks, of the
    field texts between constant separators. A field's distinct values, floats told
    apart by their bits so that -0.0 and 0.0 keep their text, take one json.dumps."""
    fields = (states, actions, rewards, propensities)[:4 - (propensities is None)]
    pieces = np.empty((min(len(states), _WRITE_BLOCK_ROWS), states.shape[1], 9), dtype=object)
    pieces[:, :, 0::2] = ['}, {"s": ', ', "a": ', ', "r": ', ', "p": ', ""]
    pieces[:, 0, 0], pieces[:, -1, 8], pieces[:, :, 7] = '{"steps": [{"s": ', "}]}\n", "null"
    for start in range(0, len(states), _WRITE_BLOCK_ROWS):
        block = pieces[:len(states) - start]
        for k, col in enumerate(x[start:start + _WRITE_BLOCK_ROWS] for x in fields):
            distinct, inverse = np.unique(col.view(np.int64), return_inverse=True)
            texts = json.dumps(distinct.view(col.dtype).tolist())[1:-1].split(", ")
            block[:, :, 2 * k + 1] = np.array(texts, dtype=object)[inverse].reshape(col.shape)
        yield "".join(block.ravel().tolist())


def write_jsonl(data: LoggedDataset, path: str | Path) -> None:
    """Emit one {"steps": [{"s", "a", "r", "p"}, ...]} object per trajectory."""
    with open(path, "w") as fh:
        fh.writelines(_jsonl_blocks(data.states, data.actions, data.rewards, data.propensities))


def _first(values: list, bad) -> int:
    return next(k for k, x in enumerate(values) if bad(x))


def _label_ids(labels: list, field: str, kind: str, where) -> np.ndarray:
    """Map one label column to integer ids.

    JSON integers are their own ids and strings map to dense ids in sorted
    order. Booleans, other numbers and a column mixing integers with strings
    are rejected.
    """
    types = set(map(type, labels))
    if not types <= {int, str}:
        k = _first(labels, lambda x: type(x) not in (int, str))
        raise ValidationError(
            f"{where(k)}: '{field}' must be an integer or string {kind} label, "
            f"got {json.dumps(labels[k])}"
        )
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


def _text_lines(path: str | Path):
    """The lines of the UTF-8 text file at ``path``; a directory, or bytes that
    are not UTF-8, raise a ValidationError that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _decode(tokens: list, convert, dtype) -> np.ndarray:
    """``tokens`` as an array of ``dtype``, each distinct token converted once."""
    lookup = dict(zip(dict.fromkeys(tokens), count()))
    values = np.array(list(map(convert, lookup)), dtype=dtype)
    return values.take(np.fromiter(map(lookup.__getitem__, tokens), np.intp, len(tokens)))


def _canonical_block(text: bytes, lines: int) -> tuple | None:
    """The arrays of ``text``, ``lines`` lines, if it is their ``_jsonl_blocks`` and
    they pass ``_ingest_lines``'s value rules; else None, or a ValueError or
    OverflowError. Without ``{}[]":,`` a step is the tokens ``s S a A r R p P``."""
    tokens = text.replace(b'{"steps": [', b"").translate(None, b'{}[]":,').split()
    width, rest = divmod(len(tokens), 8 * lines)
    r, p = tokens[5::8], tokens[7::8]
    distinct = len(set(r)) + len(set(p))  # past a third of the floats, json.loads is faster
    if rest or not width or distinct > 1000 and 3 * distinct > 2 * len(r):
        return None
    s, a = (_decode(tokens[k::8], int, np.int64) for k in (1, 3))
    r = _decode(r, float, float)
    p = None if p.count(b"null") == len(p) else _decode(p, float, float)
    arrays = tuple(x if x is None else x.reshape(lines, width) for x in (s, a, r, p))
    valid = (min(s.min(), a.min()) >= 0 and np.isfinite(r).all()
             and (p is None or np.all((p > 0) & (p <= 1))))
    return arrays if valid and next(_jsonl_blocks(*arrays)).encode() == text else None


def ingest_jsonl(path: str | Path) -> LoggedDataset:
    """Read a trajectory-per-line JSONL file into a LoggedDataset.

    A regular file of ``_canonical_block``s of ``_WRITE_BLOCK_ROWS`` lines, as
    write_jsonl writes, is read at numpy speed; any other file, from its first
    line, by ``_ingest_lines``, which gives the same arrays and raises every error.
    """
    if not os.path.isfile(path):
        return _ingest_lines(path)  # a pipe could not be read twice
    blocks, columns = [], None
    try:
        with open(path, "rb") as fh:
            while None not in blocks and (lines := list(islice(fh, _WRITE_BLOCK_ROWS))):
                blocks.append(_canonical_block(b"".join(lines), len(lines)))
        if blocks and None not in blocks:  # two widths fail to concatenate
            columns = [None if any(x is None for x in col) else np.concatenate(col)
                       for col in zip(*blocks)]
    except (OSError, ValueError, OverflowError):
        pass
    return _ingest_lines(path) if columns is None else LoggedDataset(*columns)


def _ingest_lines(path: str | Path) -> LoggedDataset:
    """``ingest_jsonl`` of any JSONL file, one ``json.loads`` per line. Steps are
    gathered into flat per-field lists, checked column by column and reshaped to
    (N, T+1) once. String state/action labels map to dense ids in sorted label
    order, separately for states and actions. Horizons must be uniform;
    propensities are kept only if every step of every trajectory carries one.
    Errors name the file, line, step and field.
    """
    s_col, a_col, r_col, p_col = [], [], [], []
    lengths, linenos = [], []
    for lineno, line in enumerate(_text_lines(path), start=1):
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

    states = _label_ids(s_col, "s", "state", where)
    actions = _label_ids(a_col, "a", "action", where)
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
    check_at_least(num_noise_states, 1, "num_noise_states")
    # The noise chain starts uniform; its transition rows are Dirichlet draws from ``seed``.
    rng = np.random.default_rng(seed)
    z_trans = rng.dirichlet(np.ones(num_noise_states), size=num_noise_states)
    big_s = mdp.num_states * num_noise_states
    initial = np.kron(mdp.initial_dist, np.full(num_noise_states, 1.0 / num_noise_states))
    transitions = np.empty((big_s, mdp.num_actions, big_s))
    for a in range(mdp.num_actions):
        transitions[:, a, :] = np.kron(mdp.transitions[:, a, :], z_trans)
    return TabularMdp(
        num_states=big_s,
        num_actions=mdp.num_actions,
        horizon=mdp.horizon,
        discount=mdp.discount,
        initial_dist=initial,
        transitions=transitions,
        reward_support=np.repeat(mdp.reward_support, num_noise_states, axis=0),
        reward_probs=np.repeat(mdp.reward_probs, num_noise_states, axis=0),
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
            raise ValidationError(f"{where}: unknown estimator '{name}'")
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
    """Run the named estimators on one logged dataset: the one-replication case of
    the stacked kernels that run the MSE study.

    The ids are checked once per table. DM and DR-full use the full-data nuisance
    fit, built once; IPW uses the known behavior policy if supplied, else that
    fit's behavior, and shares DR-full's step walk. DML runs last, and the full
    cell index is released once its folds' cell indices are gathered, before they
    are fitted. ``rng`` spawns one child per member of ``Estimator``, in
    that order, and DR-half and DML draw their fold splits from their own child,
    so no estimate depends on which other estimators are named or on the order in
    which they run. ``discount`` must lie in [0, 1], ``level`` in (0, 1) and
    ``k_folds`` in [2, data.n], even if no named estimator splits folds, state and
    action ids inside the evaluation and known behavior policy tables, and the two
    tables alike in shape; all are checked before any fit.
    """
    check_estimator_names(estimators)
    check_unit_interval(discount, "discount")
    check_level(level, "level")
    check_folds(k_folds, data.n, "k_folds")
    data.check_ids(eval_policy, "evaluation")
    if known_behavior is not None:
        data.check_ids(known_behavior, "behavior")
        check_table_shape(known_behavior.table.shape, eval_policy, "behavior policy")
    columns = data.states[None], data.actions[None], data.rewards[None]
    rngs = {e: [child] for e, child in zip(Estimator, rng.spawn(len(Estimator)))}
    results = _estimate(columns, rngs, estimators, eval_policy, discount, known_behavior,
                        k_folds, config, level)
    return {name: estimates[0] for name, estimates in results.items()}


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

    def __post_init__(self):
        check_at_least(self.replications, 1, "experiment config: 'replications'")
        check_at_least(self.k_folds, 2, "nuisance config: 'k_folds'")
        if self.n_trajectories < self.k_folds:
            raise ValidationError(f"experiment config: 'n_trajectories' must be >= k_folds "
                                  f"({self.k_folds}), got {self.n_trajectories}")
        if self.discount is not None:
            check_unit_interval(self.discount, "experiment config: 'discount'")
        check_level(self.level, "experiment config: 'level'")
        check_at_least(self.noise_states, 0, "noise_states: 'count'")
        check_at_least(self.seed, 0, "experiment config: 'seed'")
        check_at_least(self.noise_seed, 0, "noise_states: 'seed'")
        check_estimator_names(self.estimators, "experiment config: 'estimators'")
        # Against the config's own MDP, before the noise-state lift.
        for key in ("behavior_policy", "evaluation_policy"):
            self.mdp.check_policy(getattr(self, key), f"experiment config: '{key}'")

    @property
    def effective_discount(self) -> float:
        return self.mdp.discount if self.discount is None else self.discount


def _load_component(obj: dict, key: str, base: Path, loader, inline_loader):
    """``obj[key]`` as a path relative to ``base`` or as an inline object."""
    value = obj.get(key)
    if isinstance(value, str):
        path = base / value
        try:
            return loader(path)
        except FileNotFoundError:
            raise ValidationError(f"experiment config: '{key}': no file at {path}") from None
    if isinstance(value, dict):
        return inline_loader(value)
    raise ValidationError(f"{key} must be a path or an inline object")


def experiment_config_from_dict(obj: dict, base_dir: Path | None = None) -> ExperimentConfig:
    where = "experiment config"
    check_keys(obj, {"mdp", "behavior_policy", "evaluation_policy", "n_trajectories",
                     "replications", "estimators", "seed", "discount", "level", "nuisance",
                     "noise_states"}, where)
    nuisance_obj = obj.get("nuisance", {})
    check_keys(nuisance_obj, {"k_folds", "smoothing_alpha", "behavior_policy"}, "nuisance config")
    behavior_mode = nuisance_obj.get("behavior_policy", "estimated")
    if behavior_mode not in ("known", "estimated"):
        raise ValidationError("nuisance.behavior_policy must be 'known' or 'estimated'")
    noise = obj.get("noise_states", {})
    check_keys(noise, {"count", "seed"}, "noise_states")
    # The seeds and the smoothing are checked before any MDP or policy file is read.
    seed = json_field(obj, "seed", where, int, 0)
    check_at_least(seed, 0, f"{where}: 'seed'")
    alpha = json_field(nuisance_obj, "smoothing_alpha", "nuisance config", default=0.5)
    check_finite_nonnegative(alpha, "nuisance config: 'smoothing_alpha'")
    noise_seed = json_field(noise, "seed", "noise_states", int, 0)
    check_at_least(noise_seed, 0, "noise_states: 'seed'")
    base = base_dir or Path(".")
    mdp = _load_component(obj, "mdp", base, load_mdp, mdp_from_dict)
    behavior, evaluation = (_load_component(obj, key, base, load_policy, policy_from_dict)
                            for key in ("behavior_policy", "evaluation_policy"))
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
        seed=seed,
        discount=json_field(obj, "discount", where, float, None),
        level=json_field(obj, "level", where, float, 0.95),
        behavior_known=(behavior_mode == "known"),
        nuisance=NuisanceConfig(smoothing_alpha=alpha),
        noise_states=json_field(noise, "count", "noise_states", int, 0),
        noise_seed=noise_seed,
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
    replications: int
    n_trajectories: int
    results: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _scenario(config: ExperimentConfig) -> tuple[TabularMdp, Policy, Policy]:
    mdp, behavior, evaluation = config.mdp, config.behavior_policy, config.evaluation_policy
    if config.noise_states > 0:
        with sized_by(config.noise_states, "noise_states: 'count'"):
            mdp = with_noise_states(mdp, config.noise_states, config.noise_seed)
        behavior = lift_policy(behavior, config.noise_states)
        evaluation = lift_policy(evaluation, config.noise_states)
    return mdp, behavior, evaluation


def _child(seed: np.random.SeedSequence, key: int) -> np.random.Generator:
    """The generator of ``seed``'s child ``key``: that of its ``key``-th spawn."""
    return np.random.default_rng(np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key + (key,), pool_size=seed.pool_size))


def _run_replications(config: ExperimentConfig, seeds: list) -> np.ndarray:
    """The (estimators, replications) estimates of ``seeds``, on one scenario build.

    The replications run in chunks of ``max(1, ROW_BUDGET // max(n, S*A))``: a
    chunk is sampled, fitted and scored as one stack of (R, n, T+1) row sets, and
    a replication's estimates are those ``evaluate_dataset`` gives its dataset.
    """
    mdp, behavior, evaluation = _scenario(config)
    known = behavior if config.behavior_known else None
    n = config.n_trajectories
    chunk = max(1, ROW_BUDGET // max(n, evaluation.table.size))
    values = np.empty((len(config.estimators), len(seeds)))
    # A replication samples from child 0 of its seed, and the estimator in place e of
    # Estimator splits its folds from child 1 + e, as evaluate_dataset's spawn
    # numbers them; only the children that draw are built.
    drawing = {e: 1 + list(Estimator).index(e) for e in (Estimator.DR_HALF, Estimator.DML)
               if e.value in config.estimators}
    for start in range(0, len(seeds), chunk):
        block = seeds[start:start + chunk]
        with sized_by(n, "experiment config: 'n_trajectories'"):
            *columns, _ = _sample(mdp, behavior, n, [_child(seed, 0) for seed in block])
        rngs = {e: [_child(seed, key) for seed in block] for e, key in drawing.items()}
        results = _estimate(columns, rngs, config.estimators, evaluation,
                            config.effective_discount, known, config.k_folds, config.nuisance,
                            config.level)
        values[:, start:start + chunk] = [[e.value for e in results[name]]
                                          for name in config.estimators]
    return values


def ground_truth_value(config: ExperimentConfig) -> float:
    """The evaluation policy's exact value on the scenario at the estimators' discount."""
    mdp, _, evaluation = _scenario(config)
    return _policy_value(mdp, evaluation, config.effective_discount)


def run_mse_experiment(config: ExperimentConfig) -> MseReport:
    """Ground truth, then per-replication fresh datasets and estimator runs."""
    threads = os.environ.get("OPE_DML_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        raise ValidationError(f"OPE_DML_THREADS must be an integer, got {threads!r}") from None
    reps = config.replications
    # The estimates' table is allocated before the seed list, which grows with reps.
    with sized_by(reps, "experiment config: 'replications'"):
        estimates = np.empty((len(config.estimators), reps))
    truth = ground_truth_value(config)
    seeds = np.random.SeedSequence(config.seed).spawn(reps)
    blocks = min(max(workers, 1), reps, os.cpu_count() or 1)
    if blocks == 1:
        estimates[:] = _run_replications(config, seeds)
    else:
        bounds = [i * reps // blocks for i in range(blocks + 1)]
        with ProcessPoolExecutor(max_workers=blocks) as pool:
            done = pool.map(_run_replications, [config] * blocks,
                            [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
            for lo, hi, block in zip(bounds, bounds[1:], done):
                estimates[:, lo:hi] = block
    results = {}
    for name, column in zip(config.estimators, estimates):
        errors_sq = (column - truth) ** 2
        mse = float(errors_sq.mean())
        se = float(errors_sq.std(ddof=1) / np.sqrt(reps)) if reps > 1 else None
        results[name] = EstimatorMse(
            estimator=name,
            mse=mse,
            se_of_mse=se,
            bias=float(column.mean() - truth),
            variance=float(column.var()),
            replications=reps,
        )
    return MseReport(
        ground_truth=truth,
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
            if getattr(self, name) is not None:
                check_at_least(getattr(self, name), 0, f"cell: '{name}'")
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
    weights = np.array([c.n_impressions for c in cells], dtype=float)
    weights /= weights.max()  # so that the sums cannot overflow
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
    check_at_least(sims, 1, "sims")
    for c in cells:
        if c.ope_variance is None or c.n_ope is None:
            raise ValidationError("every cell needs ope_variance and n_ope")
    est = np.array([c.estimate for c in cells])
    weights = np.array([c.n_impressions for c in cells], dtype=float)
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
    weights /= weights.max()  # so that the sums cannot overflow
    rr = np.sqrt((weights * rel**2).sum(axis=1) / weights.sum())
    return float(rr.std())
