"""The index dtypes of the estimation kernels. The cell index, the move build
and the fold members are int32 while the stacked tables fit below
``nuisance.INDEX_LIMIT``, and int64 past it; both give the same bytes. Every move
pair, ``make_folds`` and ``LoggedDataset.cells`` stay int64."""
import dataclasses
import json

import numpy as np
import pytest

from dml_ope import Estimator, Policy, evaluate_dataset, make_folds, sample_dataset
from dml_ope import experiments, nuisance
from dml_ope.estimators import _cells
from dml_ope.experiments import experiment_config_from_dict
from dml_ope.nuisance import _count, _folds, _merge

from helpers import NOISY_CONFIG, noisy_lift

ROUTES = {"sorted": 0, "dense": 2**62}


def lift_rows(n, seed):
    """The lift, its two policies and n rows sampled under its behavior policy."""
    mdp, behavior, evaluation = noisy_lift()
    data = sample_dataset(mdp, behavior, n, np.random.default_rng(seed))
    return mdp, behavior, evaluation, data


def report(known: bool) -> str:
    """All five estimates at k=5 on 2,000 rows of the lift, as exact JSON."""
    mdp, behavior, evaluation, data = lift_rows(2000, 5)
    results = evaluate_dataset(data, evaluation, mdp.discount, tuple(e.value for e in Estimator),
                               np.random.default_rng(6),
                               known_behavior=behavior if known else None, k_folds=5)
    return json.dumps({name: est.to_dict() for name, est in results.items()})


def study_chunk() -> bytes:
    """The estimates of one stacked chunk of the MSE study: 8 replications of
    1,000 rows of the lift, all five estimators at k=3."""
    with open(NOISY_CONFIG) as fh:
        config = experiment_config_from_dict(json.load(fh), base_dir=NOISY_CONFIG.parent)
    config = dataclasses.replace(config, n_trajectories=1000, k_folds=3,
                                 estimators=tuple(e.value for e in Estimator))
    assert experiments.ROW_BUDGET // 1000 == 8
    truth, values = experiments._run_replications(config, range(8))
    return np.float64(truth).tobytes() + values.tobytes()


class TestIndexDtypes:
    def test_lift_indices_are_int32(self):
        _, _, evaluation, data = lift_rows(100, 3)
        assert _cells(data.states[None], data.actions[None], evaluation).dtype == np.int32
        assert all(fold.dtype == np.int32 for fold in _folds(100, 5, [np.random.default_rng(4)]))

    @pytest.mark.parametrize("known", [False, True], ids=["estimated", "known"])
    def test_int64_path_gives_the_int32_bytes(self, known, monkeypatch):
        int32 = report(known), study_chunk()
        monkeypatch.setattr(nuisance, "INDEX_LIMIT", 0)
        _, _, evaluation, data = lift_rows(100, 3)
        assert _cells(data.states[None], data.actions[None], evaluation).dtype == np.int64
        assert _folds(100, 5, [np.random.default_rng(4)])[0].dtype == np.int64
        assert (report(known), study_chunk()) == int32

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("limit", [nuisance.INDEX_LIMIT, 0], ids=["int32", "int64"])
    def test_move_pairs_stay_int64(self, route, limit, monkeypatch):
        monkeypatch.setattr(nuisance, "SORT_DIVISOR", ROUTES[route])
        monkeypatch.setattr(nuisance, "INDEX_LIMIT", limit)
        _, _, evaluation, data = lift_rows(300, 7)
        stacked = np.stack([data.states] * 3), np.stack([data.actions] * 3)
        sa = _cells(*stacked, evaluation)
        assert sa.dtype == (np.int32 if limit else np.int64)
        parts = [(part, np.zeros(part.shape)) for part in np.array_split(sa, 3, axis=1)]
        pairs = [_count(*part, evaluation)[1] for part in parts]
        # Each complement's pair as _cross_fits builds it: on the dense route, the
        # total of the three pairs less its own part's.
        complements = []
        monkeypatch.setattr(nuisance, "_fit", lambda tables, moves, *_: complements.append(moves))
        list(nuisance._cross_fits(parts, evaluation, 0.9, None, 0.5))
        assert len(complements) == 3
        for idx, counts in pairs + [_merge(tuple(pairs))] + complements:
            assert idx.dtype == np.int64 and counts.dtype == np.int64

    def test_public_indices_stay_int64(self):
        _, _, evaluation, data = lift_rows(100, 3)
        assert data.cells(evaluation, "evaluation").dtype == np.int64
        assert all(fold.dtype == np.int64 for fold in make_folds(100, 5, np.random.default_rng(4)))

    @pytest.mark.parametrize("num_states, dtype", [(32_767, np.int32), (32_768, np.int64)])
    def test_the_dtype_switches_at_the_limit(self, num_states, dtype):
        """With A=2 and R=1, the index is int32 while R*S*A*(S+1) < 2**31.

        At S = 32,767, R*S*A*(S+1) = 2,147,418,112 < 2**31 = 2,147,483,648, and
        ``_count``'s largest intermediate, R*S*A*S + R*S - 1 = 2,147,352,578 +
        32,766 = 2,147,385,344, is below 2**31 - 1, so no int32 value wraps. At
        S = 32,768, R*S*A*(S+1) = 2,147,549,184, so the index is int64.

        The rows pass through the cells (0, 0), (S-1, 1) and (0, 1), so the moves
        reach the last flat index S*A*S - 1. A few rows take the sorted route;
        the dense route's S*A*S int64 table would take 16 GiB.
        """
        top = num_states - 1
        states = np.array([[0, 0, top, top, 0]])
        actions = np.array([[0, 0, 1, 1, 1]])
        policy = Policy(table=np.full((num_states, 2), 0.5))
        sa = _cells(states[None], actions[None], policy)
        assert sa.dtype == dtype
        assert sa.tolist() == [[[0, 0, 2 * top + 1, 2 * top + 1, 1]]]
        (visits, _, _), (idx, counts) = _count(sa, np.zeros(sa.shape), policy)
        last = 2 * num_states * num_states - 1
        assert idx.dtype == np.int64 and counts.dtype == np.int64
        assert idx.tolist() == [0, top, last - top, last] and counts.tolist() == [1, 1, 1, 1]
        assert visits.sum() == 5
