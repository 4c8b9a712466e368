import dataclasses
import hashlib
import inspect
import os
import re

import numpy as np
import pytest

import dml_ope
from dml_ope import (
    Estimator,
    ExperimentConfig,
    LoggedDataset,
    NuisanceEstimate,
    Policy,
    SupportViolationError,
    ValidationError,
    ValueEstimate,
    cb_efficiency_bound,
    dm_estimate,
    dml_estimate,
    dr_full_estimate,
    dr_half_estimate,
    evaluate_dataset,
    exact_policy_value,
    fit_nuisance,
    fit_nuisances,
    ipw_estimate,
    make_folds,
    mean_reward_table,
    q_recursion,
    sample_dataset,
    write_jsonl,
)
from dml_ope import estimators
from dml_ope.estimators import _control, _finalize, _psi_scores, _ratios, _walk

from helpers import (
    bandit_mdp,
    bandit_policies,
    bernoulli,
    digest,
    noisy_lift,
    one_row,
    random_mdp,
    random_policy,
    select,
    three_state_mdp,
    three_state_policies,
    true_nuisance,
)


def psi(data, behavior, q, evaluation, discount):
    """``_psi_scores`` of every row of ``data``, whose cell index reads
    ``evaluation``'s table."""
    return _psi_scores(data.cells(evaluation, "evaluation"), data.rewards, behavior, q,
                       evaluation, discount)


def zero_q_nuisance(behavior, horizon):
    shape = (horizon + 1,) + behavior.table.shape
    return NuisanceEstimate(behavior, np.zeros(shape))


class TestImportanceWeights:
    @staticmethod
    def weights(row, evaluation, behavior):
        """The (1, T+1) weights rho_t of the 1-row ``row``: rho_t is the IPW score at
        discount 1 of its trajectory with the one nonzero reward 1.0 at step t."""
        steps = row.horizon + 1
        rows = LoggedDataset(states=np.repeat(row.states, steps, axis=0),
                             actions=np.repeat(row.actions, steps, axis=0),
                             rewards=np.eye(steps))
        return psi(rows, behavior, None, evaluation, 1.0)[None]

    def test_identity_weights(self):
        row = one_row(states=[0, 1], actions=[0, 1], rewards=[0.0, 0.0])
        policy = Policy(table=[[0.3, 0.7], [0.6, 0.4]])
        assert np.allclose(self.weights(row, policy, policy)[0], [1.0, 1.0], atol=1e-15)

    def test_uniform_behavior_doubling(self):
        row = one_row(states=[0, 0], actions=[1, 1], rewards=[0.0, 0.0])
        behavior = Policy(table=[[0.5, 0.5]])
        evaluation = Policy(table=[[0.0, 1.0]])
        assert self.weights(row, evaluation, behavior)[0].tolist() == [2.0, 4.0]

    def test_zero_eval_mass_zeroes_weights(self):
        row = one_row(states=[0, 0], actions=[0, 1], rewards=[0.0, 0.0])
        behavior = Policy(table=[[0.5, 0.5]])
        evaluation = Policy(table=[[0.0, 1.0]])
        assert self.weights(row, evaluation, behavior)[0].tolist() == [0.0, 0.0]

    def test_zero_behavior_propensity_raises(self):
        row = one_row(states=[0], actions=[1], rewards=[0.0])
        behavior = Policy(table=[[1.0, 0.0]])
        evaluation = Policy(table=[[0.5, 0.5]])
        with pytest.raises(SupportViolationError):
            self.weights(row, evaluation, behavior)

    def test_support_violation_is_a_validation_error(self):
        # A zero propensity where the evaluation policy has mass is bad input.
        assert issubclass(SupportViolationError, ValidationError)
        assert issubclass(SupportViolationError, ValueError)


class TestScores:
    def test_zero_q_reduces_to_ipw(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 200, np.random.default_rng(1))
        eta = zero_q_nuisance(behavior, mdp.horizon)
        assert np.array_equal(psi(data, behavior, eta.q, evaluation, 0.9),
                              psi(data, behavior, None, evaluation, 0.9))

    def test_hand_evaluated_bandit_score(self):
        # rho_0 = 0.9 / 0.45 = 2, R = 1, q(taken) = 0.5, sum_a pi_e q = 0.6
        row = one_row(states=[0], actions=[0], rewards=[1.0])
        eta = NuisanceEstimate(Policy(table=[[0.45, 0.55]]), [[[0.5, 1.5]]])
        evaluation = Policy(table=[[0.9, 0.1]])
        score = psi(row, eta.behavior, eta.q, evaluation, 1.0)
        assert score[0] == pytest.approx(1.6, abs=1e-12)
        # The one-step Q table cannot score a two-step row.
        two_steps = one_row(states=[0, 0], actions=[0, 0], rewards=[1.0, 1.0])
        with pytest.raises(ValidationError, match="q table does not span the dataset horizon"):
            psi(two_steps, eta.behavior, eta.q, evaluation, 1.0)

    def test_ipw_identity_policy_gives_return(self):
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 20, np.random.default_rng(5))
        disc = 0.9 ** np.arange(3)
        for i in range(20):
            expected = float((data.rewards[i] * disc).sum())
            assert psi(select(data, [i]), behavior, None, behavior, 0.9)[0] == pytest.approx(
                expected, abs=1e-12
            )

    def test_ipw_direct_sum(self):
        row = one_row(states=[0, 0], actions=[1, 1], rewards=[1.0, 1.0])
        behavior = Policy(table=[[0.5, 0.5]])
        evaluation = Policy(table=[[0.0, 1.0]])
        score = psi(row, behavior, None, evaluation, 1.0)
        assert score[0] == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("control, expected", [
        ("dr", "55dd1289fb3b173b30e80f51246dc4fef80d4664138628c0ddbe46bf135ecfdd"),
        ("ipw", "62edb9081b5a62b7d496de1dbd8926b54e43f72273b2b161a08035fea5b0199d"),
    ])
    def test_lift_score_digests(self, control, expected):
        # The scores of 2000 rows on the 240-state lift, pinned to the last bit:
        # with 480 cells a mis-strided table index shows, as it cannot on 6.
        mdp, behavior, evaluation = noisy_lift()
        data = sample_dataset(mdp, behavior, 2000, np.random.default_rng(5))
        eta = fit_nuisance(data, evaluation, mdp.discount)
        q = eta.q if control == "dr" else None
        scores = psi(data, eta.behavior, q, evaluation,
                             mdp.discount)
        assert hashlib.sha256(scores.astype("<f8").tobytes()).hexdigest() == expected


class TestLiftDigests:
    """Each public estimator's report, the cross-fitted Q tables and the exact Q
    recursion on 3,000 rows of the 240-state lift, pinned to the last bit."""

    DIGESTS = {
        "dm": "379fe56b5d7c45359e6519a54e6d1b98aa701e99192569ccd839645e5c0d9fbf",
        "ipw": "50c5d9d403b6eccbc40906cbc24af88d07bf3453f7ac572d2e87f60b3241e5cd",
        "dr_full": "b9ac5a30ce4d8f0f92803d1f083c671224160e2076130efeba8d288db5e253f1",
        "dr_half": "aa96c18a13cf1cae518da22a187c26d8a3d3c4d2d402344c7400d431d7f1dfca",
        "dml": "e235a42dcbe68aa38293c01984c6161ed658cd3230930526887f6d74c83e4796",
    }

    @pytest.fixture(scope="class")
    def lift(self):
        mdp, behavior, evaluation = noisy_lift()
        data = sample_dataset(mdp, behavior, 3000, np.random.default_rng(31))
        return mdp, behavior, evaluation, data

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_estimate_digests(self, lift, name):
        mdp, behavior, evaluation, data = lift
        eta = fit_nuisance(data, evaluation, mdp.discount)
        rng = np.random.default_rng(32)
        call = {
            "dm": lambda: dm_estimate(data, eta, evaluation, level=0.9),
            "ipw": lambda: ipw_estimate(data, behavior, evaluation, mdp.discount),
            "dr_full": lambda: dr_full_estimate(data, eta, evaluation, mdp.discount),
            "dr_half": lambda: dr_half_estimate(data, evaluation, mdp.discount, rng,
                                                known_behavior=behavior),
            "dml": lambda: dml_estimate(data, evaluation, mdp.discount, rng, k_folds=3),
        }[name]
        assert digest(call().to_dict()) == self.DIGESTS[name]

    def test_cross_fit_q_digest(self, lift):
        mdp, _, evaluation, data = lift
        folds = make_folds(data.n, 3, np.random.default_rng(33))
        fits = fit_nuisances([select(data, f) for f in folds], evaluation, mdp.discount)
        assert digest(np.stack([eta.q for eta in fits])) == (
            "14c96b91e6b6e55258c1105c03687ac3c134367f06e82e1f9f3462a45f201584")

    def test_q_recursion_digest(self, lift):
        mdp, _, evaluation, _ = lift
        q = q_recursion(mean_reward_table(mdp), mdp.transitions, evaluation, mdp.horizon,
                        mdp.discount)
        assert digest(q) == "c93be74a9b844f68a48ac63b089f1f53056b54a97b9619f9f1a66505d569f4b1"


class TestZeroBehaviorCells:
    # The behavior policy never takes action 1 in state 0, where the evaluation
    # policy has mass. Only a realized step on that cell is an error.
    behavior = Policy(table=[[1.0, 0.0], [0.5, 0.5]])
    evaluation = Policy(table=[[0.5, 0.5], [0.25, 0.75]])
    message = "^zero behavior propensity on a realized action$"

    def test_unvisited_zero_cell_scores(self):
        data = LoggedDataset(states=[[0, 1], [1, 0]], actions=[[0, 1], [1, 0]],
                             rewards=[[1.0, 2.0], [0.5, -1.0]])
        # rho = [0.5, 0.75] and [1.5, 0.75]; with Q = 1, v = 1 at every step.
        ipw = psi(data, self.behavior, None, self.evaluation, 1.0)
        assert ipw.tolist() == [2.0, 0.0]
        eta = NuisanceEstimate(self.behavior, np.ones((2, 2, 2)))
        dr = psi(data, eta.behavior, eta.q, self.evaluation, 1.0)
        assert dr.tolist() == [2.25, 0.25]
        # Neither estimator checks the evaluation policy's support.
        assert ipw_estimate(data, self.behavior, self.evaluation, 1.0).value == 1.0
        assert dr_full_estimate(data, eta, self.evaluation, 1.0).value == 1.25

    @pytest.mark.parametrize("horizon, step", [(0, 0), (2, 0), (2, 1), (2, 2)])
    def test_realized_zero_cell_raises(self, horizon, step):
        states, actions = [1] * (horizon + 1), [0] * (horizon + 1)
        states[step], actions[step] = 0, 1
        data = LoggedDataset(states=[[1] * (horizon + 1), states],
                             actions=[[1] * (horizon + 1), actions],
                             rewards=np.ones((2, horizon + 1)))
        eta = NuisanceEstimate(self.behavior, np.ones((horizon + 1, 2, 2)))
        for q in (None, eta.q):
            with pytest.raises(SupportViolationError, match=self.message):
                psi(data, self.behavior, q, self.evaluation, 0.9)
        with pytest.raises(SupportViolationError, match=self.message):
            ipw_estimate(data, self.behavior, self.evaluation, 0.9)
        with pytest.raises(SupportViolationError, match=self.message):
            dr_full_estimate(data, eta, self.evaluation, 0.9)

    def test_raise_order(self):
        # The behavior shape is checked first, then the realized zero, then Q.
        data = one_row(states=[0, 1], actions=[1, 0], rewards=[0.0, 1.0])
        with pytest.raises(ValidationError, match="behavior policy table has shape"):
            psi(data, Policy(table=[[1.0, 0.0]]), None, self.evaluation, 0.9)
        with pytest.raises(SupportViolationError, match=self.message):
            psi(data, self.behavior, np.ones((3, 2, 2)), self.evaluation, 0.9)
        with pytest.raises(ValidationError, match="q table does not span"):
            psi(data, self.evaluation, np.ones((3, 2, 2)), self.evaluation, 0.9)


class TestPointEstimators:
    def test_dm_constant_q(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 50, np.random.default_rng(2))
        eta = zero_q_nuisance(behavior, mdp.horizon)
        eta = dataclasses.replace(eta, q=np.full_like(eta.q, 4.2))
        est = dm_estimate(data, eta, evaluation)
        assert est.value == pytest.approx(4.2, abs=1e-12)
        assert est.variance == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_q_of_another_horizon_rejected(self, steps):
        # A one-step Q on 3-step rows would read its step-0 table as the value.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 5, np.random.default_rng(2))
        eta = NuisanceEstimate(behavior, np.ones((steps, 3, 2)))
        for call in (lambda: dm_estimate(data, eta, evaluation),
                     lambda: dr_full_estimate(data, eta, evaluation, 0.9)):
            with pytest.raises(ValidationError,
                               match="^q table does not span the dataset horizon$"):
                call()

    def test_dm_exact_on_enumeration_weighted_initial_states(self):
        # Initial distribution (0.25, 0.75) realized exactly by 1 + 3 copies.
        mdp = bandit_mdp()
        mdp = type(mdp)(
            num_states=2, num_actions=2, horizon=0, discount=1.0,
            initial_dist=[0.25, 0.75], transitions=mdp.transitions,
            reward_support=mdp.reward_support, reward_probs=mdp.reward_probs,
        )
        behavior, evaluation = bandit_policies()
        eta = true_nuisance(mdp, behavior, evaluation)
        data = LoggedDataset(
            states=np.array([[0], [1], [1], [1]]),
            actions=np.zeros((4, 1), dtype=int),
            rewards=np.zeros((4, 1)),
        )
        est = dm_estimate(data, eta, evaluation)
        assert est.value == pytest.approx(exact_policy_value(mdp, evaluation), abs=1e-10)

    def test_ipw_matches_mean_return_on_policy(self):
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 400, np.random.default_rng(3))
        est = ipw_estimate(data, behavior, behavior, 0.9)
        disc = 0.9 ** np.arange(3)
        assert est.value == pytest.approx(float((data.rewards * disc).sum(1).mean()), abs=1e-12)

    def test_identical_trajectories_zero_variance(self):
        data = LoggedDataset(states=[[0]] * 5, actions=[[0]] * 5, rewards=[[1.0]] * 5)
        behavior = Policy(table=[[0.5, 0.5]])
        est = ipw_estimate(data, behavior, behavior, 1.0)
        assert est.variance == 0.0
        assert est.ci_low == est.ci_high == est.value

    # Weights 1.5 on action 0 and 0.5 on action 1.
    @pytest.mark.parametrize("actions, rewards, mean", [
        ([0, 1], [1.7e308, 0.0], "inf"),
        ([0, 0], [1.7e308, -1.7e308], "nan"),
        ([1, 1, 1], [1.7e308] * 3, "inf"),
    ], ids=["infinite_score", "opposite_infinite_scores", "finite_scores_sum_past_max"])
    def test_non_finite_scores_raise_naming_the_estimator(self, actions, rewards, mean):
        data = LoggedDataset(states=[[0]] * len(actions), actions=[[a] for a in actions],
                             rewards=[[r] for r in rewards])
        behavior, evaluation = Policy(table=[[0.5, 0.5]]), Policy(table=[[0.75, 0.25]])
        with pytest.raises(ValidationError,
                           match=f"^ipw scores are not finite: their mean is {mean}$"):
            ipw_estimate(data, behavior, evaluation, 1.0)

    @pytest.mark.parametrize("entry", ["ipw_estimate", "evaluate_dataset"])
    @pytest.mark.parametrize("cause", ["rewards", "propensity"])
    def test_overflowing_scores_named(self, cause, entry):
        # Rewards of 1e308 overflow the IPW score in the step walk, and a
        # behavior propensity of 5e-324 the weight 0.5 / 5e-324; the estimate
        # names the score, and no numpy overflow warning escapes first.
        if cause == "rewards":
            behavior, evaluation = three_state_policies()
            data = LoggedDataset(states=[[0, 1, 2]] * 4, actions=[[0, 1, 0]] * 4,
                                 rewards=np.full((4, 3), 1e308))
        else:
            behavior, evaluation = Policy(table=[[5e-324, 1.0]]), Policy(table=[[0.5, 0.5]])
            data = LoggedDataset(states=[[0]] * 3, actions=[[0], [1], [1]], rewards=[[1.0]] * 3)
        call = {
            "ipw_estimate": lambda: ipw_estimate(data, behavior, evaluation, 0.9),
            "evaluate_dataset": lambda: evaluate_dataset(data, evaluation, 0.9, ("ipw",),
                                                         np.random.default_rng(0),
                                                         known_behavior=behavior),
        }[entry]
        with pytest.raises(ValidationError,
                           match="^ipw scores are not finite: their mean is inf$"):
            call()

    def test_infinite_variance_raises_naming_the_estimator(self):
        # On-policy weights are 1: the mean of 1e200 and -1e200 is 0, but the
        # squared deviations overflow. No overflow warning may escape either.
        data = LoggedDataset(states=[[0], [0]], actions=[[0], [1]], rewards=[[1e200], [-1e200]])
        policy = Policy(table=[[0.5, 0.5]])
        with pytest.raises(ValidationError,
                           match="^ipw scores are not finite: their variance is inf$"):
            ipw_estimate(data, policy, policy, 1.0)


    @pytest.mark.parametrize("level", [0.0, 1.0, float("nan")])
    @pytest.mark.parametrize("name", [e.value for e in Estimator])
    def test_level_outside_open_unit_interval_rejected(self, name, level):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 20, np.random.default_rng(4))
        eta = fit_nuisance(data, evaluation, 0.9)
        rng = np.random.default_rng(0)
        call = {
            "dm": lambda: dm_estimate(data, eta, evaluation, level=level),
            "ipw": lambda: ipw_estimate(data, behavior, evaluation, 0.9, level=level),
            "dr_full": lambda: dr_full_estimate(data, eta, evaluation, 0.9, level=level),
            "dr_half": lambda: dr_half_estimate(data, evaluation, 0.9, rng, level=level),
            "dml": lambda: dml_estimate(data, evaluation, 0.9, rng, level=level),
        }[name]
        with pytest.raises(ValidationError, match=r"level must lie in \(0, 1\)"):
            call()


def takes(obj, parameter: str) -> bool:
    try:
        return parameter in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # a class without a signature, such as an exception
        return False


def public_takers(parameter: str) -> list:
    """The names in ``dml_ope.__all__`` whose signature has ``parameter``."""
    return sorted(name for name in dml_ope.__all__ if takes(getattr(dml_ope, name), parameter))


DISCOUNTED = public_takers("discount")


class TestDiscountRule:
    """Every public callable that takes a discount rejects one outside [0, 1] by
    the run-parameter rule, before it fits or scores anything."""

    CALLS = {
        "ExperimentConfig": lambda s, d: ExperimentConfig(
            mdp=s.mdp, behavior_policy=s.behavior, evaluation_policy=s.evaluation,
            n_trajectories=200, replications=1, discount=d),
        "TabularMdp": lambda s, d: dataclasses.replace(s.mdp, discount=d),
        "dml_estimate": lambda s, d: dml_estimate(s.data, s.evaluation, d, s.rng),
        "dr_full_estimate": lambda s, d: dr_full_estimate(s.data, s.eta, s.evaluation, d),
        "dr_half_estimate": lambda s, d: dr_half_estimate(s.data, s.evaluation, d, s.rng),
        "evaluate_dataset": lambda s, d: evaluate_dataset(s.data, s.evaluation, d, ("dml",),
                                                          s.rng),
        "fit_nuisance": lambda s, d: fit_nuisance(s.data, s.evaluation, d),
        "fit_nuisances": lambda s, d: fit_nuisances([s.data, s.data], s.evaluation, d),
        "ipw_estimate": lambda s, d: ipw_estimate(s.data, s.behavior, s.evaluation, d),
        "q_recursion": lambda s, d: q_recursion(mean_reward_table(s.mdp), s.mdp.transitions,
                                                s.evaluation, s.mdp.horizon, d),
    }

    @pytest.fixture(scope="class")
    def scenario(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 200, np.random.default_rng(4))
        return dataclasses.make_dataclass("Scenario", ["mdp", "behavior", "evaluation", "data",
                                                       "eta", "rng"])(
            mdp, behavior, evaluation, data, fit_nuisance(data, evaluation, 0.9),
            np.random.default_rng(0))

    def test_every_discounted_callable_has_a_call(self):
        assert set(DISCOUNTED) == set(self.CALLS)

    @pytest.mark.parametrize("discount", [2.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", DISCOUNTED)
    def test_discount_outside_unit_interval_rejected(self, scenario, name, discount):
        assert name in self.CALLS, f"{name} takes a discount, but no call here passes one"
        with pytest.raises(ValidationError,
                           match=rf"discount'? must lie in \[0, 1\], got {discount}$"):
            self.CALLS[name](scenario, discount)


SMOOTHED = public_takers("smoothing_alpha")


class TestSmoothingRule:
    """Every public callable that takes a behavior-count smoothing rejects one that
    is not a finite real number >= 0 by the run-parameter rule, before it fits
    anything, and also when a known behavior leaves the smoothing unused."""

    CALLS = {
        "ExperimentConfig": lambda s, a, known: ExperimentConfig(
            mdp=s.mdp, behavior_policy=s.behavior, evaluation_policy=s.evaluation,
            n_trajectories=200, replications=1, behavior_known=known, smoothing_alpha=a),
        "dml_estimate": lambda s, a, known: dml_estimate(
            s.data, s.evaluation, 0.9, s.rng, known_behavior=s.known(known), smoothing_alpha=a),
        "dr_half_estimate": lambda s, a, known: dr_half_estimate(
            s.data, s.evaluation, 0.9, s.rng, known_behavior=s.known(known), smoothing_alpha=a),
        "evaluate_dataset": lambda s, a, known: evaluate_dataset(
            s.data, s.evaluation, 0.9, ("dml",), s.rng, known_behavior=s.known(known),
            smoothing_alpha=a),
        "fit_nuisance": lambda s, a, known: fit_nuisance(
            s.data, s.evaluation, 0.9, known_behavior=s.known(known), smoothing_alpha=a),
        "fit_nuisances": lambda s, a, known: fit_nuisances(
            [s.data, s.data], s.evaluation, 0.9, known_behavior=s.known(known),
            smoothing_alpha=a),
    }

    @pytest.fixture(scope="class")
    def scenario(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 200, np.random.default_rng(4))
        return dataclasses.make_dataclass(
            "Scenario", ["mdp", "behavior", "evaluation", "data", "rng"],
            namespace={"known": lambda s, known: s.behavior if known else None},
        )(mdp, behavior, evaluation, data, np.random.default_rng(0))

    def test_every_smoothed_callable_has_a_call(self):
        assert set(SMOOTHED) == set(self.CALLS)

    @pytest.mark.parametrize("alpha, rule", [
        (-1, "be finite and >= 0, got -1"),
        (float("nan"), "be finite and >= 0, got nan"),
        (float("inf"), "be finite and >= 0, got inf"),
        (True, "be a real number, got True"),
        ("1", "be a real number, got '1'"),
    ], ids=["negative", "nan", "inf", "bool", "text"])
    @pytest.mark.parametrize("known", [False, True], ids=["estimated", "known"])
    @pytest.mark.parametrize("name", SMOOTHED)
    def test_smoothing_outside_the_rule_rejected(self, scenario, name, known, alpha, rule):
        assert name in self.CALLS, f"{name} takes a smoothing, but no call here passes one"
        with pytest.raises(ValidationError, match=(
                rf"^(nuisance config: ')?smoothing_alpha'? must {re.escape(rule)}$")):
            self.CALLS[name](scenario, alpha, known)


class TestCellIndexChecks:
    """A public estimator or fit reads the ids of the dataset it is given: one
    outside the evaluation policy table, which numpy would read from the table's
    end (-1) or past it, is rejected, and ids of another type give the result of
    their int64 values."""

    CALLS = {
        "fit_nuisances": lambda data, eta, ev, rng: fit_nuisances([data, data], ev, 0.9),
        "dm": lambda data, eta, ev, rng: dm_estimate(data, eta, ev),
        "ipw": lambda data, eta, ev, rng: ipw_estimate(data, eta.behavior, ev, 0.9),
        "dr_full": lambda data, eta, ev, rng: dr_full_estimate(data, eta, ev, 0.9),
        "dr_half": lambda data, eta, ev, rng: dr_half_estimate(data, ev, 0.9, rng),
        "dml": lambda data, eta, ev, rng: dml_estimate(data, ev, 0.9, rng),
    }

    @pytest.mark.parametrize("field, bad, message", [
        ("actions", -1, "'a' id -1 is outside the evaluation policy table of 2 actions"),
        ("states", 3, "'s' id 3 is outside the evaluation policy table of 3 states"),
        ("states", -1, "'s' id -1 is outside the evaluation policy table of 3 states"),
        # s * A + 2 is a cell of the next state, inside the (S, A) table.
        ("actions", 2, "'a' id 2 is outside the evaluation policy table of 2 actions"),
    ], ids=["minus_one", "table_size", "state_minus_one", "action_table_size"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_cell_id_outside_the_table_rejected(self, name, field, bad, message):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 20, np.random.default_rng(4))
        eta = fit_nuisance(data, evaluation, 0.9)
        columns = {f: getattr(data, f).copy() for f in ("states", "actions", "rewards")}
        columns[field][7, 1] = bad
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            self.CALLS[name](LoggedDataset(**columns), eta, evaluation, np.random.default_rng(0))

    @pytest.mark.parametrize("convert", [lambda x: x.astype(float), lambda x: x.astype(np.uint64),
                                         lambda x: x.tolist()],
                             ids=["whole_floats", "unsigned", "lists"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_ids_of_another_type_give_the_same_result(self, name, convert):
        # A cell index of these types was rejected as a row set; a dataset reads
        # them as the int64 ids they are.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 20, np.random.default_rng(4))
        eta = fit_nuisance(data, evaluation, 0.9)
        same = LoggedDataset(states=convert(data.states), actions=convert(data.actions),
                             rewards=data.rewards.tolist())

        def result(ds):
            got = self.CALLS[name](ds, eta, evaluation, np.random.default_rng(0))
            return [e.q.tobytes() for e in got] if isinstance(got, list) else got.to_dict()

        assert result(same) == result(data)

    READERS = {
        "fit_nuisance": lambda data, eta, ev, rng: fit_nuisance(data, ev, 0.9),
        "evaluate_dataset": lambda data, eta, ev, rng: evaluate_dataset(data, ev, 0.9, ("dml",),
                                                                        rng),
        "write_jsonl": lambda data, eta, ev, rng: write_jsonl(data, os.devnull),
    }

    @pytest.mark.parametrize("name", [*CALLS, *READERS])
    def test_a_dataset_of_another_type_is_named(self, name):
        # The former row-set form ended in AttributeError: 'tuple' object has no
        # attribute 'n' (or 'horizon', 'cells').
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 20, np.random.default_rng(4))
        eta = fit_nuisance(data, evaluation, 0.9)
        rows = data.cells(evaluation, "evaluation"), data.rewards
        param = "parts[0]" if name == "fit_nuisances" else "data"
        with pytest.raises(ValidationError,
                           match=rf"^{re.escape(param)} must be a LoggedDataset, got tuple$"):
            {**self.CALLS, **self.READERS}[name](rows, eta, evaluation, np.random.default_rng(0))


class TestDrVariants:
    def test_dr_full_with_zero_q_equals_ipw_on_estimated_behavior(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 100, np.random.default_rng(4))
        fitted_behavior = fit_nuisance(data, evaluation, 0.9).behavior
        eta = zero_q_nuisance(fitted_behavior, mdp.horizon)
        dr = dr_full_estimate(data, eta, evaluation, 0.9)
        ipw = ipw_estimate(data, fitted_behavior, evaluation, 0.9)
        assert dr.value == pytest.approx(ipw.value, abs=1e-12)
        assert dr.variance == pytest.approx(ipw.variance, abs=1e-12)

    def test_dr_half_smallest_split(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 2, np.random.default_rng(7))
        est = dr_half_estimate(data, evaluation, 0.9, np.random.default_rng(1))
        assert est.n == 1
        with pytest.raises(ValidationError,
                           match=r"^dr_half_estimate needs 2 rows or more, got 1$"):
            dr_half_estimate(select(data, [0]), evaluation, 0.9, np.random.default_rng(1))

    @pytest.mark.parametrize("n", [10, 11])
    def test_dr_half_scores_first_half(self, n):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, n, np.random.default_rng(8))
        rng_seed = 42
        est = dr_half_estimate(data, evaluation, 0.9, np.random.default_rng(rng_seed))
        perm = np.random.default_rng(rng_seed).permutation(n)
        idx = np.sort(perm[:(n + 1) // 2])
        eta = fit_nuisance(select(data, np.sort(perm[(n + 1) // 2:])), evaluation, 0.9)
        expected = psi(select(data, idx), eta.behavior, eta.q, evaluation, 0.9).mean()
        assert est.value == pytest.approx(float(expected), abs=1e-12)
        assert est.n == (n + 1) // 2

    def test_dr_half_is_dml_fold_0_at_two_folds(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        sampled = sample_dataset(mdp, behavior, 31, np.random.default_rng(10))
        data = LoggedDataset(sampled.states, sampled.actions,
                             np.random.default_rng(11).uniform(size=sampled.rewards.shape))
        folds = make_folds(data.n, 2, np.random.default_rng(5))
        parts = [select(data, f) for f in folds]
        scores = np.empty(data.n)
        for fold, part, eta in zip(folds, parts, fit_nuisances(parts, evaluation, 0.9)):
            scores[fold] = psi(part, eta.behavior, eta.q, evaluation, 0.9)
        dml = dml_estimate(data, evaluation, 0.9, np.random.default_rng(5))
        half = dr_half_estimate(data, evaluation, 0.9, np.random.default_rng(5))
        assert dml.value == scores.mean()
        assert half.value == scores[folds[0]].mean()
        assert half.n == folds[0].size == 16


class TestTableReads:
    """Every table is read through the flat cell index of the row set that
    ``LoggedDataset.cells`` builds, so an id that would mis-address it is rejected
    when the row set is built, and a table shape before any read."""

    @pytest.mark.parametrize("state, action, match", [
        (-1, 0, "'s' id -1 is outside the evaluation policy table of 3 states"),
        (0, -1, "'a' id -1 is outside the evaluation policy table of 2 actions"),
        (0, 2, "'a' id 2 is outside the evaluation policy table of 2 actions"),
    ], ids=["negative_state", "negative_action", "action_A"])
    @pytest.mark.parametrize("name", ["ipw", "dr_full", "dm", "dml"])
    def test_id_outside_the_evaluation_table_rejected(self, name, state, action, match):
        # As in evaluate_dataset; -1 would read the table's last row, and
        # action A the next state's first cell.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = LoggedDataset(states=[[0, 1, 2], [1, 2, state]],
                             actions=[[0, 1, 0], [1, 0, action]], rewards=np.ones((2, 3)))
        eta = true_nuisance(mdp, behavior, evaluation)
        calls = {
            "ipw": lambda: ipw_estimate(data, behavior, evaluation, 0.9),
            "dr_full": lambda: dr_full_estimate(data, eta, evaluation, 0.9),
            "dm": lambda: dm_estimate(data, eta, evaluation),
            "dml": lambda: dml_estimate(data, evaluation, 0.9, np.random.default_rng(0)),
        }
        with pytest.raises(ValidationError, match=f"^{re.escape(match)}$"):
            evaluate_dataset(data, evaluation, 0.9, (name,), np.random.default_rng(0))
        with pytest.raises(ValidationError, match=f"^{re.escape(match)}$"):
            calls[name]()

    @pytest.mark.parametrize("behavior_table, q_shape, match", [
        ([[0.2, 0.3, 0.5]] * 3, None,
         "the behavior policy table has shape (3, 3), the evaluation policy table (3, 2)"),
        ([[0.5, 0.5]] * 4, None,
         "the behavior policy table has shape (4, 2), the evaluation policy table (3, 2)"),
        (None, (3, 3, 3),
         "the per-step q table has shape (3, 3), the evaluation policy table (3, 2)"),
        (None, (3, 4, 2),
         "the per-step q table has shape (4, 2), the evaluation policy table (3, 2)"),
    ], ids=["behavior_actions", "behavior_states", "q_actions", "q_states"])
    def test_psi_table_shape_must_match_the_evaluation_policy(self, behavior_table, q_shape,
                                                              match):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(0))
        # The true Q tables do not depend on the behavior, which a record must fit.
        q = (true_nuisance(mdp, behavior, evaluation).q if q_shape is None
             else np.zeros(q_shape))
        if behavior_table is not None:
            behavior = Policy(table=behavior_table)
        with pytest.raises(ValidationError, match=f"^{re.escape(match)}$"):
            psi(data, behavior, q, evaluation, 0.9)

    @pytest.mark.parametrize("rows", [4, 1])
    def test_fit_known_behavior_shape_must_match_the_evaluation_policy(self, rows):
        # A one-row table would broadcast against the evaluation policy's.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(0))
        known = Policy(table=[[0.5, 0.5]] * rows)
        match = f"the behavior policy table has shape ({rows}, 2), the evaluation policy table"
        with pytest.raises(ValidationError, match=re.escape(match)):
            fit_nuisance(data, evaluation, 0.9, known_behavior=known)
        with pytest.raises(ValidationError, match=re.escape(match)):
            dml_estimate(data, evaluation, 0.9, np.random.default_rng(0), known_behavior=known)


class TestDml:
    def test_oracle_injection_bypasses_fitting(self):
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 100, np.random.default_rng(9))
        # DML with one injected nuisance for every fold is DR-full on that nuisance.
        eta = true_nuisance(mdp, behavior, behavior)
        est = dr_full_estimate(data, eta, behavior, 0.9)
        scores = psi(data, eta.behavior, eta.q, behavior, 0.9)
        assert est.value == pytest.approx(float(scores.mean()), abs=1e-10)
        assert est.variance == pytest.approx(float(((scores - scores.mean()) ** 2).mean()),
                                             abs=1e-10)

    def test_deterministic_given_seed(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 80, np.random.default_rng(10))
        a = dml_estimate(data, evaluation, 0.9, np.random.default_rng(5), k_folds=4)
        b = dml_estimate(data, evaluation, 0.9, np.random.default_rng(5), k_folds=4)
        assert a == b

    @pytest.mark.parametrize("k_folds, message", [
        (4, "k_folds must lie in [2, 3] for 3 rows, got 4"),
        (2.5, "k_folds must be an integer, got 2.5"),
    ], ids=["above_rows", "fractional"])
    def test_bad_k_folds_named(self, k_folds, message):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 3, np.random.default_rng(11))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dml_estimate(data, evaluation, 0.9, np.random.default_rng(0), k_folds=k_folds)

    def test_ci_half_width_formula(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 100, np.random.default_rng(12))
        est = dml_estimate(data, evaluation, 0.9, np.random.default_rng(3), level=0.9)
        from statistics import NormalDist

        half = NormalDist().inv_cdf(0.95) * np.sqrt(est.variance / est.n)
        assert est.ci_high - est.value == pytest.approx(half, abs=1e-12)
        assert est.value - est.ci_low == pytest.approx(half, abs=1e-12)
        assert est.estimator is Estimator.DML


class TestFoldRows:
    """A fold is a set of row indices: DML and DR-half gather each fold's rows of one
    cell index once and pass them to both its fit and its score."""

    @pytest.mark.parametrize("known", [False, True], ids=["estimated", "known"])
    def test_cells_calls_do_not_grow_with_the_folds(self, monkeypatch, known):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 40, np.random.default_rng(3))
        calls = []
        for method in ("cells", "check_ids"):
            original = getattr(LoggedDataset, method)
            monkeypatch.setattr(LoggedDataset, method, lambda self, *a, method=method,
                                original=original: calls.append(method) or original(self, *a))
        counts = []
        for k in (2, 5):
            calls.clear()
            evaluate_dataset(data, evaluation, 0.9, tuple(e.value for e in Estimator),
                             np.random.default_rng(4), known_behavior=behavior if known else None,
                             k_folds=k)
            counts.append(calls.copy())
        # One id check per table. The estimators build the full cell index once
        # from the checked columns and gather each fold's from it.
        assert counts == [["check_ids"] * (2 if known else 1)] * 2

    @pytest.mark.parametrize("name", ["dml", "dr_half"])
    def test_cross_fits_build_no_dataset(self, monkeypatch, name):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 40, np.random.default_rng(3))
        built = []
        post_init = LoggedDataset.__post_init__
        monkeypatch.setattr(LoggedDataset, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        call = {"dml": lambda: dml_estimate(data, evaluation, 0.9, np.random.default_rng(4),
                                            k_folds=5),
                "dr_half": lambda: dr_half_estimate(data, evaluation, 0.9,
                                                    np.random.default_rng(4))}[name]
        assert call().n > 0
        assert built == []
        assert not hasattr(LoggedDataset, "subset")

    @pytest.mark.parametrize("control", ["dr", "ipw"])
    def test_scores_leave_the_cell_index_unchanged(self, control):
        # DML passes one fold's cell index to its fit and then to its score.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 30, np.random.default_rng(6))
        q = true_nuisance(mdp, behavior, evaluation).q if control == "dr" else None
        fold = np.arange(0, 30, 2)
        sa, rewards = data.cells(evaluation, "evaluation")[fold], data.rewards[fold]
        kept = sa.copy()
        first = _psi_scores(sa, rewards, behavior, q, evaluation, 0.9)
        assert np.array_equal(sa, kept)
        assert np.array_equal(_psi_scores(sa, rewards, behavior, q, evaluation, 0.9), first)


class TestValueEstimate:
    @pytest.mark.parametrize("changes, message", [
        ({"variance": -1e-12}, "variance must be nonnegative"),
        ({"ci_low": 0.6}, "confidence interval must contain the point estimate"),
        ({"ci_high": 0.4}, "confidence interval must contain the point estimate"),
    ], ids=["negative_variance", "above_the_value", "below_the_value"])
    def test_invariants(self, changes, message):
        fields = dict(value=0.5, variance=0.1, n=10, ci_low=0.3, ci_high=0.7,
                      estimator=Estimator.DML, level=0.95)
        assert ValueEstimate(**fields).covers(0.5)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ValueEstimate(**{**fields, **changes})


class TestEfficiencyBound:
    def test_degenerate_zero(self):
        mdp = type(bandit_mdp())(
            num_states=1, num_actions=1, horizon=0, discount=1.0,
            initial_dist=[1.0], transitions=np.ones((1, 1, 1)),
            **bernoulli([[1.0]]),
        )
        point = Policy(table=[[1.0]])
        assert cb_efficiency_bound(mdp, point, point) == 0.0

    def test_single_arm_reduces_to_reward_variance(self):
        mdp = type(bandit_mdp())(
            num_states=1, num_actions=1, horizon=0, discount=1.0,
            initial_dist=[1.0], transitions=np.ones((1, 1, 1)),
            **bernoulli([[0.7]]),
        )
        point = Policy(table=[[1.0]])
        assert cb_efficiency_bound(mdp, point, point) == pytest.approx(0.21, abs=1e-12)

    def test_requires_horizon_zero(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        with pytest.raises(ValidationError, match="horizon 0"):
            cb_efficiency_bound(mdp, behavior, evaluation)


class TestStackedScores:
    """The score walk and the finalize step of R stacked row sets give each
    replication the bytes of its own call."""

    @pytest.mark.parametrize("horizon", [2, 9], ids=["one_column", "pairwise_lanes"])
    @pytest.mark.parametrize("known", [False, True], ids=["fitted", "known"])
    def test_ipw_and_dr_full_share_one_walk(self, horizon, known):
        # IPW and DR-full read one behavior table, so one walk computes rho for
        # both; each score equals its own _psi_scores call to the bit.
        rng = np.random.default_rng(horizon)
        mdp = random_mdp(rng, 4, 3, horizon)
        behavior, evaluation = random_policy(rng, 4, 3), random_policy(rng, 4, 3)
        data = sample_dataset(mdp, behavior, 500, np.random.default_rng(1))
        eta = fit_nuisance(data, evaluation, 0.9, known_behavior=behavior if known else None)
        sa = data.cells(evaluation, "evaluation")[None]
        ipw, dr = _walk(sa, data.rewards[None], _ratios(eta.behavior.table, evaluation, sa),
                        [None, _control(eta.q[:, None], evaluation)], 0.9)
        separate = [psi(data, eta.behavior, q, evaluation, 0.9) for q in (None, eta.q)]
        assert [ipw[0].tobytes(), dr[0].tobytes()] == [s.tobytes() for s in separate]

    @pytest.mark.parametrize("known", [False, True], ids=["fitted", "known"])
    def test_evaluate_dataset_builds_one_ratio_table_for_ipw_and_dr_full(self, monkeypatch,
                                                                        known):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 60, np.random.default_rng(2))
        ratios, calls = estimators._ratios, []
        monkeypatch.setattr(estimators, "_ratios",
                            lambda *a: calls.append(1) or ratios(*a))
        results = evaluate_dataset(data, evaluation, 0.9, ("dr_full", "ipw"),
                                   np.random.default_rng(3),
                                   known_behavior=behavior if known else None)
        assert len(calls) == 1
        assert list(results) == ["dr_full", "ipw"]
        eta = fit_nuisance(data, evaluation, 0.9, known_behavior=behavior if known else None)
        assert results["ipw"] == ipw_estimate(data, eta.behavior, evaluation, 0.9)
        assert results["dr_full"] == dr_full_estimate(data, eta, evaluation, 0.9)

    @pytest.mark.parametrize("n", [1, 7, 1000, 5000])
    def test_finalize_rows_as_alone(self, n):
        scores = np.random.default_rng(n).standard_normal((5, n)) * 10.0 ** np.arange(5)[:, None]
        stacked = _finalize(scores, Estimator.DML, 0.9)
        assert stacked == [_finalize(row[None], Estimator.DML, 0.9)[0] for row in scores]

    def test_finalize_names_the_first_bad_replication(self):
        scores = np.ones((3, 4))
        scores[1, 0], scores[2, 0] = np.inf, np.nan
        with pytest.raises(ValidationError,
                           match=r"^dml scores are not finite: their mean is inf$"):
            _finalize(scores, Estimator.DML, 0.9)
