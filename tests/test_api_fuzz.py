"""Every public array parameter and JSON array field refuses a bad array by name.

The library sibling of ``test_cli_fuzz.py``. Each site below is handed every
value of a catalog built from a valid array of its own: text, bytes, complex
numbers, an all-bool array, a None entry, a ragged nested list, NaN and the
infinities (every site needs finite values or distributions), an empty axis,
and one dimension too many or too few. Each must raise a ValidationError whose
message names the parameter, with no numpy warning. A JSON field takes the
catalog's JSON values, all but bytes and complex numbers. A structural guard
lists every parameter and dataclass field of the public API annotated
``np.ndarray`` and fails when no site covers it, so that a new array parameter
cannot skip the rules.
"""
import copy
import re
import types
import typing
import warnings
from typing import NamedTuple

import numpy as np
import pytest

import dml_ope
from dml_ope import (
    LoggedDataset,
    NuisanceEstimate,
    Policy,
    TabularMdp,
    ValidationError,
    epsilon_greedy_policy,
    expected_psi,
    greedy_policy,
    mdp_from_dict,
    mdp_to_dict,
    mean_reward_table,
    orthogonality_derivative,
    policy_from_dict,
    q_recursion,
    sample_dataset,
    softmax_policy,
    thompson_gaussian_policy,
)

from helpers import three_state_mdp, three_state_policies, true_nuisance


class Site(NamedTuple):
    """A public array argument: ``names`` is a pattern its errors must match,
    ``valid`` a value it accepts and ``build`` the call that reads a value. Every
    site needs finite values or distributions, so each refuses NaN and ±inf."""

    names: str
    valid: np.ndarray
    build: typing.Callable


_MDP = three_state_mdp()
_BEHAVIOR, _EVALUATION = three_state_policies()
_Q = true_nuisance(_MDP, _BEHAVIOR, _EVALUATION).q
_DATA = sample_dataset(_MDP, _BEHAVIOR, 4, np.random.default_rng(0))
_SCORES = np.array([[1.0, 2.0], [0.5, 0.1], [3.0, 3.0]])
_MDP_FIELDS = {field: getattr(_MDP, field) for field in (
    "num_states", "num_actions", "horizon", "discount", "initial_dist", "transitions",
    "reward_support", "reward_probs")}
_COLUMNS = {field: getattr(_DATA, field) for field in (
    "states", "actions", "rewards", "propensities")}
_MDP_DICT = mdp_to_dict(_MDP)


def _mdp_with(field):
    return lambda value: TabularMdp(**{**_MDP_FIELDS, field: value})


def _dataset_with(field):
    return lambda value: LoggedDataset(**{**_COLUMNS, field: value})


def _thompson(means, variances):
    return thompson_gaussian_policy(means, variances, np.random.default_rng(0), draws=10)


SITES = {
    "Policy.table": Site("policy (table|row)", _BEHAVIOR.table, lambda v: Policy(table=v)),
    **{f"TabularMdp.{field}": Site(names, getattr(_MDP, field), _mdp_with(field))
       for field, names in (("initial_dist", "initial_dist"), ("transitions", "transitions"),
                            ("reward_support", "reward.support"),
                            ("reward_probs", "reward.probs"))},
    "LoggedDataset.states": Site("dataset (states|must be nonempty)", _DATA.states,
                                 _dataset_with("states")),
    **{f"LoggedDataset.{field}": Site(names, getattr(_DATA, field), _dataset_with(field))
       for field, names in (("actions", "dataset actions"), ("rewards", "dataset rewards"),
                            ("propensities", "propensities"))},
    "NuisanceEstimate.q": Site("q table", _Q, lambda v: NuisanceEstimate(_BEHAVIOR, v)),
    "q_recursion.mean_reward": Site(
        "mean_reward", mean_reward_table(_MDP),
        lambda v: q_recursion(v, _MDP.transitions, _EVALUATION, 2, 0.9)),
    "q_recursion.transitions": Site(
        "transition", _MDP.transitions,
        lambda v: q_recursion(mean_reward_table(_MDP), v, _EVALUATION, 2, 0.9)),
    "epsilon_greedy_policy.scores": Site("scores", _SCORES,
                                         lambda v: epsilon_greedy_policy(v, 0.1)),
    "softmax_policy.scores": Site("scores", _SCORES, softmax_policy),
    "greedy_policy.means": Site("means", _SCORES, greedy_policy),
    "thompson_gaussian_policy.means": Site("means", _SCORES,
                                           lambda v: _thompson(v, np.ones((3, 2)))),
    "thompson_gaussian_policy.variances": Site("variances", _SCORES,
                                               lambda v: _thompson(_SCORES, v)),
    "expected_psi.q": Site(r"(?<!alt_)\bq\b", _Q, lambda v: expected_psi(
        _MDP, _BEHAVIOR, _BEHAVIOR, v, _EVALUATION)),
    "orthogonality_derivative.q": Site(r"(?<!alt_)\bq\b", _Q, lambda v: orthogonality_derivative(
        _MDP, _EVALUATION, _BEHAVIOR, v, _BEHAVIOR, _Q)),
    "orthogonality_derivative.alt_q": Site("alt_q", _Q, lambda v: orthogonality_derivative(
        _MDP, _EVALUATION, _BEHAVIOR, _Q, _BEHAVIOR, v)),
}


def _spec_with(key):
    return lambda value: mdp_from_dict({**_MDP_DICT, key: value})


def _cell_with(key):
    def build(value):
        spec = copy.deepcopy(_MDP_DICT)
        spec["rewards"][0][0][key] = value
        return mdp_from_dict(spec)
    return build


# The JSON array fields: the policy file's table, the MDP file's arrays and a
# reward cell's support and probs.
JSON_SITES = {
    "policy table": Site("table|policy row", _BEHAVIOR.table,
                         lambda v: policy_from_dict({"table": v})),
    "MDP initial_dist": Site("initial_dist", _MDP.initial_dist, _spec_with("initial_dist")),
    "MDP transitions": Site("transitions", _MDP.transitions, _spec_with("transitions")),
    **{f"MDP reward {key}": Site(r"rewards\[0\]\[0\]",
                                 np.array(_MDP_DICT["rewards"][0][0][key]), _cell_with(key))
       for key in ("support", "probs")},
}


def _ragged(valid: np.ndarray) -> list:
    """``valid`` as nested lists with its first innermost row one entry short, or,
    if 1-d, its first entry wrapped in a list."""
    rows = valid.tolist()
    if valid.ndim == 1:
        return [rows[:1]] + rows[1:]
    inner = rows
    while isinstance(inner[0][0], list):
        inner = inner[0]
    inner[0] = inner[0][:-1]
    return rows


def _with_first(valid: np.ndarray, value, dtype) -> np.ndarray:
    bad = valid.astype(dtype)
    bad.flat[0] = value
    return bad


def catalog(site: Site, json: bool = False) -> dict:
    """The catalog's values for ``site``, by case name; JSON values as lists."""
    valid = site.valid
    cases = {
        "text": valid.astype(str),
        "bytes": valid.astype(bytes),
        "complex": valid.astype(complex),
        "bool": np.ones(valid.shape, dtype=bool),
        "none": _with_first(valid, None, object),
        "ragged": _ragged(valid),
        "empty_first_axis": np.take(valid, [], axis=0),
        "empty_last_axis": np.take(valid, [], axis=-1),
        "extra_dimension": valid[None],
        "missing_dimension": valid[0],
        **{name: _with_first(valid, value, float) for name, value in (
            ("nan", np.nan), ("inf", np.inf), ("minus_inf", -np.inf))},
    }
    if json:
        del cases["bytes"], cases["complex"]
        cases = {name: value.tolist() if isinstance(value, np.ndarray) else value
                 for name, value in cases.items()}
    return cases


CASES = ([pytest.param(site, value, id=f"{name}-{case}")
          for name, site in SITES.items() for case, value in catalog(site).items()]
         + [pytest.param(site, value, id=f"{name}-{case}")
            for name, site in JSON_SITES.items()
            for case, value in catalog(site, json=True).items()])


@pytest.mark.parametrize("site, value", CASES)
def test_a_bad_array_is_refused_by_name(site, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as refused:
            site.build(value)
    assert re.search(site.names, str(refused.value)), str(refused.value)


@pytest.mark.parametrize("site", [pytest.param(site, id=name) for name, site in
                                  {**SITES, **JSON_SITES}.items()])
def test_a_nested_list_reads_as_its_array(site):
    # A valid array given as nested lists gives what the array gives: a list q
    # in expected_psi ended in AttributeError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(site.build(site.valid.tolist())) == repr(site.build(site.valid))


def _is_array(hint) -> bool:
    """Whether ``hint`` is ``np.ndarray``, alone or in a union such as ``| None``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return np.ndarray in typing.get_args(hint)
    return hint is np.ndarray


def uncovered(namespace: dict, covered) -> list[str]:
    """``owner.parameter`` for each parameter, or dataclass field, that a function
    or class of ``namespace`` annotates ``np.ndarray`` and ``covered`` lacks."""
    found = []
    for owner, obj in namespace.items():
        if not callable(obj):
            continue
        hints = typing.get_type_hints(obj)
        found += [f"{owner}.{name}" for name, hint in hints.items()
                  if name != "return" and _is_array(hint) and f"{owner}.{name}" not in covered]
    return found


def test_every_public_array_parameter_has_a_site():
    public = {name: getattr(dml_ope, name) for name in dml_ope.__all__}
    assert uncovered(public, SITES) == []


def _stand_in(values: np.ndarray, weights: np.ndarray | None, size: int) -> None:
    """An array parameter that no site covers."""


class _StandIn(NamedTuple):
    table: np.ndarray
    label: str


def test_an_uncovered_array_parameter_is_found():
    namespace = {"stand_in": _stand_in, "StandIn": _StandIn, "Policy": Policy, "pi": 3.14}
    assert uncovered(namespace, {"stand_in.values"}) == [
        "stand_in.weights", "StandIn.table", "Policy.table"]
