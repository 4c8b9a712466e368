"""Mutate one field of a valid input file and run the CLI on it.

The inputs are an MDP file (read by ``simulate``), a policy file (read by
``simulate`` and as ``evaluate --behavior-policy``), a JSONL dataset (read by
``evaluate``) and an experiment config (read by ``experiment``). A mutation is a wrong type, NaN or an infinity, a negative
integer, a missing or an extra key, or a ragged row. Whatever it does, the CLI
must not exit 2, and every line it writes to stderr on exit 1 must start with
``error:`` and name a file, the mutated key or a flag. No mutation writes a
large number, so every run stays small: a huge count would fail inside numpy's
allocation, which these checks do not cover.
"""
import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dml_ope import mdp_to_dict, policy_to_dict, sample_dataset
from dml_ope.cli import cli_main

from helpers import row_steps, three_state_mdp, three_state_policies

_BEHAVIOR, _EVALUATION = (policy_to_dict(p) for p in three_state_policies())
_MDP = mdp_to_dict(three_state_mdp())
_CONFIG = {
    "mdp": "mdp.json", "behavior_policy": "behavior.json", "evaluation_policy": "eval.json",
    "n_trajectories": 20, "replications": 2, "estimators": ["dml", "ipw", "dr_half"],
    "seed": 3, "discount": 0.9, "level": 0.9,
    "nuisance": {"k_folds": 2, "smoothing_alpha": 0.5, "behavior_policy": "estimated"},
    "noise_states": {"count": 2, "seed": 1},
}


_DATA = sample_dataset(three_state_mdp(), three_state_policies()[0], 12, np.random.default_rng(0))
_DOCS = {"mdp.json": _MDP, "behavior.json": _BEHAVIOR, "config.json": _CONFIG,
         "data.jsonl": [{"steps": [dict(zip("sarp", step)) for step in row_steps(_DATA, i)]}
                        for i in range(_DATA.n)]}


def _paths(doc, prefix=()):
    """Every location in ``doc`` as a tuple of keys and indices, the root first."""
    yield prefix, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


_KINDS = ("type", "nonfinite", "negative", "missing", "extra", "ragged")
_VALUES = {
    "type": st.sampled_from(["x", True, None, [], {"k": 1}, [[1.0], 2.0]]),
    "nonfinite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "negative": st.integers(-5, -1),
}


@st.composite
def mutations(draw):
    """(file name, mutated document, names an error may give) for one mutation."""
    name = draw(st.sampled_from(sorted(_DOCS)))
    kind = draw(st.sampled_from(_KINDS))
    fits = {
        "extra": lambda path, value: isinstance(value, dict),
        "ragged": lambda path, value: isinstance(value, list) and value != [],
        "missing": lambda path, value: path != (),
    }.get(kind, lambda path, value: True)
    path = draw(st.sampled_from([p for p, v in _paths(_DOCS[name]) if fits(p, v)]))
    doc = copy.deepcopy(_DOCS[name])
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
    else:
        parent, target = None, doc
    if kind == "extra":
        target["extra_key"] = 1
    elif kind == "ragged" and draw(st.booleans()):
        target.append(copy.deepcopy(target[-1]))
    elif kind == "ragged":
        target.pop()
    elif kind == "missing":
        del parent[path[-1]]
    elif parent is None:
        doc = draw(_VALUES[kind])
    else:
        parent[path[-1]] = draw(_VALUES[kind])
    keys = {key for key in path if isinstance(key, str)}
    return name, doc, keys


def _runs(workdir: Path, name: str, doc) -> list[tuple[int, str]]:
    """The exit code and stderr of each command that reads file ``name`` when it holds ``doc``."""
    for other, valid in {**_DOCS, "eval.json": _EVALUATION, name: doc}.items():
        lines = valid if other.endswith(".jsonl") and isinstance(valid, list) else [valid]
        (workdir / other).write_text("".join(json.dumps(line) + "\n" for line in lines))
    mdp, behavior, evaluation, config, data = (
        str(workdir / other)
        for other in ("mdp.json", "behavior.json", "eval.json", "config.json", "data.jsonl"))
    simulate = ["simulate", "--mdp", mdp, "--policy", behavior, "--n", "8",
                "--output", str(workdir / "out.jsonl")]
    evaluate = ["evaluate", "--data", data, "--eval-policy", evaluation, "--discount", "0.9",
                "--estimator", "ipw", "--estimator", "dml", "--folds", "3"]
    commands = {
        "mdp.json": [simulate],
        "behavior.json": [simulate, evaluate + ["--behavior-policy", behavior]],
        "data.jsonl": [evaluate],
        "config.json": [["experiment", "--config", config]],
    }[name]
    results = []
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            results.append((cli_main(argv), err.getvalue()))
    return results


@settings(max_examples=150, deadline=None)
@given(mutations())
def test_one_mutated_field_never_exits_2(mutation):
    name, doc, keys = mutation
    with tempfile.TemporaryDirectory() as tmp:
        results = _runs(Path(tmp), name, doc)
        names = {tmp, *keys, "--"}  # a file in the work directory, a mutated key, a flag
    for code, err in results:
        assert code != 2, err
        if code == 1:
            assert err.endswith("\n")
            for line in err.splitlines():
                assert line.startswith("error: "), err
                assert any(name in line for name in names), (keys, err)


def _spelled(array: list, form: str) -> list:
    """The numeric nested list ``array`` with its first number written as a JSON
    string, or, for ``form`` "true", with every number written as true (numpy
    reads one true among numbers as 1, a gap the reader leaves open)."""
    text = json.dumps(array)
    if form == "true":
        return json.loads(re.sub(r"[^\[\], ]+", "true", text))
    return json.loads(re.sub(r"[^\[\], ]+", lambda number: json.dumps(number[0]), text, count=1))


@pytest.mark.parametrize("form", ["text", "true"])
@pytest.mark.parametrize("name, path", [
    ("mdp.json", ("initial_dist",)), ("mdp.json", ("transitions",)),
    ("mdp.json", ("rewards", 0, 0, "support")), ("mdp.json", ("rewards", 0, 0, "probs")),
    ("behavior.json", ("table",)),
], ids=["initial_dist", "transitions", "reward_support", "reward_probs", "policy_table"])
def test_a_number_written_as_text_or_true_exits_1(name, path, form):
    # simulate and evaluate read "0.5" as 0.5 and true as 1.0, and exited 0.
    doc = copy.deepcopy(_DOCS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _spelled(parent[path[-1]], form)
    with tempfile.TemporaryDirectory() as tmp:
        results = _runs(Path(tmp), name, doc)
        where = str(Path(tmp) / name)
    for code, err in results:
        assert code == 1, err
        assert err.startswith(f"error: {where}: ") and path[-1] in err, err
