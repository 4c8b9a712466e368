import dataclasses
import hashlib
import json
import math
import os
import pickle
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dml_ope import (
    CampaignBatchCell,
    Estimator,
    ExperimentConfig,
    LoggedDataset,
    Policy,
    TabularMdp,
    ValidationError,
    cell_from_dict,
    dml_estimate,
    dr_full_estimate,
    evaluate_dataset,
    exact_policy_value,
    experiment_config_from_dict,
    fit_nuisance,
    ground_truth_value,
    ingest_jsonl,
    lift_policy,
    mdp_from_dict,
    mdp_to_dict,
    policy_to_dict,
    relative_rmse,
    relative_rmse_se,
    run_mse_experiment,
    sample_dataset,
    with_noise_states,
    write_jsonl,
)
from dml_ope import estimators, experiments, nuisance

from helpers import (NOISY_CONFIG, noisy_lift, random_mdp, random_policy, three_state_mdp,
                     three_state_policies)


def small_config(**overrides):
    mdp = three_state_mdp()
    behavior, evaluation = three_state_policies()
    defaults = dict(
        mdp=mdp,
        behavior_policy=behavior,
        evaluation_policy=evaluation,
        n_trajectories=80,
        replications=8,
        estimators=(Estimator.DML.value,),
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture
def serial_pool(monkeypatch):
    """A serial stand-in for the process pool, which starts no process: the list
    of the worker counts it is started with."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    return started


@st.composite
def logged_arrays(draw) -> LoggedDataset:
    """Random (N, T+1) label ids, finite rewards with their edge values, and
    propensities in (0, 1] or none."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)))

    def column(elements, dtype):
        cells = st.lists(elements, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
        return np.array(draw(cells), dtype=dtype).reshape(shape)

    labels = st.integers(0, np.iinfo(np.int64).max)
    rewards = st.one_of(st.sampled_from([-0.0, 5e-324, -1e-310, 1e308, -1e308]),
                        st.floats(allow_nan=False, allow_infinity=False))
    props = st.floats(0.0, 1.0, exclude_min=True)
    return LoggedDataset(
        states=column(labels, np.int64),
        actions=column(labels, np.int64),
        rewards=column(rewards, float),
        propensities=column(props, float) if draw(st.booleans()) else None,
    )


@st.composite
def repeating_arrays(draw) -> LoggedDataset:
    """(N, T+1) arrays of 1 to 9 steps whose cells come from small pools, so values
    repeat within a block; each pool holds its field's edge values."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 9)))

    def column(edges, elements, dtype):
        pool = edges + draw(st.lists(elements, max_size=3))
        cells = st.lists(st.sampled_from(pool), min_size=shape[0] * shape[1],
                         max_size=shape[0] * shape[1])
        return np.array(draw(cells), dtype=dtype).reshape(shape)

    int64_max = int(np.iinfo(np.int64).max)
    labels = st.integers(0, int64_max)
    return LoggedDataset(
        states=column([0, 1, int64_max], labels, np.int64),
        actions=column([0, int64_max], labels, np.int64),
        rewards=column([-0.0, 0.0, 5e-324, 1e308, -1e308],
                       st.floats(allow_nan=False, allow_infinity=False), float),
        propensities=(column([1.0, 5e-324], st.floats(0.0, 1.0, exclude_min=True), float)
                      if draw(st.booleans()) else None),
    )


def json_dumps_lines(data: LoggedDataset) -> str:
    """json.dumps of each row's {"steps": [{"s", "a", "r", "p"}, ...]} object, a line each."""
    props = data.propensities if data.propensities is not None else np.full(
        data.states.shape, None)
    return "".join(
        json.dumps({"steps": [{"s": s, "a": a, "r": r, "p": p} for s, a, r, p in zip(*row)]})
        + "\n"
        for row in zip(data.states.tolist(), data.actions.tolist(), data.rewards.tolist(),
                       props.tolist()))


class TestJsonlRoundTrip:
    @settings(deadline=None)
    @given(repeating_arrays(), st.integers(1, 3))
    def test_every_line_is_json_dumps_of_its_row(self, data, block_rows):
        # Blocks of 1-3 rows end inside the data, so cells shared across a block
        # boundary are encoded in both blocks.
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_WRITE_BLOCK_ROWS", block_rows)
            path = Path(tmp) / "data.jsonl"
            write_jsonl(data, path)
            text = path.read_text()
        assert text == json_dumps_lines(data)

    @settings(deadline=None)
    @given(logged_arrays())
    def test_round_trip_keeps_every_array(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            write_jsonl(data, path)
            loaded = ingest_jsonl(path)
        if data.propensities is None:
            assert loaded.propensities is None
        for field in ("states", "actions", "rewards", "propensities"):
            got, want = getattr(loaded, field), getattr(data, field)
            if want is not None:
                # Equal bytes: -0.0 keeps its sign and every subnormal its bits.
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def _round_trip(data: LoggedDataset, path: Path) -> None:
        """Write ``data`` to ``path``, check that each line is json.dumps of its row and
        that the fast path reads the file back to ``data``."""
        write_jsonl(data, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_ingest_lines", TestCanonicalIngest._refuse)
            lines, expected = path.read_text().splitlines(), json_dumps_lines(data).splitlines()
            differ = [k for k, (x, y) in enumerate(zip(lines, expected), 1) if x != y]
            assert len(lines) == len(expected) and not differ, f"lines {differ[:5]} differ"
            assert arrays_digest(ingest_jsonl(path)) == arrays_digest(data)

    def test_a_file_of_repeated_then_distinct_steps(self, tmp_path, monkeypatch):
        # Block 1 holds 2 distinct steps in 32 cells; block 2 holds 32 distinct values
        # in every field, more than half its cells.
        monkeypatch.setattr(experiments, "_WRITE_BLOCK_ROWS", 8)
        states = np.r_[np.tile([0, 7], 16), 2**62 + np.arange(32)]
        actions = np.r_[np.tile([1, 0], 16), np.arange(32) * 3]
        rewards = np.r_[np.tile([-0.0, 0.5], 16), np.linspace(-1e300, 1e-300, 32)]
        props = np.r_[np.tile([1.0, 5e-324], 16), np.arange(1, 33) / 33]
        data = LoggedDataset(*(x.reshape(16, 4) for x in (states, actions, rewards, props)))
        self._round_trip(data, tmp_path / "d.jsonl")

    @pytest.mark.parametrize("beyond", [-1, 0, 1], ids=["one_less", "equal", "one_more"])
    def test_an_id_range_at_the_block_cells(self, tmp_path, beyond):
        # 24 cells; ids from ``low`` to ``low + 24 + beyond``: below 24 they are read
        # by offset from ``low``, from 24 on by sorting. The highest is int64's.
        cells, high = 24, np.iinfo(np.int64).max
        low = high - (cells + beyond)
        ids = low + np.arange(cells) * (cells + beyond) // (cells - 1)
        assert (ids.min(), ids.max()) == (low, high)
        distinct, inverse = experiments._distinct(ids[::-1], cells)
        expected = np.unique(ids[::-1], return_inverse=True)
        assert np.array_equal(distinct, expected[0]) and np.array_equal(inverse, expected[1])
        data = LoggedDataset(ids.reshape(6, 4), np.tile([3, 0], 12).reshape(6, 4),
                             np.zeros((6, 4)))
        self._round_trip(data, tmp_path / "d.jsonl")
        self._round_trip(LoggedDataset(np.tile(ids[:2], 12).reshape(6, 4), ids.reshape(6, 4),
                                       np.ones((6, 4))), tmp_path / "e.jsonl")

    def test_a_64_step_block_whose_step_key_would_pass_int64(self, tmp_path):
        # 81,920 distinct steps, each twice: at most half the cells, but the product
        # of the fields' distinct counts passes 2**63, so no int64 key holds them.
        rows, width = 2560, 64
        step = np.arange(rows * width) % (rows * width // 2)
        data = LoggedDataset(step.reshape(rows, width),
                             (2**40 + 7919 * step).reshape(rows, width),
                             (step % 40000 * 0.25 - 3000.5).reshape(rows, width),
                             ((step % 39989 + 1) / 39989).reshape(rows, width))
        counts = [len(np.unique(x)) for x in (data.states, data.actions, data.rewards,
                                              data.propensities)]
        assert max(counts) <= rows * width // 2 and math.prod(counts) > 2**63
        self._round_trip(data, tmp_path / "d.jsonl")

    def test_a_block_of_distinct_steps_whose_step_key_would_pass_int64(self, tmp_path):
        # tools/ab.py's long_64 shape at the fewest 64-step rows whose fields' distinct
        # counts multiply past 2**63: every label, reward and propensity is distinct, so
        # no step repeats and no int64 key holds the steps.
        rows, width = 862, 64
        rng = np.random.default_rng(5)
        labels = rng.choice(2**62, size=(2, rows, width), replace=False)
        data = LoggedDataset(labels[0], labels[1], rng.standard_normal((rows, width)),
                             rng.uniform(0.01, 1.0, (rows, width)))
        counts = [len(np.unique(x)) for x in (data.states, data.actions, data.rewards,
                                              data.propensities)]
        assert counts == [rows * width] * 4
        assert ((rows - 1) * width)**4 < 2**63 < math.prod(counts)
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        assert path.read_text() == json_dumps_lines(data)
        assert arrays_digest(ingest_jsonl(path)) == arrays_digest(data)

    def test_write_then_ingest(self, tmp_path):
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 25, np.random.default_rng(1))
        path = tmp_path / "data.jsonl"
        write_jsonl(data, path)
        loaded = ingest_jsonl(path)
        assert np.array_equal(loaded.states, data.states)
        assert np.array_equal(loaded.actions, data.actions)
        assert np.array_equal(loaded.rewards, data.rewards)
        assert loaded.propensities is not None
        assert np.allclose(loaded.propensities, data.propensities, atol=1e-15)

    def test_string_labels_sorted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [
            {"steps": [{"s": "home", "a": "show", "r": 1.0}]},
            {"steps": [{"s": "cart", "a": "hide", "r": 0.0}]},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        data = ingest_jsonl(path)
        # "cart" < "home" and "hide" < "show" in sorted order.
        assert data.states[:, 0].tolist() == [1, 0]
        assert data.actions[:, 0].tolist() == [1, 0]
        assert data.propensities is None

    def test_ragged_horizon_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [
            {"steps": [{"s": 0, "a": 0, "r": 0.0}, {"s": 0, "a": 0, "r": 0.0}]},
            {"steps": [{"s": 0, "a": 0, "r": 0.0}]},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        with pytest.raises(ValidationError, match="line 2"):
            ingest_jsonl(path)

    def test_bad_propensity_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"steps": [{"s": 0, "a": 0, "r": 0.0, "p": 0.0}]}) + "\n")
        with pytest.raises(ValidationError, match="propensity"):
            ingest_jsonl(path)

    def test_missing_step_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"steps": [{"s": 0, "a": 0}]}) + "\n")
        with pytest.raises(ValidationError, match="line 1: step 0"):
            ingest_jsonl(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"steps": [\n')
        with pytest.raises(ValidationError, match="invalid JSON"):
            ingest_jsonl(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n")
        with pytest.raises(ValidationError, match="empty dataset"):
            ingest_jsonl(path)

    def test_partial_propensities_dropped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [
            {"steps": [{"s": 0, "a": 0, "r": 0.0, "p": 0.5}]},
            {"steps": [{"s": 0, "a": 0, "r": 0.0}]},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        assert ingest_jsonl(path).propensities is None

    def test_golden_bytes(self, tmp_path):
        data = LoggedDataset(
            states=[[0, 2], [1, 0]],
            actions=[[1, 0], [0, 1]],
            rewards=[[-0.6000000000000001, 1.0], [0.0, 2.5]],
            propensities=[[0.25, 1.0], [0.1, 0.75]],
        )
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        assert path.read_text() == (
            '{"steps": [{"s": 0, "a": 1, "r": -0.6000000000000001, "p": 0.25}, '
            '{"s": 2, "a": 0, "r": 1.0, "p": 1.0}]}\n'
            '{"steps": [{"s": 1, "a": 0, "r": 0.0, "p": 0.1}, '
            '{"s": 0, "a": 1, "r": 2.5, "p": 0.75}]}\n'
        )

    def test_golden_bytes_without_propensities(self, tmp_path):
        data = LoggedDataset(states=[[0, 2]], actions=[[1, 0]], rewards=[[-0.6000000000000001, 3]])
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        assert path.read_text() == (
            '{"steps": [{"s": 0, "a": 1, "r": -0.6000000000000001, "p": null}, '
            '{"s": 2, "a": 0, "r": 3.0, "p": null}]}\n'
        )

    def test_write_across_blocks(self, tmp_path):
        # More rows than one encoding block, so block boundaries are crossed.
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 9000, np.random.default_rng(2))
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 9000
        for i in (0, 4095, 4096, 8999):
            expected = [
                {"s": int(s), "a": int(a), "r": float(r), "p": float(p)}
                for s, a, r, p in zip(data.states[i], data.actions[i], data.rewards[i],
                                      data.propensities[i])
            ]
            assert lines[i] == json.dumps({"steps": expected})
        loaded = ingest_jsonl(path)
        assert np.array_equal(loaded.states, data.states)
        assert np.array_equal(loaded.rewards, data.rewards)

    @pytest.mark.parametrize("lines, match", [
        (['[{"s": 0, "a": 0, "r": 0.0}]'], "line 1: expected an object with a 'steps'"),
        (['{"steps": [{"s": 0, "a": 0, "r": "1.0"}]}'], "line 1: step 0: 'r' must be a number"),
        (['{"steps": [{"s": 0, "a": 0, "r": null}]}'], "line 1: step 0: 'r' must be a number"),
        (['{"steps": [{"s": 0, "a": 0, "r": true}]}'], "line 1: step 0: 'r' must be a number"),
        (['{"steps": [{"s": 0, "a": 0, "r": 1.0}, {"s": 0, "a": 0, "r": 0.0}]}',
          '{"steps": [{"s": 0, "a": 0, "r": 1.0}, {"s": 0, "a": 0, "r": NaN}]}'],
         "line 2: step 1: 'r' must be finite, got NaN"),
        (['{"steps": [{"s": 0, "a": 0, "r": -Infinity}]}'], "line 1: step 0: 'r' must be finite"),
        (['{"steps": [{"s": 0, "a": 0, "r": 0.0, "p": 0.5}]}',
          '{"steps": [{"s": 0, "a": 0, "r": 0.0, "p": "0.5"}]}'],
         "line 2: step 0: 'p' must be a number"),
        (['{"steps": [{"s": 0, "a": 0, "r": 1%s}]}' % ("0" * 400)],
         "line 1: step 0: 'r' is beyond the float range"),
    ], ids=["non_object_line", "string_r", "null_r", "bool_r", "nan_r", "infinite_r", "string_p",
            "huge_r"])
    def test_bad_value_names_line_and_field(self, tmp_path, lines, match):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=match):
            ingest_jsonl(path)

    @pytest.mark.parametrize("labels, match", [
        ([(True, 0)], "line 1: step 0: 's' must be an integer"),
        ([(0, 0), (1, False)], "line 2: step 0: 'a' must be an integer"),
        ([(0.5, 0)], "line 1: step 0: 's' must be an integer"),
        ([(0, 0), ("home", 0)], "line 2: step 0: 's' mixes integer and string"),
        ([(0, "show"), (0, 1)], "line 2: step 0: 'a' mixes integer and string"),
        ([(0, -1)], "line 1: step 0: 'a' integer action label -1"),
        ([(0, 0), (2**63, 0)], "line 2: step 0: 's' integer state label 9223372036854775808"),
    ], ids=["true_state", "false_action", "fractional_state", "mixed_states", "mixed_actions",
            "negative_action", "huge_state"])
    def test_bad_label_names_line_and_field(self, tmp_path, labels, match):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(
            json.dumps({"steps": [{"s": s, "a": a, "r": 0.0}]}) + "\n" for s, a in labels
        ))
        with pytest.raises(ValidationError, match=match):
            ingest_jsonl(path)


_CORPUS_BASE = LoggedDataset(
    states=[[0, 2, 1], [1, 1, 0], [2, 0, 0], [0, 1, 2], [1, 2, 2]],
    actions=[[1, 0, 1], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]],
    rewards=[[1.0, 0.0, -0.6000000000000001], [2.5, -0.0, 1.0], [0.0, 3.0, 1e-310],
             [1.0, 1.0, 0.0], [-2.0, 0.5, 1.0]],
    propensities=[[0.25, 1.0, 0.5], [0.1, 0.75, 0.3], [0.6, 0.4, 1.0], [0.5, 0.5, 0.2],
                  [0.9, 0.35, 0.15]],
)


def _redump(text: str, dump=json.dumps, edit=lambda line, step, st: st, lines=None) -> str:
    """``text``'s lines decoded and written again by ``dump``, each step passed
    through ``edit(line, step, step_dict)``; ``lines`` picks the lines to rewrite."""
    out = []
    for i, line in enumerate(text.splitlines()):
        if lines is None or i in lines:
            steps = [edit(i, j, st) for j, st in enumerate(json.loads(line)["steps"])]
            line = dump({"steps": steps})
        out.append(line + "\n")
    return "".join(out)


def _set(line: int, step: int, key: str, value):
    """An ``edit`` for ``_redump`` that sets ``key`` of one step to ``value``."""
    return lambda i, j, st: {**st, key: value} if (i, j) == (line, step) else st


# Edits that turn a file of write_jsonl into a valid JSONL file that write_jsonl
# never writes.
NON_CANONICAL_EDITS = {
    "keys_reordered": lambda t: _redump(t, edit=lambda i, j, st: dict(reversed(st.items()))),
    "compact_separators": lambda t: _redump(t, lambda o: json.dumps(o, separators=(",", ":"))),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "blank_lines": lambda t: "\n" + t.replace("\n", "\n\n"),
    "trailing_spaces": lambda t: t.replace("\n", "  \n"),
    "integer_rewards": lambda t: _redump(t, edit=lambda i, j, st: {
        **st, "r": int(st["r"]) if float(st["r"]).is_integer() else st["r"]}),
    "string_labels": lambda t: _redump(t, edit=lambda i, j, st: {
        **st, "s": f"state{st['s']}", "a": {0: "show", 1: "hide"}.get(st["a"], str(st["a"]))}),
    "p_omitted": lambda t: _redump(t, edit=lambda i, j, st: {k: st[k] for k in "sar"}),
    "p_null_on_one_step": lambda t: _redump(t, edit=_set(t.count("\n") - 1, 0, "p", None)),
    "last_line_respaced": lambda t: _redump(
        t, lambda o: json.dumps(o, separators=(",", ":")), lines={t.count("\n") - 1}),
}


def _drop_last_step(text: str) -> str:
    *head, last = text.splitlines(keepends=True)
    obj = json.loads(last)
    obj["steps"].pop()
    return "".join(head) + json.dumps(obj) + "\n"


# Edits after which json.dumps still writes each line in write_jsonl's form: the
# first five are invalid values, the next a step with an unknown key in place of
# 'r', and the last two a width or propensities that change from line to line.
CANONICAL_LOOKING_EDITS = {
    "zero_p": lambda t: _redump(t, edit=_set(0, 0, "p", 0.0)),
    "nan_r": lambda t: _redump(t, edit=_set(0, 0, "r", float("nan"))),
    "negative_label": lambda t: _redump(t, edit=_set(0, 0, "a", -1)),
    "label_past_int64": lambda t: _redump(t, edit=_set(0, 0, "s", 2**63)),
    "boolean_label": lambda t: _redump(t, edit=_set(0, 0, "s", True)),
    "r_key_renamed": lambda t: _redump(t, edit=lambda i, j, st: {
        k if (i, j, k) != (0, 0, "r") else "reward": v for k, v in st.items()}),
    "p_null_after_the_first_line": lambda t: _redump(
        t, edit=lambda i, j, st: {**st, "p": None} if i else st),
    "last_line_one_step_short": _drop_last_step,
}
FILE_EDITS = {**NON_CANONICAL_EDITS, **CANONICAL_LOOKING_EDITS}


def _respell(key: str, text: str, step: int = 0):
    """An edit of ``(text, line)`` that writes ``text`` in place of ``key``'s value
    at ``step`` of ``line``, leaving every other byte as it was."""
    def edit(t: str, line: int) -> str:
        lines = t.splitlines(keepends=True)
        value = list(re.finditer(f'"{key}": ([^,}}]*)', lines[line]))[step]
        lines[line] = lines[line][:value.start(1)] + text + lines[line][value.end(1):]
        return "".join(lines)
    return edit


def _replace_once(old: str, new: str):
    """An edit of ``(text, line)`` that replaces the first ``old`` of ``line``."""
    def edit(t: str, line: int) -> str:
        lines = t.splitlines(keepends=True)
        assert old in lines[line]
        lines[line] = lines[line].replace(old, new, 1)
        return "".join(lines)
    return edit


# Edits of one line of a file of write_jsonl that leave it one text or one byte
# away from the writer's: an id or a float that JSON reads alike but json.dumps
# never writes, or that JSON refuses; one null among numbers; one byte of a
# separator; and white space.
NEAR_CANONICAL_EDITS = {
    **{f"{key}_{text}": _respell(key, text) for key in "sa"
       for text in ("007", "-0", "+1", "1.0")},
    **{f"{key}_{text}": _respell(key, text) for key in "rp"
       for text in ("1.50", "1e-05", "0.10", "+0.5", ".5", "5.", "1_0.5", "NaN", "Infinity",
                    "1e400")},
    "p_null_among_numbers": _respell("p", "null", step=1),
    "a_key_to_b": _replace_once(', "a": ', ', "b": '),
    "s_key_to_t": _replace_once('}, {"s": ', '}, {"t": '),
    "line_end_brace_to_bracket": _replace_once("}]}", "}]]"),
    "line_start_space_to_digit": _replace_once('[{"s": ', '[{"s":1'),
    "step_start_space_to_digit": _replace_once('}, {"s": ', '}, {"s":1'),
    "r_nul_after": _respell("r", "1.0\0"),
    "doubled_space": _replace_once('"r": ', '"r":  '),
    "tab": _replace_once('"r": ', '"r":\t'),
    "crlf": _replace_once("\n", "\r\n"),
}


def arrays_digest(data: LoggedDataset) -> str:
    """The sha256 of a dataset's four arrays: dtype, shape and bytes, or "none"."""
    h = hashlib.sha256()
    for x in (data.states, data.actions, data.rewards, data.propensities):
        h.update(b"none" if x is None else f"{x.dtype}{x.shape}".encode() + x.tobytes())
    return h.hexdigest()


class TestGeneralParserPins:
    """The arrays and messages of files that are valid or invalid JSONL but that
    write_jsonl does not write as they are, pinned on the line-by-line parser."""

    # _CORPUS_BASE itself, and without its propensities.
    BASE_DIGEST = "fa97c8d6b7c1137bfa6296f9db388eedac9947f24d0cf581840a63e6f5ac9dc6"
    NO_P_DIGEST = "d3502f626b6af6600766508b046ac9e57fe63f959138d0c49734b829317150cd"

    @pytest.mark.parametrize("block_rows", [2, 4096])
    @pytest.mark.parametrize("edit, expected", [
        ("keys_reordered", BASE_DIGEST),
        ("compact_separators", BASE_DIGEST),
        ("crlf", BASE_DIGEST),
        ("blank_lines", BASE_DIGEST),
        ("trailing_spaces", BASE_DIGEST),
        ("integer_rewards", "047519f14fb3d3f2f2a5d18981f542223181b2442a9097c85c35837790ac501b"),
        ("string_labels", "be39947b204ce90d3d7779e40a308652d5469f4ea673d149aedad588a2c8a38f"),
        ("p_omitted", NO_P_DIGEST),
        ("p_null_on_one_step", NO_P_DIGEST),
        ("last_line_respaced", BASE_DIGEST),
    ])
    def test_non_canonical_file_arrays(self, tmp_path, monkeypatch, block_rows, edit, expected):
        monkeypatch.setattr(experiments, "_WRITE_BLOCK_ROWS", block_rows)
        path = tmp_path / "d.jsonl"
        write_jsonl(_CORPUS_BASE, path)
        path.write_bytes(NON_CANONICAL_EDITS[edit](path.read_text()).encode())
        assert arrays_digest(ingest_jsonl(path)) == expected

    @pytest.mark.parametrize("block_rows", [2, 4096])
    @pytest.mark.parametrize("line, step, key, value, message", [
        (3, 1, "p", 0.0, "line 4: step 1: 'p' propensity must lie in (0, 1], got 0.0"),
        (1, 2, "r", float("nan"), "line 2: step 2: 'r' must be finite, got NaN"),
        (4, 0, "a", -1, "line 5: step 0: 'a' integer action label -1 is negative or too large"),
        (2, 2, "s", 2**63, "line 3: step 2: 's' integer state label 9223372036854775808 "
                           "is negative or too large"),
        (0, 1, "s", True, "line 1: step 1: 's' must be an integer or string state label, "
                          "got true"),
    ], ids=["zero_p", "nan_r", "negative_label", "label_past_int64", "boolean_label"])
    def test_canonical_looking_bad_file_message(self, tmp_path, monkeypatch, block_rows,
                                                line, step, key, value, message):
        # json.dumps writes each bad value in the writer's own form, so only the
        # value rules tell these files from write_jsonl's.
        monkeypatch.setattr(experiments, "_WRITE_BLOCK_ROWS", block_rows)
        path = tmp_path / "d.jsonl"
        write_jsonl(_CORPUS_BASE, path)
        path.write_text(_redump(path.read_text(), edit=_set(line, step, key, value)))
        with pytest.raises(ValidationError) as info:
            ingest_jsonl(path)
        assert str(info.value) == f"{path}: {message}"


def _outcome(read, path) -> tuple:
    """What ``read(path)`` gives: its arrays' digest, or its ValidationError's message."""
    try:
        return "arrays", arrays_digest(read(path))
    except ValidationError as exc:
        return "error", str(exc)


# A mutation's byte: one of the bytes JSON numbers, literals and the writer's
# separators are made of, or any byte.
MUTATION_BYTES = st.one_of(st.sampled_from(b'0123456789+-.eE{}[]":, \n\rnulatrsfNIy'),
                           st.integers(0, 255))


def _prove_accepted_chunks(mp) -> None:
    """Make ``_canonical_chunk`` assert, of every chunk it accepts, that the
    writer's blocks of the arrays it read give back the chunk's exact bytes."""
    check = experiments._canonical_chunk

    def checked(text: bytes):
        arrays = check(text)
        assert arrays is None or "".join(experiments._jsonl_blocks(*arrays)).encode() == text
        return arrays
    mp.setattr(experiments, "_canonical_chunk", checked)


# Read sizes at which lines straddle the reads, and outgrow them.
READ_BYTES = st.sampled_from([1, 7, 64])


class TestCanonicalIngest:
    """``ingest_jsonl`` reads write_jsonl's files by ``_canonical_chunk`` and
    every file as ``_ingest_lines`` reads it; every chunk that the fast path
    accepts is checked to be the writer's bytes."""

    @pytest.fixture(autouse=True)
    def prove(self, monkeypatch):
        _prove_accepted_chunks(monkeypatch)

    @settings(deadline=None)
    @given(st.one_of(logged_arrays(), repeating_arrays()), st.integers(1, 3), READ_BYTES)
    def test_writer_output_takes_the_fast_path(self, data, block_rows, read_bytes):
        def refuse(path):
            raise AssertionError(f"{path} was read line by line")

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_WRITE_BLOCK_ROWS", block_rows)
            mp.setattr(experiments, "_READ_BYTES", read_bytes)
            mp.setattr(experiments, "_ingest_lines", refuse)
            path = Path(tmp) / "data.jsonl"
            write_jsonl(data, path)
            assert arrays_digest(ingest_jsonl(path)) == arrays_digest(data)

    @settings(deadline=None, max_examples=250)
    @given(st.one_of(logged_arrays(), repeating_arrays()), st.integers(1, 3), READ_BYTES,
           st.data())
    def test_a_mutated_file_reads_as_the_line_parser_reads_it(self, data, block_rows,
                                                              read_bytes, draws):
        # One byte deleted, inserted or replaced, or one corpus edit, anywhere in a
        # file of blocks of 1-3 rows.
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_WRITE_BLOCK_ROWS", block_rows)
            mp.setattr(experiments, "_READ_BYTES", read_bytes)
            path = Path(tmp) / "data.jsonl"
            write_jsonl(data, path)
            text = path.read_bytes()
            if draws.draw(st.booleans()):
                edit = FILE_EDITS[draws.draw(st.sampled_from(sorted(FILE_EDITS)))]
                text = edit(text.decode()).encode()
            else:
                kind = draws.draw(st.sampled_from(["delete", "insert", "replace"]))
                at = draws.draw(st.integers(0, len(text) - (kind != "insert")))
                byte = b"" if kind == "delete" else bytes([draws.draw(MUTATION_BYTES)])
                text = text[:at] + byte + text[at + (kind != "insert"):]
            path.write_bytes(text)
            assert _outcome(ingest_jsonl, path) == _outcome(experiments._ingest_lines, path)

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @pytest.mark.parametrize("edit", sorted(FILE_EDITS))
    def test_a_corpus_edit_reads_as_the_line_parser_reads_it(self, tmp_path, monkeypatch,
                                                             block_rows, edit):
        monkeypatch.setattr(experiments, "_WRITE_BLOCK_ROWS", block_rows)
        path = tmp_path / "d.jsonl"
        write_jsonl(_CORPUS_BASE, path)
        path.write_bytes(FILE_EDITS[edit](path.read_text()).encode())
        assert _outcome(ingest_jsonl, path) == _outcome(experiments._ingest_lines, path)

    @pytest.mark.parametrize("line", [0, 4])
    @pytest.mark.parametrize("edit", sorted(NEAR_CANONICAL_EDITS))
    def test_a_near_canonical_file_reads_as_the_line_parser_reads_it(self, tmp_path, line,
                                                                      edit):
        path = tmp_path / "d.jsonl"
        write_jsonl(_CORPUS_BASE, path)
        path.write_bytes(NEAR_CANONICAL_EDITS[edit](path.read_text(), line).encode())
        assert _outcome(ingest_jsonl, path) == _outcome(experiments._ingest_lines, path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda t: _respell("p", "0.5", step=2)(t, 3), id="p_number_among_nulls"),
        pytest.param(lambda t: t[:-1], id="last_line_without_newline"),
    ])
    @pytest.mark.parametrize("propensities", [True, False])
    def test_a_file_edit_reads_as_the_line_parser_reads_it(self, tmp_path, edit, propensities):
        data = _CORPUS_BASE if propensities else dataclasses.replace(_CORPUS_BASE,
                                                                     propensities=None)
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        path.write_bytes(edit(path.read_text()).encode())
        assert _outcome(ingest_jsonl, path) == _outcome(experiments._ingest_lines, path)

    @pytest.mark.parametrize("propensities", [False, True],
                             ids=["null_p_fast_path", "distinct_p_line_parser"])
    def test_a_block_of_mostly_distinct_floats_is_read_line_by_line(self, tmp_path,
                                                                    monkeypatch, propensities):
        # 2,000 distinct rewards in one block, one distinct float text per step, are
        # read faster by the fast path; with 2,000 distinct propensities, two per
        # step, parsing the lines is faster than reading each text with float.
        rng = np.random.default_rng(3)
        data = LoggedDataset(states=np.zeros((1000, 2), dtype=np.int64),
                             actions=np.zeros((1000, 2), dtype=np.int64),
                             rewards=rng.standard_normal((1000, 2)),
                             propensities=rng.uniform(0.01, 1.0, (1000, 2)) if propensities
                             else None)
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        ingest_lines, read = experiments._ingest_lines, []
        monkeypatch.setattr(experiments, "_ingest_lines",
                            lambda p: read.append(p) or ingest_lines(p))
        assert arrays_digest(ingest_jsonl(path)) == arrays_digest(data)
        assert read == ([path] if propensities else [])

    @pytest.mark.parametrize("data", [
        LoggedDataset(states=[[9223372036854775807, 0], [1, 9223372036854775806]],
                      actions=[[0, 9223372036854775807], [1000000000000000000, 1]],
                      rewards=[[1.0, 0.0], [0.5, 2.0]]),
        LoggedDataset(states=[[0, 1], [1, 0]], actions=[[0, 1], [1, 1]],
                      rewards=[[-2.2250738585072014e-308, 2.2250738585072014e-308],
                               [-1.7976931348623157e+308, -5e-324]],
                      propensities=[[2.2250738585072014e-308, 1.0],
                                    [0.30000000000000004, 5e-324]]),
        LoggedDataset(states=[[0, 1], [1, 0]], actions=[[0, 1], [1, 1]],
                      rewards=[[-0.0, 0.0], [0.0, -0.0]], propensities=[[1.0, 0.5], [0.5, 1.0]]),
        LoggedDataset(states=[[0, 1], [1, 0]], actions=[[0, 1], [1, 1]],
                      rewards=[[1.0, 0.0], [0.5, 2.0]]),
    ], ids=["int64_max_labels", "24_byte_floats", "signed_zeros", "all_null_p"])
    def test_an_edge_value_takes_the_fast_path(self, tmp_path, monkeypatch, data):
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        expected = arrays_digest(experiments._ingest_lines(path))
        assert expected == arrays_digest(data)
        monkeypatch.setattr(experiments, "_ingest_lines", TestCanonicalIngest._refuse)
        assert arrays_digest(ingest_jsonl(path)) == expected

    def test_floats_that_share_a_key_are_read_line_by_line(self, tmp_path, monkeypatch):
        # A multiplier of 0 keys a text by its last 8-byte word alone, so these two
        # rewards share a key; a collision of the real key is as good as unfindable.
        data = LoggedDataset(states=[[0, 1]], actions=[[1, 0]],
                             rewards=[[10000001.5, 20000001.5]])
        monkeypatch.setattr(experiments, "_KEY_MULTIPLIER", np.uint64(0))
        buf = np.frombuffer(b"10000001.5 20000001.5", np.uint8)
        keys = experiments._text_keys(buf, np.array([0, 11]), np.array([10, 10]))
        assert keys[0] == keys[1]
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        ingest_lines, read = experiments._ingest_lines, []
        monkeypatch.setattr(experiments, "_ingest_lines",
                            lambda p: read.append(p) or ingest_lines(p))
        assert arrays_digest(ingest_jsonl(path)) == arrays_digest(data)
        assert read == [path]

    def test_the_key_tells_near_texts_apart(self):
        # The last text ends the buffer, so its word is read from the last 8 bytes.
        texts = [b"10000001.5", b"20000001.5", b"0.1", b"0.10", b"-0.0", b"0.0", b"null",
                 b"-2.2250738585072014e-308", b"-2.2250738585072014e-307",
                 b"1.2345678901234567", b"1.2345678901234576", b"0.1"]
        starts = np.cumsum([0] + [len(t) + 1 for t in texts[:-1]])
        buf = np.frombuffer(b" ".join(texts), np.uint8)
        keys = experiments._text_keys(buf, starts, np.array([len(t) for t in texts])).tolist()
        assert len(set(keys)) == len(texts) - 1 and keys[2] == keys[-1]

    @staticmethod
    def _refuse(path):
        raise AssertionError(f"{path} was read line by line")

    def test_a_pipe_is_opened_once(self, tmp_path):
        path, pipe = tmp_path / "d.jsonl", tmp_path / "pipe"
        write_jsonl(_CORPUS_BASE, path)
        os.mkfifo(pipe)
        loaded = []

        def feed():
            with open(pipe, "wb") as fh:
                fh.write(path.read_bytes())

        threads = [threading.Thread(target=feed, daemon=True),
                   threading.Thread(target=lambda: loaded.append(ingest_jsonl(pipe)),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert [arrays_digest(x) for x in loaded] == [TestGeneralParserPins.BASE_DIGEST]


class TestNoiseStates:
    def test_value_preserved_under_lifting(self):
        mdp = three_state_mdp()
        _, evaluation = three_state_policies()
        base_value = exact_policy_value(mdp, evaluation)
        for z in (1, 2, 5):
            big = with_noise_states(mdp, z, seed=4)
            lifted = lift_policy(evaluation, z)
            assert exact_policy_value(big, lifted) == pytest.approx(base_value, abs=1e-10)

    def test_product_dimensions(self):
        big = with_noise_states(three_state_mdp(), 4, seed=0)
        assert big.num_states == 12
        assert big.transitions.shape == (12, 2, 12)
        assert abs(big.initial_dist.sum() - 1.0) < 1e-12

    def test_rewards_ignore_noise_coordinate(self):
        mdp = three_state_mdp()
        big = with_noise_states(mdp, 3, seed=0)
        for s in range(3):
            for z in range(3):
                for a in range(2):
                    assert np.array_equal(big.reward_support[s * 3 + z, a],
                                          mdp.reward_support[s, a])
                    assert np.array_equal(big.reward_probs[s * 3 + z, a], mdp.reward_probs[s, a])

    def test_rejects_zero_noise_states(self):
        with pytest.raises(ValidationError):
            with_noise_states(three_state_mdp(), 0)


class TestEvaluateDataset:
    def test_all_estimators_run(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 60, np.random.default_rng(3))
        names = tuple(e.value for e in Estimator)
        results = evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(4))
        assert set(results) == set(names)
        for est in results.values():
            assert np.isfinite(est.value)
            assert est.ci_low <= est.value <= est.ci_high

    @pytest.mark.parametrize("known, k_folds, expected", [
        (False, 3, {
            "dm": (1.6100684668585297, 0.00046115466658995394, 0.0030369546147084713,
                   [1.6041161451910184, 1.616020788526041], 50),
            "ipw": (1.622406033130107, 1.5913760310990803, 0.17840269230586628,
                    [1.272743181465628, 1.9720688847945858], 50),
            "dr_full": (1.5656610294637796, 0.7036363695042553, 0.11862852688154357,
                        [1.3331533892369125, 1.7981686696906467], 50),
            "dr_half": (1.634157150764492, 0.9180269308305238, 0.1916274438414836,
                        [1.2585742623857126, 2.0097400391432716], 25),
            "dml": (1.561937171087506, 1.007223142682025, 0.14193119055951198,
                    [1.2837571493079714, 1.8401171928670408], 50),
        }),
        (True, 2, {
            "dm": (1.6100684668585297, 0.00046115466658995394, 0.0030369546147084713,
                   [1.6041161451910184, 1.616020788526041], 50),
            "ipw": (1.7409113819241986, 1.7873941069094301, 0.18907110339284688,
                    [1.37033882875697, 2.111483935091427], 50),
            "dr_full": (1.5767662171602637, 0.6853504767114239, 0.11707693852432459,
                        [1.3472996342323775, 1.8062328000881498], 50),
            "dr_half": (1.5778242801474627, 0.7529592418055767, 0.17354644816942544,
                        [1.2376794920905416, 1.9179690682043837], 25),
            "dml": (1.5593383047352918, 0.7445460645872133, 0.12202836265288601,
                    [1.3201671088432427, 1.7985095006273408], 50),
        }),
    ], ids=["estimated_behavior_k3", "known_behavior_k2"])
    def test_golden_reports(self, known, k_folds, expected):
        # Exact reports of all five estimators, pinned so that refactors of the
        # nuisance fit and the dispatch keep every number to the last bit.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 50, np.random.default_rng(11))
        names = tuple(e.value for e in Estimator)
        results = evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(12),
                                   known_behavior=behavior if known else None, k_folds=k_folds)
        assert {name: est.to_dict() for name, est in results.items()} == {
            name: {"estimator": name, "value": value, "variance": variance,
                   "std_error": std_error, "ci": ci, "level": 0.95, "n": n}
            for name, (value, variance, std_error, ci, n) in expected.items()
        }

    @pytest.mark.parametrize("known, expected", [
        (False, "f1d9a0abb931727a71d15ceb3796338eb4a00a5b24aea56ad2c20aa6b9c722b0"),
        (True, "a43b0df57d792674d3df9a4a8270719c25053eacb17f3faa3ddb7943f04722da"),
    ], ids=["estimated_behavior", "known_behavior"])
    def test_lift_report_digests(self, known, expected):
        # All five reports at k=5 on 2000 rows of the 240-state lift, pinned to
        # the last bit: with 480 cells a mis-strided table index shows.
        mdp, behavior, evaluation = noisy_lift()
        data = sample_dataset(mdp, behavior, 2000, np.random.default_rng(5))
        names = tuple(e.value for e in Estimator)
        results = evaluate_dataset(data, evaluation, mdp.discount, names,
                                   np.random.default_rng(6),
                                   known_behavior=behavior if known else None, k_folds=5)
        text = json.dumps({name: est.to_dict() for name, est in results.items()},
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == expected

    @pytest.mark.parametrize("known, expected", [
        (False, "be36042c3a7962b8235c727245c04125fdb219428b35b4d6340728098ca61ef4"),
        (True, "9faf720896fb86700cf5452178b01c0e16997c94a914ab344217b7c1d4c629a4"),
    ], ids=["estimated_behavior", "known_behavior"])
    def test_lift_report_digests_across_row_blocks(self, known, expected):
        # All five reports at k=5 on 3 * 8192 + 5 rows of the 240-state lift,
        # pinned to the last bit: the full-data walk of IPW and DR-full crosses
        # three edges of the step walk's 8,192-row blocks, and DR-half's one.
        mdp, behavior, evaluation = noisy_lift()
        data = sample_dataset(mdp, behavior, 3 * 8192 + 5, np.random.default_rng(5))
        names = tuple(e.value for e in Estimator)
        results = evaluate_dataset(data, evaluation, mdp.discount, names,
                                   np.random.default_rng(6),
                                   known_behavior=behavior if known else None, k_folds=5)
        text = json.dumps({name: est.to_dict() for name, est in results.items()},
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == expected

    def test_fold_splits_do_not_depend_on_the_other_estimators(self):
        # DML and DR-half draw their fold splits from streams of their own, so
        # each report is the same alone, beside the other, or beside dm, ipw and
        # dr_full, in any order.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 50, np.random.default_rng(11))

        def reports(names):
            results = evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(12))
            return {name: est.to_dict() for name, est in results.items()}

        alone = {**reports(("dml",)), **reports(("dr_half",))}
        for names in [("dml", "dr_half"), ("dr_half", "dml"), ("dr_half", "ipw"),
                      ("dm", "ipw", "dr_full", "dr_half", "dml"),
                      ("dml", "dr_full", "ipw", "dm", "dr_half")]:
            listed = reports(names)
            assert {name: listed[name] for name in alone if name in names} == {
                name: alone[name] for name in alone if name in names}

    def test_dr_full_on_shared_fit_equals_a_fresh_fit(self):
        # DR-full scores on the full-data fit that DM and IPW share; scoring on
        # a fit made for DR-full alone gives the same report.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 60, np.random.default_rng(3))
        results = evaluate_dataset(data, evaluation, 0.9, ("dm", "dr_full"),
                                   np.random.default_rng(4))
        fresh = dr_full_estimate(data, fit_nuisance(data, evaluation, 0.9), evaluation, 0.9)
        assert results["dr_full"].to_dict() == fresh.to_dict()

    @pytest.mark.parametrize("states, actions, behavior, match", [
        ([[0], [3]], [[0], [1]], None,
         r"'s' id 3 is outside the evaluation policy table of 3 states"),
        ([[0], [-1]], [[0], [1]], Policy(table=[[0.5, 0.5]] * 3),
         r"'s' id -1 is outside the evaluation policy table of 3 states"),
        ([[0], [1]], [[1], [0]], Policy(table=[[1.0]] * 3),
         r"'a' id 1 is outside the behavior policy table of 1 actions"),
    ], ids=["state_outside_eval", "negative_state", "action_outside_behavior"])
    def test_id_outside_policy_table_rejected(self, states, actions, behavior, match):
        _, evaluation = three_state_policies()
        data = LoggedDataset(states=states, actions=actions, rewards=[[1.0], [0.0]])
        with pytest.raises(ValidationError, match=match):
            evaluate_dataset(data, evaluation, 0.9, ("ipw", "dml"), np.random.default_rng(0),
                             known_behavior=behavior)

    def test_unknown_estimator_rejected(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="^estimators: unknown estimator 'magic'$"):
            evaluate_dataset(data, evaluation, 0.9, ("magic",), np.random.default_rng(0))

    @pytest.mark.parametrize("names, match", [
        ((), "estimators: name at least one estimator"),
        (("ipw", "ipw"), "estimators: estimator 'ipw' is given more than once"),
    ], ids=["empty", "repeated"])
    def test_empty_or_repeated_estimators_rejected(self, names, match):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=match):
            evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(0))

    def test_known_behavior_shape_must_match_the_evaluation_policy(self, monkeypatch):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(0))
        wider = Policy(table=[[0.5, 0.5]] * 4)
        monkeypatch.setattr("dml_ope.estimators._fit", None)
        monkeypatch.setattr("dml_ope.nuisance._fit", None)  # the cross-fits' name
        with pytest.raises(ValidationError, match=re.escape(
                "the behavior policy table has shape (4, 2), the evaluation policy table (3, 2)")):
            evaluate_dataset(data, evaluation, 0.9, ("ipw", "dml"), np.random.default_rng(0),
                             known_behavior=wider)

    @pytest.mark.parametrize("discount", [1.5, -1.0, float("nan")])
    def test_discount_outside_unit_interval_rejected(self, discount, monkeypatch):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(0))
        # The check comes before any fit.
        monkeypatch.setattr("dml_ope.estimators._fit", None)
        monkeypatch.setattr("dml_ope.nuisance._fit", None)  # the cross-fits' name
        with pytest.raises(ValidationError,
                           match=rf"discount must lie in \[0, 1\], got {discount!r}"):
            evaluate_dataset(data, evaluation, discount, tuple(e.value for e in Estimator),
                             np.random.default_rng(0))

    @pytest.mark.parametrize("names, changes, match", [
        (("ipw",), {"k_folds": 1}, r"k_folds must lie in \[2, 50\] for 50 rows, got 1"),
        (("dm", "ipw", "dr_full"), {"k_folds": 500},
         r"k_folds must lie in \[2, 50\] for 50 rows, got 500"),
        (("dml",), {"k_folds": 2.5}, r"^k_folds must be an integer, got 2\.5$"),
        (("dml",), {"level": float("nan")}, r"level must lie in \(0, 1\), got nan"),
        (("dr_full", "dr_half"), {"level": 1.0}, r"level must lie in \(0, 1\), got 1.0"),
    ], ids=["one_fold_ipw", "folds_above_rows", "fractional_folds", "level_nan_dml",
            "level_1"])
    def test_folds_and_level_checked_before_any_fit(self, names, changes, match, monkeypatch):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 50, np.random.default_rng(0))
        fits = []
        fit = estimators._fit
        # DML fits through nuisance._fit, the others through estimators._fit.
        for module in (estimators, nuisance):
            monkeypatch.setattr(module, "_fit", lambda *a, **k: fits.append(1) or fit(*a, **k))
        with pytest.raises(ValidationError, match=match):
            evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(0), **changes)
        assert len(fits) == 0
        # The counter sees the fits of a valid call.
        evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(0))
        assert len(fits) > 0


class TestMseExperiment:
    def test_mse_decomposition(self):
        report = run_mse_experiment(small_config(estimators=(
            Estimator.DML.value, Estimator.IPW.value,
        )))
        for res in report.results.values():
            assert res.mse == pytest.approx(res.bias**2 + res.variance, abs=1e-9)

    def test_deterministic_given_seed(self):
        a = run_mse_experiment(small_config())
        b = run_mse_experiment(small_config())
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_golden_report(self, monkeypatch, threads):
        # The exact report of all five estimators on a lifted scenario, pinned
        # so that refactors of the replication loop keep every number to the
        # last bit, whatever the worker count.
        monkeypatch.setenv("OPE_DML_THREADS", threads)
        config = small_config(replications=5, noise_states=2,
                              estimators=tuple(e.value for e in Estimator))
        expected = {
            "dm": (0.004403230113240969, 0.002552592337097819, 0.015018849990010574,
                   0.0041776642582185275),
            "dml": (0.009716233719799511, 0.004044765901463048, 0.02360893462963287,
                    0.009158851925453229),
            "dr_full": (0.008282966000540477, 0.003766359269306115, 0.025929662066458192,
                        0.007610618625659751),
            "dr_half": (0.05540871914861981, 0.020784993994229936, 0.03460419373745505,
                        0.054211268924400494),
            "ipw": (0.020730830190644867, 0.005593177720371591, 0.00035610535857388825,
                    0.020730703379618465),
        }
        assert run_mse_experiment(config).to_dict() == {
            "ground_truth": 1.460341175,
            "replications": 5,
            "n_trajectories": 80,
            "results": {
                name: {"estimator": name, "mse": mse, "se_of_mse": se, "bias": bias,
                       "variance": variance, "replications": 5}
                for name, (mse, se, bias, variance) in expected.items()
            },
        }

    def test_results_do_not_depend_on_the_other_estimators(self):
        def results(names):
            return run_mse_experiment(small_config(replications=3, estimators=names)).results

        alone = {**results(("dml",)), **results(("dr_half",))}
        for names in [("dr_half", "dml"), ("ipw", "dml", "dm", "dr_half")]:
            listed = results(names)
            assert {name: listed[name] for name in alone} == alone

    @pytest.mark.parametrize("replications", [6, 5, 1])
    def test_report_independent_of_worker_count(self, monkeypatch, replications):
        # 5 splits unevenly over 2 workers; 1 leaves a worker with nothing to do.
        config = small_config(replications=replications, estimators=("dml", "ipw", "dr_half"))
        monkeypatch.setenv("OPE_DML_THREADS", "1")
        one = json.dumps(run_mse_experiment(config).to_dict(), sort_keys=True)
        monkeypatch.setenv("OPE_DML_THREADS", "2")
        two = json.dumps(run_mse_experiment(config).to_dict(), sort_keys=True)
        assert one == two

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_workers_clamped_to_the_cpu_count(self, monkeypatch, serial_pool, cpus, workers):
        config = small_config(replications=8, estimators=("dml", "ipw"))
        monkeypatch.setenv("OPE_DML_THREADS", "1")
        one = json.dumps(run_mse_experiment(config).to_dict(), sort_keys=True)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("OPE_DML_THREADS", "64")
        many = json.dumps(run_mse_experiment(config).to_dict(), sort_keys=True)
        # One block runs in-process and starts no pool.
        assert serial_pool == ([] if workers == 1 else [workers])
        assert many == one

    @pytest.mark.parametrize("threads, blocks", [("1", 1), ("2", 2)])
    def test_each_block_builds_the_lift_once_and_nothing_else_does(
            self, monkeypatch, serial_pool, threads, blocks):
        # The truth comes from a block's own scenario: the study built one more
        # lift for it, 2 on one worker and 3 on two.
        built = []
        lift = experiments.with_noise_states

        def counted(*args, **kwargs):
            built.append(args)
            return lift(*args, **kwargs)

        monkeypatch.setattr(experiments, "with_noise_states", counted)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("OPE_DML_THREADS", threads)
        config = small_config(replications=4, noise_states=3)
        report = run_mse_experiment(config)
        assert len(built) == blocks
        assert serial_pool == ([] if blocks == 1 else [blocks])
        assert report.ground_truth == ground_truth_value(config)

    def test_a_task_does_not_grow_with_the_replications(self, monkeypatch, serial_pool):
        # A block is an index range, so a pool task pickles the config and two
        # bounds; a list of per-replication seeds would grow with the count.
        sizes = []
        run = experiments._run_replications

        def measured(config, reps):
            sizes.append(len(pickle.dumps((config, reps))))
            return run(config, reps)

        monkeypatch.setattr(experiments, "_run_replications", measured)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("OPE_DML_THREADS", "2")
        for replications in (8, 64):
            run_mse_experiment(small_config(replications=replications))
        assert serial_pool == [2, 2]
        assert len(sizes) == 4 and len(set(sizes)) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_study_spawns_no_seed_list(self, monkeypatch, serial_pool, threads):
        # Replication r's streams come from its index: the golden report comes
        # out with every seed sequence's spawn refused.
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("the study spawned a seed sequence")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        self.test_golden_report(monkeypatch, threads)
        assert serial_pool == ([] if threads == "1" else [2])

    def test_single_replication_has_no_se(self):
        report = run_mse_experiment(small_config(replications=1))
        res = report.results[Estimator.DML.value]
        assert res.se_of_mse is None
        assert res.replications == 1

    def test_dp_truth_uses_the_discount_override(self):
        config = small_config(discount=0.5)
        rebuilt = mdp_from_dict({**mdp_to_dict(config.mdp), "discount": 0.5})
        assert ground_truth_value(config) == pytest.approx(
            exact_policy_value(rebuilt, config.evaluation_policy), abs=1e-12)

    def test_dp_truth_builds_only_the_scenario(self, monkeypatch):
        # The truth at the override discount is computed on the lifted MDP as
        # built, with no second TabularMdp for the discount alone.
        config = dataclasses.replace(
            experiment_config_from_dict(json.loads(NOISY_CONFIG.read_text()),
                                        base_dir=NOISY_CONFIG.parent), discount=0.5)
        lifted = experiments._scenario(config)
        built = []
        post_init = TabularMdp.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(TabularMdp, "__post_init__", counted)
        value = ground_truth_value(config)
        assert len(built) == 1
        rebuilt = mdp_from_dict({**mdp_to_dict(lifted[0]), "discount": 0.5})
        assert value == exact_policy_value(rebuilt, lifted[2])

    def test_report_serializes(self):
        report = run_mse_experiment(small_config(replications=2))
        obj = report.to_dict()
        json.dumps(obj)
        assert obj["replications"] == 2
        assert obj["n_trajectories"] == 80


    # The messages are those that the config-file tests in test_cli.py pin.
    @pytest.mark.parametrize("changes, message", [
        ({"discount": 1.5}, "experiment config: 'discount' must lie in [0, 1], got 1.5"),
        ({"level": 1.5}, "experiment config: 'level' must lie in (0, 1), got 1.5"),
        ({"k_folds": 1}, "nuisance config: 'k_folds' must be >= 2, got 1"),
        ({"replications": 0}, "experiment config: 'replications' must be >= 1, got 0"),
        ({"seed": -1}, "experiment config: 'seed' must be >= 0, got -1"),
        ({"noise_seed": -1}, "noise_states: 'seed' must be >= 0, got -1"),
        ({"noise_states": -1}, "noise_states: 'count' must be >= 0, got -1"),
        # Each ran before: k_folds=2.5 as 2 folds, the others to numpy's TypeError.
        ({"k_folds": 2.5}, "nuisance config: 'k_folds' must be an integer, got 2.5"),
        ({"replications": True}, "experiment config: 'replications' must be an integer, "
                                 "got True"),
        ({"n_trajectories": 10.5}, "experiment config: 'n_trajectories' must be an integer, "
                                   "got 10.5"),
        ({"noise_states": 1.5}, "noise_states: 'count' must be an integer, got 1.5"),
        ({"seed": 1.5}, "experiment config: 'seed' must be an integer, got 1.5"),
    ], ids=["discount", "level", "k_folds", "replications", "seed", "noise_seed",
            "noise_count", "k_folds_fractional", "replications_bool",
            "n_trajectories_fractional", "noise_count_fractional", "seed_fractional"])
    def test_direct_config_rejects_bad_parameters(self, changes, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            small_config(**changes)

    # Counts whose arrays numpy refuses at the shape: the (1, R) estimates, allocated
    # before any replication runs, the (N, T+1) columns and the lift's noise chain.
    @pytest.mark.parametrize("changes, name", [
        ({"replications": 2**63}, "experiment config: 'replications'"),
        ({"n_trajectories": 2**63}, "experiment config: 'n_trajectories'"),
        ({"noise_states": 2**63}, "noise_states: 'count'"),
    ], ids=["replications", "n_trajectories", "noise_count"])
    def test_huge_count_named_when_its_arrays_are_refused(self, changes, name):
        pattern = re.escape(f"{name} must size arrays numpy can allocate (") + r".+\), got "
        with pytest.raises(ValidationError, match=f"^{pattern}{2**63}$"):
            run_mse_experiment(small_config(**changes))


class TestStackedReplications:
    """The MSE study runs its replications in chunks, each one stack of row sets;
    ``evaluate_dataset`` is the one-replication case of the same kernels."""

    @pytest.mark.parametrize("known", [False, True], ids=["estimated", "known"])
    def test_each_replication_of_a_stack_is_its_dataset_alone(self, known):
        # Horizon 9: the scores' row sums add in numpy's pairwise lanes.
        rng = np.random.default_rng(21)
        mdp = random_mdp(rng, 4, 2, 9)
        behavior, evaluation = random_policy(rng, 4, 2), random_policy(rng, 4, 2)
        names = tuple(e.value for e in Estimator)
        seeds = [22, 23, 24]
        datasets = [sample_dataset(mdp, behavior, 50, np.random.default_rng(s)) for s in seeds]
        columns = tuple(np.stack([getattr(d, f) for d in datasets])
                        for f in ("states", "actions", "rewards"))
        known_behavior = behavior if known else None
        streams = [np.random.default_rng(s).spawn(len(Estimator)) for s in seeds]
        rngs = {e: [children[k] for children in streams] for k, e in enumerate(Estimator)}
        stacked = estimators._estimate(columns, rngs, names, evaluation, 0.9, known_behavior, 3,
                                       0.5, 0.95)
        for r, (data, seed) in enumerate(zip(datasets, seeds)):
            alone = evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(seed),
                                     known_behavior=known_behavior, k_folds=3)
            assert {name: stacked[name][r].to_dict() for name in names} == {
                name: est.to_dict() for name, est in alone.items()}

    def test_a_child_by_key_is_the_spawned_child(self):
        # The study builds only the children that draw, from a replication's index
        # alone; each must be the stream that spawning all of them gives.
        for r in (0, 2):
            seed = np.random.SeedSequence(5).spawn(3)[r]
            spawned = np.random.default_rng(seed).spawn(1 + len(Estimator))
            for key in range(1 + len(Estimator)):
                assert (experiments._child(5, r, key).random(4).tolist()
                        == spawned[key].random(4).tolist())

    def test_full_cell_index_is_not_held_while_the_folds_fit(self):
        # All five estimators at k=5 on 1e5 rows of the lift. Holding the full
        # (N, T+1) int64 cell index while DML fitted on its fold copies peaked at
        # 6.40 such arrays; it must peak at least one array lower.
        mdp, behavior, evaluation = noisy_lift()
        data = sample_dataset(mdp, behavior, 100_000, np.random.default_rng(8))
        names = tuple(e.value for e in Estimator)
        tracemalloc.start()
        try:
            evaluate_dataset(data, evaluation, mdp.discount, names, np.random.default_rng(9),
                             k_folds=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (6.39 - 1.0) * data.states.nbytes

    def test_dml_estimate_does_not_hold_the_full_cell_index_while_the_folds_fit(self):
        # dml_estimate at k=5 on 1e5 rows of the lift. Its own copy of DML's
        # sequence, which kept the full (N, T+1) int64 cell index while the folds
        # fitted, peaked at 5.78 such arrays; it must peak at least one array lower.
        mdp, behavior, evaluation = noisy_lift()
        data = sample_dataset(mdp, behavior, 100_000, np.random.default_rng(8))
        tracemalloc.start()
        try:
            dml_estimate(data, evaluation, mdp.discount, np.random.default_rng(9), k_folds=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (5.78 - 1.0) * data.states.nbytes

    @pytest.mark.parametrize("n, k_folds, chunk", [(1000, 2, 8), (10, 5, 17)])
    def test_a_chunk_bounds_the_memory_of_the_study(self, n, k_folds, chunk):
        # 64 replications run in chunks of ROW_BUDGET // max(n, S*A): of 8 at
        # n=1,000, and of 17 at n=10 on the lift's 480 cells, where the (S, A)
        # tables, not the rows, size a replication. A 5-fold complement merges its
        # folds' few move counts by sorting them, with no S*A*S table. So 64 peak
        # no higher than 8 do, beyond their list of estimates and 9 more
        # replications' tables.
        with open(NOISY_CONFIG) as fh:
            config = experiment_config_from_dict(json.load(fh), base_dir=NOISY_CONFIG.parent)
        config = dataclasses.replace(config, n_trajectories=n, k_folds=k_folds)
        _, _, evaluation = experiments._scenario(config)
        assert experiments.ROW_BUDGET // max(n, evaluation.table.size) == chunk
        peaks = []
        for reps in (8, 64):
            tracemalloc.start()
            try:
                experiments._run_replications(config, range(reps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20


class TestConfigParsing:
    def config_dict(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        return {
            "mdp": mdp_to_dict(mdp),
            "behavior_policy": policy_to_dict(behavior),
            "evaluation_policy": policy_to_dict(evaluation),
            "n_trajectories": 40,
            "replications": 3,
            "estimators": ["dml", "ipw"],
            "nuisance": {"k_folds": 2, "smoothing_alpha": 0.5, "behavior_policy": "known"},
        }

    def test_inline_components(self):
        config = experiment_config_from_dict(self.config_dict())
        assert config.n_trajectories == 40
        assert config.behavior_known
        assert config.estimators == ("dml", "ipw")

    def test_path_components(self, tmp_path):
        obj = self.config_dict()
        (tmp_path / "mdp.json").write_text(json.dumps(obj["mdp"]))
        obj["mdp"] = "mdp.json"
        config = experiment_config_from_dict(obj, base_dir=tmp_path)
        assert config.mdp.num_states == 3

    def test_unknown_top_level_key(self):
        obj = self.config_dict()
        obj["bogus"] = 1
        with pytest.raises(ValidationError, match="unknown keys"):
            experiment_config_from_dict(obj)

    def test_unknown_nuisance_key(self):
        obj = self.config_dict()
        obj["nuisance"]["typo"] = 1
        with pytest.raises(ValidationError, match="nuisance config"):
            experiment_config_from_dict(obj)

    def test_bad_behavior_mode(self):
        obj = self.config_dict()
        obj["nuisance"]["behavior_policy"] = "guessed"
        with pytest.raises(ValidationError, match="known.*estimated"):
            experiment_config_from_dict(obj)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_a_discount_that_json_reads_as_non_finite_is_named(self, text):
        # json.loads reads NaN and the infinities as floats.
        obj = {**self.config_dict(), "discount": json.loads(text)}
        with pytest.raises(ValidationError, match=f"^experiment config: 'discount' must be "
                                                  f"finite, got {text}$"):
            experiment_config_from_dict(obj)

    def test_noise_states_block(self):
        obj = self.config_dict()
        obj["noise_states"] = {"count": 3, "seed": 2}
        config = experiment_config_from_dict(obj)
        assert config.noise_states == 3
        assert config.noise_seed == 2


class TestRelativeRmse:
    def cell(self, estimate, actual, weight, **extra):
        return CampaignBatchCell(campaign="c", batch="b", estimate=estimate,
                                 actual=actual, n_impressions=weight, **extra)

    def test_single_cell(self):
        assert relative_rmse([self.cell(1.2, 1.0, 500.0)]) == pytest.approx(0.2, abs=1e-12)

    def test_two_cells_weighted(self):
        cells = [self.cell(1.1, 1.0, 100.0), self.cell(1.3, 1.0, 100.0)]
        assert relative_rmse(cells) == pytest.approx(np.sqrt(0.05), abs=1e-12)

    def test_weight_scale_invariance(self):
        cells_a = [self.cell(0.9, 1.0, 10.0), self.cell(2.4, 2.0, 30.0)]
        cells_b = [self.cell(0.9, 1.0, 1000.0), self.cell(2.4, 2.0, 3000.0)]
        assert relative_rmse(cells_a) == pytest.approx(relative_rmse(cells_b), abs=1e-12)

    def test_value_scale_invariance(self):
        cells_a = [self.cell(0.9, 1.0, 10.0), self.cell(2.4, 2.0, 30.0)]
        cells_b = [self.cell(4.5, 5.0, 10.0), self.cell(12.0, 10.0, 30.0)]
        assert relative_rmse(cells_a) == pytest.approx(relative_rmse(cells_b), abs=1e-12)

    @pytest.mark.parametrize("weight", [0.0, -5.0])
    def test_impressions_must_be_positive(self, weight):
        with pytest.raises(ValidationError, match="^n_impressions must be positive$"):
            self.cell(1.0, 1.0, weight)

    @pytest.mark.parametrize("field", ["estimate", "actual", "n_impressions"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_number_is_refused(self, field, value):
        # Each was accepted: relative_rmse returned nan, and an infinite weight
        # ended in numpy's RuntimeWarning.
        fields = {"campaign": "c", "batch": "b", "estimate": 1.0, "actual": 1.0,
                  "n_impressions": 10.0, field: value}
        with pytest.raises(ValidationError, match=f"^cell: '{field}' must be finite, got {value}$"):
            CampaignBatchCell(**fields)

    def test_huge_weights_do_not_overflow(self):
        # Impression counts whose sum exceeds the largest double.
        huge = [self.cell(0.55, 0.5, 1e308), self.cell(0.42, 0.45, 1e308)]
        unit = [self.cell(0.55, 0.5, 1.0), self.cell(0.42, 0.45, 1.0)]
        assert relative_rmse(huge) == relative_rmse(unit)
        assert relative_rmse(huge) == pytest.approx(0.0849836585598798, rel=1e-12)

    def test_rejects_zero_actual(self):
        with pytest.raises(ValidationError):
            self.cell(0.5, 0.0, 10.0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            relative_rmse([])

    def test_cell_from_dict_round_trip(self):
        obj = {"campaign": "a", "batch": "1", "estimate": 0.4, "actual": 0.5,
               "n_impressions": 2000, "ope_variance": 0.2, "n_ope": 1500}
        cell = cell_from_dict(obj)
        assert cell.estimate == 0.4
        assert cell.online_variance is None

    def test_cell_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            cell_from_dict({"campaign": "a", "batch": "1", "estimate": 0.4,
                            "actual": 0.5, "n_impressions": 10, "oops": 1})

    def test_cell_missing_key(self):
        with pytest.raises(ValidationError, match="missing"):
            cell_from_dict({"campaign": "a", "batch": "1"})


class TestRelativeRmseSe:
    def cell(self, **extra):
        base = dict(campaign="c", batch="b", estimate=0.5, actual=0.5,
                    n_impressions=1000.0, ope_variance=0.25, n_ope=400.0)
        base.update(extra)
        return CampaignBatchCell(**base)

    def test_zero_variances_give_zero_se(self):
        cell = self.cell(ope_variance=0.0, online_variance=0.0)
        se = relative_rmse_se([cell], np.random.default_rng(0), sims=100)
        assert se == 0.0

    def test_deterministic(self):
        cells = [self.cell(), self.cell(estimate=0.3, actual=0.35)]
        a = relative_rmse_se(cells, np.random.default_rng(5), sims=2000)
        b = relative_rmse_se(cells, np.random.default_rng(5), sims=2000)
        assert a == b

    def test_huge_weights_do_not_overflow(self):
        # With 1e308 impressions the online noise vanishes, as with a zero online variance.
        huge = [self.cell(n_impressions=1e308), self.cell(estimate=0.3, actual=0.35,
                                                          n_impressions=1e308)]
        exact = [dataclasses.replace(c, n_impressions=1.0, online_variance=0.0) for c in huge]
        se = relative_rmse_se(huge, np.random.default_rng(4), sims=500)
        assert se > 0.0
        assert se == relative_rmse_se(exact, np.random.default_rng(4), sims=500)

    def test_refuses_no_cells(self):
        # Ended in numpy's "zero-size array to reduction operation maximum".
        with pytest.raises(ValidationError, match="^need at least one cell$"):
            relative_rmse_se([], np.random.default_rng(0))

    def test_requires_variance_fields(self):
        cell = self.cell(ope_variance=None, n_ope=None)
        with pytest.raises(ValidationError, match="ope_variance"):
            relative_rmse_se([cell], np.random.default_rng(0))

    def test_shrinks_with_more_data(self):
        # Larger samples on both sides shrink simulation spread.
        loose = self.cell(n_ope=50.0, n_impressions=100.0)
        tight = self.cell(n_ope=50_000.0, n_impressions=100_000.0)
        rng = np.random.default_rng(8)
        assert relative_rmse_se([tight], rng, sims=20_000) < relative_rmse_se(
            [loose], np.random.default_rng(8), sims=20_000
        )
