"""Monte Carlo MSE studies, the relative-RMSE metric with its simulation-based
standard error, dataset file I/O, and the noisy-nuisance scenario builder.

Replication r draws from ``SeedSequence(seed, spawn_key=(r, key))``, the children
of the r-th spawn of the config's seed, so results do not depend on scheduling.
With the OPE_DML_THREADS environment variable above 1, the replication indices
are split into one contiguous range per worker process, at most one worker per
CPU and per replication; each block builds the scenario once and returns its
ground truth with its estimates, which fill one table in order. A single block
runs in the calling process.

A block runs its replications in chunks of ``max(1, ROW_BUDGET // max(n, S*A))``.
A chunk is sampled, counted, fitted and scored as one stack of (R, n, T+1) row
sets, each replication with its own generator, folds and estimator streams,
so every replication's estimates are those of ``evaluate_dataset`` on its
dataset. A replication's arrays are its rows, n per step, and its (S, A)
tables, S*A cells per step, so the budget bounds a chunk's arrays at
ROW_BUDGET cells per step, whatever n and S*A; a cross-fit complement merges
its move counts by sorting them, or in one replication's S*A*S table at a time.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import ROW_BUDGET, Estimator, ValueEstimate, _estimate
from .mdp import (
    LoggedDataset,
    Policy,
    TabularMdp,
    ValidationError,
    _policy_value,
    _sample,
    check_at_least,
    check_dataset,
    check_finite,
    check_finite_nonnegative,
    check_folds,
    check_integer,
    check_keys,
    check_level,
    check_unit_interval,
    json_field,
    load_mdp,
    mdp_from_dict,
    read_json,
    sized_by,
)
from .nuisance import check_table_shape

_INT64_MAX = np.iinfo(np.int64).max
_WRITE_BLOCK_ROWS = 4096
_READ_BYTES = 1 << 19  # what ingest_jsonl reads at a time, then up to a newline
_LINE_START, _STEP_START, _LINE_END = '{"steps": [{"s": ', ', {"s": ', "]}\n"
_STEP_KEYS = {"s", "a", "r"}
_FIELD_SUFFIXES = (', "a": ', ', "r": ', ', "p": ', "}")  # what follows each field
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd, so each step is a bijection
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _word(text: str) -> int:
    """The little-endian 8-byte word of ``text``'s first 8 bytes, zero past its end."""
    return int.from_bytes(text.encode()[:8].ljust(8, b"\0"), "little")


# What ``_separated`` reads: the words and masks of the separators after a step's
# s, a, r and p values (the space that ends ``}, {"s": `` is checked apart), of
# ``}]}`` and a newline in the top half of a word, and of a line's first 16 bytes.
_SEPARATOR_WORDS = np.array([[_word(x) for x in (*_FIELD_SUFFIXES[:3], "}" + _STEP_START)],
                             _BYTE_MASKS[[7, 7, 7, 8]]], dtype=np.uint64)[:, None]
_LINE_END_WORD = (_word("}" + _LINE_END) << 32, ((1 << 32) - 1) << 32)
_LINE_START_WORDS = np.array([_word(_LINE_START), _word(_LINE_START[8:])], dtype=np.uint64)


# ---------------------------------------------------------------------------
# Policy / dataset serialization


def policy_to_dict(policy: Policy) -> dict:
    return {"table": policy.table.tolist()}


def policy_from_dict(obj: dict) -> Policy:
    check_keys(obj, {"table"}, "policy spec")
    return Policy(table=json_field(obj, "table", "policy spec", np.ndarray))


def load_policy(path: str | Path) -> Policy:
    return read_json(path, policy_from_dict)


def _distinct(values: np.ndarray, limit: int) -> tuple:
    """``np.unique(values, return_inverse=True)`` of 1-d int64 ``values``: by
    offset from their minimum, with no sort, where they span at most ``limit``
    integers (a presence table and an index of that many entries)."""
    low = int(values.min())
    span = int(values.max()) - low + 1
    if span > limit:
        return np.unique(values, return_inverse=True)
    offsets = values - low
    present = np.zeros(span, bool)
    present[offsets] = True
    distinct = np.flatnonzero(present)
    index = np.empty(span, np.intp)
    index[distinct] = np.arange(len(distinct))
    return distinct + low, index[offsets]


def _field_texts(column: np.ndarray, suffix: str, cells: int) -> tuple:
    """The json.dumps texts of a block column's distinct values, each followed by
    ``suffix``, and each cell's index among them. Ids are told apart by value, by
    offset where max - min < ``cells``, the block's; floats by their bits, so that
    -0.0 and 0.0 keep their text. One json.dumps call writes the texts, with
    ``suffix`` and a newline between them."""
    bits = column.view(np.int64).ravel()
    distinct, inverse = (_distinct(bits, cells) if column.dtype.kind == "i"
                         else np.unique(bits, return_inverse=True))
    text = json.dumps(distinct.view(column.dtype).tolist(), separators=(suffix + "\n", ": "))
    return np.array((text[1:-1] + suffix).split("\n"), dtype=object), inverse


def _repeated_steps(texts: list, inverses: list, cells: int) -> tuple | None:
    """Each distinct ``(s, a, r, p)`` step's text and each cell's index among them,
    if at most half the block's ``cells`` are distinct steps, else None. A step's
    key is its fields' indices in mixed radix, formed only if every key fits in
    int64; the distinct keys are found by offset while they span at most
    ``4 * cells`` integers."""
    counts = [len(x) for x in texts]
    if 2 * max(counts) > cells or math.prod(counts) > 2**63:
        return None
    key = inverses[0]
    for count, inverse in zip(counts[1:], inverses[1:]):
        key = key * count + inverse
    keys, inverse = _distinct(key, 4 * cells)
    if 2 * len(keys) > cells:
        return None
    indices = []
    for count in reversed(counts):
        keys, index = np.divmod(keys, count)
        indices.append(index)
    s, a, r, p = (x[k] for x, k in zip(texts, indices[::-1]))
    return s + a + r + p, inverse


def _jsonl_blocks(states, actions, rewards, propensities):
    """Yield the text of each block of ``_WRITE_BLOCK_ROWS`` rows, a line per row,
    json.dumps of its {"steps": [{"s", "a", "r", "p"}, ...]} object, ``p`` null
    without propensities. A block's field values take one json.dumps per field,
    of its distinct values (``_field_texts``). Where at most half the block's cells
    are distinct steps (``_repeated_steps``), each distinct step's text is joined
    once and a row takes 2 pieces per step, a separator and the step; else 5, the
    separator and the step's four field texts. The block is one join of a
    ``(rows, pieces)`` array whose separators are kept across blocks."""
    rows, width = min(len(states), _WRITE_BLOCK_ROWS), states.shape[1]
    layouts = {}  # pieces per step -> the (rows, pieces) array, made when first used
    fields = (states, actions, rewards, propensities)[:4 - (propensities is None)]
    for start in range(0, len(states), _WRITE_BLOCK_ROWS):
        columns = [x[start:start + _WRITE_BLOCK_ROWS] for x in fields]
        n = len(columns[0])
        texts, inverses = [], []
        for column, suffix in zip(columns, _FIELD_SUFFIXES):
            text, inverse = _field_texts(column, suffix, n * width)
            texts.append(text)
            inverses.append(inverse)
        if propensities is None:
            texts.append(np.array(["null}"], dtype=object))
            inverses.append(np.zeros(n * width, np.intp))
        steps = _repeated_steps(texts, inverses, n * width)
        size = 5 if steps is None else 2
        if size not in layouts:
            pieces = layouts[size] = np.empty((rows, size * width + 1), dtype=object)
            pieces[:, 0], pieces[:, size:-1:size], pieces[:, -1] = (
                _LINE_START, _STEP_START, _LINE_END)
        block = layouts[size][:n]
        if steps is None:
            for k, (text, inverse) in enumerate(zip(texts, inverses)):
                block[:, k + 1::5] = text[inverse].reshape(n, width)
        else:
            block[:, 1::2] = steps[0][steps[1]].reshape(n, width)
        yield "".join(block.ravel().tolist())


def write_jsonl(data: LoggedDataset, path: str | Path) -> None:
    """Emit one {"steps": [{"s", "a", "r", "p"}, ...]} object per trajectory."""
    check_dataset(data, "data")
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


def _spans(buf: np.ndarray) -> tuple | None:
    """The ``(lines, width, 4)`` starts and lengths of the ``s a r p`` values in
    the bytes ``buf`` as ``_jsonl_blocks`` lays them out, found from the colons
    and newlines, and the newlines; None where ``buf`` does not end in a newline,
    a line does not hold ``1 + 4*width`` colons, or a span is not 1 to 24 bytes
    long (24 is the longest json.dumps float). A value starts 2 bytes after its
    key's colon and ends 5 bytes before the next key's colon (``, "a"``), 7
    before the next step's (``}, {"s"``) or 3 before the newline (``}]}``)."""
    marks = np.flatnonzero((buf == 58) | (buf == 10))
    newlines = np.flatnonzero(buf[marks] == 10)  # each line's last mark
    lines = len(newlines)
    if not lines or marks[-1] != len(buf) - 1:
        return None
    width, rest = divmod(int(newlines[0]) - 1, 4)
    if rest or width < 1 or np.any(newlines != np.arange(1, lines + 1) * (2 + 4 * width) - 1):
        return None
    marks = marks.reshape(lines, 2 + 4 * width)
    ends = marks[:, -1]
    key_colons = marks[:, 1:-1].reshape(lines, width, 4)
    lengths = np.empty_like(key_colons)
    lengths[..., :3] = key_colons[..., 1:] - 5
    lengths[:, :-1, 3] = key_colons[:, 1:, 0] - 7
    lengths[:, -1, 3] = ends - 3
    starts = key_colons + 2
    lengths -= starts
    return (starts, lengths, ends) if 1 <= lengths.min() and lengths.max() <= 24 else None


def _separated(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
               ends: np.ndarray) -> bool:
    """Whether every byte of ``buf`` outside its ``_spans`` is the writer's: each
    line's first 16 bytes (which hold its first two colons, so its first value
    starts at byte 17), the space before each ``s`` value, and the 8-byte word at
    each value's end, masked to the separator that follows it; the ``}]}`` and
    newline that end a line are the top half of the word that ends at the
    newline. The spans' bounds keep every word inside ``buf``."""
    words = np.ndarray((len(buf) - 7,), "<u8", buffer=buf, strides=(1,))
    firsts = np.concatenate(([0], ends[:-1] + 1))
    at = starts + lengths
    at[:, -1, 3] = ends - 7
    expect, mask = np.repeat(_SEPARATOR_WORDS, at.shape[1], axis=1)
    expect[-1, 3], mask[-1, 3] = _LINE_END_WORD
    return (bool(np.all(words[firsts[:, None] + [0, 8]] == _LINE_START_WORDS))
            and bool(np.all(buf[starts[..., 0] - 1] == 32))
            and bool(np.all((words[at] & mask) == expect)))


def _ids(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers whose decimal digits the spans of ``buf`` hold; a ValueError
    where a span holds anything but 1 to 19 digits, a leading zero or a number
    past int64: so each span is json.dumps of its integer."""
    if lengths.max() > 19:
        raise ValueError("an id of more than 19 digits")
    value, bad = np.zeros(len(starts), np.uint64), (lengths > 1) & (buf[starts] == 48)
    for k in range(lengths.max()):  # the digit worth 10**k, k places from each span's end
        live = k < lengths
        digit = buf.take(starts + lengths - 1 - k, mode="clip") - np.uint8(48)
        bad = bad | live & (digit > 9)
        value += np.where(live, digit, 0).astype(np.uint64) * np.uint64(10**k)
    if np.any(bad) or value.max() > _INT64_MAX:
        raise ValueError("an id that is not int64 digits")
    return value.view(np.int64)


def _text_keys(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
               words: list | None = None) -> np.ndarray:
    """One uint64 per span of ``buf``, ``key * _KEY_MULTIPLIER + word`` over its
    8-byte words, zero past its end: equal texts give equal keys, and a text of
    up to 8 bytes its own key; other texts share a key by chance, which the
    caller's check must catch. The words are indexed in a view of ``buf`` at
    every byte offset, which reads only them (``take`` would copy the view), and
    appended to ``words`` if it is given."""
    last = len(buf) - 8
    view = np.ndarray((last + 1,), "<u8", buffer=buf, strides=(1,))
    key = np.zeros(len(starts), np.uint64)
    for at in range(0, lengths.max(), 8):
        first = starts + at
        word = view[np.minimum(first, last)]  # past ``last``, the word's top bytes
        word >>= (8 * np.maximum(first - last, 0)).astype(np.uint64)
        word &= _BYTE_MASKS[np.clip(lengths - at, 0, 8)]
        if words is not None:
            words.append(word)
        key = key * _KEY_MULTIPLIER + word
    return key


def _floats(text: bytes, starts: np.ndarray, lengths: np.ndarray, words: list,
            inverse: np.ndarray):
    """The floats that the spans of ``text`` spell, given their ``_text_keys``'
    words and ``np.unique`` inverse; None if every span is ``null``. One span per
    key, picked by a scatter of ``arange``, is read by ``float``, and must be the
    repr of its float, so json.dumps of it; every span must be byte-equal to its
    key's, so that texts that share a key fail. A ValueError where that fails."""
    first = np.empty(inverse.max() + 1, np.intp)
    first[inverse] = np.arange(len(inverse))
    same = first[inverse]
    if not (np.array_equal(lengths[same], lengths)
            and all(np.array_equal(word[same], word) for word in words)):
        raise ValueError("two texts that share a key")
    texts = [text[i:i + n] for i, n in zip(starts[first].tolist(), lengths[first].tolist())]
    if texts == [b"null"]:
        return None
    values = list(map(float, texts))
    if ",".join(map(repr, values)).encode() != b",".join(texts):
        raise ValueError("a float that json.dumps writes otherwise")
    return np.array(values, dtype=float).take(inverse)


def _canonical_chunk(text: bytes) -> tuple | None:
    """The arrays of ``text``, whole lines, if ``text`` is ``"".join(_jsonl_blocks(
    *arrays))`` and they pass ``_ingest_lines``'s value rules; else None, or a
    ValueError. The values are read at their ``_spans``: ids from their digits,
    floats once per distinct key of their texts. That the bytes between the spans
    are the writer's (``_separated``), and each value is json.dumps of what it
    reads as (``_ids``, ``_floats``), proves the text is the writer's, with no
    encoding of the arrays again."""
    buf = np.frombuffer(text, np.uint8)
    spans = _spans(buf)
    if spans is None or not _separated(buf, *spans):
        return None
    starts, lengths, _ = spans
    s, a, r, p = ((starts[..., k].ravel(), lengths[..., k].ravel()) for k in range(4))
    r_words, p_words = [], []
    (_, r_inverse), (_, p_inverse) = (np.unique(_text_keys(buf, *x, words), return_inverse=True)
                                      for x, words in ((r, r_words), (p, p_words)))
    distinct = r_inverse.max() + p_inverse.max() + 2  # past 1.5 texts a step (2, not 1),
    if distinct > 1000 and 2 * distinct > 3 * len(r_inverse):  # json.loads is faster
        return None
    s, a = _ids(buf, *s), _ids(buf, *a)
    r, p = _floats(text, *r, r_words, r_inverse), _floats(text, *p, p_words, p_inverse)
    if r is None or not np.isfinite(r).all() or p is not None and not np.all((p > 0) & (p <= 1)):
        return None
    return tuple(x if x is None else x.reshape(starts.shape[:2]) for x in (s, a, r, p))


def _line_chunks(fh):
    """The bytes of the binary file ``fh`` in chunks that end at a newline or at the
    end of the file: ``_READ_BYTES`` and the rest of a line at a time, after a
    first chunk of at least ``_WRITE_BLOCK_ROWS`` lines, a writer's block, so that
    ``_canonical_chunk``'s mostly-distinct rule sees the floats that repeat
    across the block."""
    pieces, lines = [], 0
    while lines < _WRITE_BLOCK_ROWS and (piece := fh.read(_READ_BYTES)):
        pieces.append(piece + fh.readline())
        lines += pieces[-1].count(b"\n")
    chunk = b"".join(pieces)
    pieces.clear()  # so that the reads are freed while the chunk is checked
    yield chunk
    while chunk := fh.read(_READ_BYTES):
        chunk += fh.readline()
        yield chunk


def ingest_jsonl(path: str | Path) -> LoggedDataset:
    """Read a trajectory-per-line JSONL file into a LoggedDataset.

    A regular file that write_jsonl wrote is read at numpy speed, in
    ``_line_chunks`` that ``_canonical_chunk`` checks where they lie; any other
    file, from its first line, by ``_ingest_lines``, which gives the same arrays
    and raises every error.
    """
    if not os.path.isfile(path):
        return _ingest_lines(path)  # a pipe could not be read twice
    blocks, columns = [], None
    try:
        with open(path, "rb") as fh:
            for chunk in _line_chunks(fh):
                blocks.append(_canonical_chunk(chunk))
                if blocks[-1] is None:
                    break
        if blocks and None not in blocks:  # two widths fail to concatenate
            columns = [None if any(x is None for x in col) else np.concatenate(col)
                       for col in zip(*blocks)]
    except (OSError, ValueError):
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
        except RecursionError:
            raise ValidationError(f"{path}: line {lineno}: JSON nested too deeply") from None
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
    check_integer(num_noise_states, "num_noise_states", 1)
    check_integer(seed, "seed", 0)
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
    check_integer(num_noise_states, "num_noise_states", 1)
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
    smoothing_alpha: float = 0.5,
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
    which they run. Before any fit, ``discount`` must lie in [0, 1], ``level`` in
    (0, 1), ``smoothing_alpha`` be finite and >= 0 and ``k_folds`` in [2, data.n],
    even if unused, state and action ids inside the evaluation and known behavior
    policy tables, and the two tables alike in shape.
    """
    check_dataset(data, "data")
    check_estimator_names(estimators)
    check_unit_interval(discount, "discount")
    check_level(level, "level")
    check_finite_nonnegative(smoothing_alpha, "smoothing_alpha")
    check_folds(k_folds, data.n, "k_folds")
    data.check_ids(eval_policy, "evaluation")
    if known_behavior is not None:
        data.check_ids(known_behavior, "behavior")
        check_table_shape(known_behavior.table.shape, eval_policy, "behavior policy")
    columns = data.states[None], data.actions[None], data.rewards[None]
    rngs = {e: [child] for e, child in zip(Estimator, rng.spawn(len(Estimator)))}
    results = _estimate(columns, rngs, estimators, eval_policy, discount, known_behavior,
                        k_folds, smoothing_alpha, level)
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
    smoothing_alpha: float = 0.5
    noise_states: int = 0
    noise_seed: int = 0

    def __post_init__(self):
        check_integer(self.replications, "experiment config: 'replications'", 1)
        check_integer(self.k_folds, "nuisance config: 'k_folds'", 2)
        check_finite_nonnegative(self.smoothing_alpha, "nuisance config: 'smoothing_alpha'")
        check_integer(self.n_trajectories, "experiment config: 'n_trajectories'")
        if self.n_trajectories < self.k_folds:
            raise ValidationError(f"experiment config: 'n_trajectories' must be >= k_folds "
                                  f"({self.k_folds}), got {self.n_trajectories}")
        if self.discount is not None:
            check_unit_interval(self.discount, "experiment config: 'discount'")
        check_level(self.level, "experiment config: 'level'")
        check_integer(self.noise_states, "noise_states: 'count'", 0)
        check_integer(self.seed, "experiment config: 'seed'", 0)
        check_integer(self.noise_seed, "noise_states: 'seed'", 0)
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
        smoothing_alpha=alpha,
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


def _child(seed: int, r: int, key: int) -> np.random.Generator:
    """Replication ``r``'s generator ``key``: child ``key`` of the ``r``-th seed
    sequence that ``SeedSequence(seed)`` spawns, built from its spawn key alone."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r, key)))


def _run_replications(config: ExperimentConfig, reps: range) -> tuple[float, np.ndarray]:
    """The truth and the (estimators, replications) estimates of the replications
    ``reps``, on one scenario build.

    The replications run in chunks of ``max(1, ROW_BUDGET // max(n, S*A))``: a
    chunk is sampled, fitted and scored as one stack of (R, n, T+1) row sets, and
    a replication's estimates are those ``evaluate_dataset`` gives its dataset.
    """
    mdp, behavior, evaluation = _scenario(config)
    known = behavior if config.behavior_known else None
    n = config.n_trajectories
    chunk = max(1, ROW_BUDGET // max(n, evaluation.table.size))
    values = np.empty((len(config.estimators), len(reps)))
    # Replication r samples from its child 0, and the estimator in place e of
    # Estimator splits its folds from child 1 + e, as evaluate_dataset's spawn
    # numbers them; only the children that draw are built.
    drawing = {e: 1 + list(Estimator).index(e) for e in (Estimator.DR_HALF, Estimator.DML)
               if e.value in config.estimators}
    for start in range(0, len(reps), chunk):
        block = reps[start:start + chunk]
        with sized_by(n, "experiment config: 'n_trajectories'"):
            *columns, _ = _sample(mdp, behavior, n, [_child(config.seed, r, 0) for r in block])
        rngs = {e: [_child(config.seed, r, key) for r in block] for e, key in drawing.items()}
        results = _estimate(columns, rngs, config.estimators, evaluation,
                            config.effective_discount, known, config.k_folds,
                            config.smoothing_alpha, config.level)
        values[:, start:start + chunk] = [[e.value for e in results[name]]
                                          for name in config.estimators]
    return _policy_value(mdp, evaluation, config.effective_discount), values


def ground_truth_value(config: ExperimentConfig) -> float:
    """The evaluation policy's exact value on the scenario at the estimators' discount."""
    mdp, _, evaluation = _scenario(config)
    return _policy_value(mdp, evaluation, config.effective_discount)


def run_mse_experiment(config: ExperimentConfig) -> MseReport:
    """Per-replication fresh datasets and estimator runs; a block gives the truth."""
    threads = os.environ.get("OPE_DML_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        raise ValidationError(f"OPE_DML_THREADS must be an integer, got {threads!r}") from None
    reps = config.replications
    # The estimates' table is the one array that grows with reps.
    with sized_by(reps, "experiment config: 'replications'"):
        estimates = np.empty((len(config.estimators), reps))
    blocks = min(max(workers, 1), reps, os.cpu_count() or 1)
    bounds = [i * reps // blocks for i in range(blocks + 1)]
    # One block runs in the calling process and starts no pool.
    with ProcessPoolExecutor(max_workers=blocks) if blocks > 1 else nullcontext() as pool:
        done = (pool.map if pool else map)(_run_replications, [config] * blocks,
                                           [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])])
        for lo, hi, (truth, block) in zip(bounds, bounds[1:], done):
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
        for name in ("estimate", "actual", "n_impressions"):
            check_finite(getattr(self, name), f"cell: '{name}'")
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
    check_integer(sims, "sims", 1)
    if not cells:
        raise ValidationError("need at least one cell")
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
