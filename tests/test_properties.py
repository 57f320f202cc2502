"""Property tests: score bounds and agreement, selection invariants, config key table
round trip, results documents framed from drawn sections, the trainer's held-out ids
and training expansion, the lockstep run stack against runs trained one by one, a
stack of several parts against each part trained alone, the row-blocked pool pass
(prediction, validation, scores and votes) against whole-pool references, the
tensor-free block pass against the tensor pass, the class-axis kernels (the softmax's
column-wise max, the column sums, the member means and the vote counts) against
numpy's reductions, the pool CSV writers and reader against ``csv``-module references,
subset accounting and the pool index against dict models, and the binary ``.alck`` and
``.alpt`` files' exact round trips and refusals of cut and padded files."""

from __future__ import annotations

import csv
import hashlib
import math
import re
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal, assert_array_max_ulp

from alsift.acquisition import (
    BLOCK_ROWS,
    DETECTION_FUNCTION_IDS,
    FUNCTION_IDS,
    AcquisitionScores,
    PredictionTensor,
    TensorFile,
    detection_heatmaps,
    pool_pass,
    read_prediction_tensor,
    row_blocks,
    score_pool,
    write_prediction_tensor,
    _reduce_block,
    _row_max,
    _row_sum,
    _vote_counts,
)
import alsift.acquisition
import alsift.analysis
from alsift.analysis import (
    consensus_counts,
    duplication_histogram,
    evaluate,
    evaluate_tensor,
    selected_unselected_gap,
)
from alsift.cli import main
from alsift.datagen import PoolMetadata, read_pool_csv, write_metadata_csv, write_pool_csv
from alsift.experiment import (
    CONFIG_KEYS,
    canonical_config_lines,
    config_from_mapping,
    config_hash,
    parse_config_text,
    read_results,
    _document,
)
from alsift.learner import (
    ARCHITECTURES,
    ENSEMBLE_MODES,
    Checkpoint,
    CheckpointStore,
    EnsembleConfig,
    LabeledPool,
    PoolBlocks,
    TrainConfig,
    ModelParams,
    init_params,
    predict_pool,
    read_checkpoint,
    train,
    train_parts,
    write_checkpoint,
    _held_out,
    _mix64,
    _softmax,
)
from alsift.schemes import SCHEMES, SearchConfig, outlier_window_select, run_scheme, select_top_k
from alsift.state import SubsetState, read_subset_csv, subset_hash, write_subset_csv

from _pools import sub_pool
from _scoring import reduce_one

README = Path(__file__).resolve().parents[1] / "README.md"


@st.composite
def scored_pools(draw):
    """Scores with frequent ties over unique ids, an excluded id set and a valid k."""
    ids = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=40, unique=True))
    # few distinct values, so ties are common and the id tie-break matters
    vals = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=len(ids), max_size=len(ids)))
    excluded = draw(st.sets(st.sampled_from(ids), max_size=len(ids) - 1))
    k = draw(st.integers(0, len(ids) - len(excluded)))
    scores = AcquisitionScores("entropy", np.asarray(vals), np.asarray(ids, dtype=np.uint64))
    return scores, excluded, k


@settings(max_examples=200, deadline=None)
@given(scored_pools())
def test_top_k_is_the_zero_window_and_equals_restriction(case):
    scores, excluded, k = case
    got = select_top_k(scores, k, excluded)
    assert_array_equal(got, outlier_window_select(scores, k, 0.0, excluded))
    remaining = [
        (-float(v), int(i))
        for v, i in zip(scores.scores, scores.sample_ids)
        if int(i) not in excluded
    ]
    assert [int(i) for i in got] == [i for _, i in sorted(remaining)[:k]]


def _grid_rows(draw, shape):
    """Probability rows on a 1/16 grid: exact in float32, with frequent argmax ties."""
    *lead, k = shape
    size = math.prod(lead) * (k - 1)
    cuts = draw(st.lists(st.integers(0, 16), min_size=size, max_size=size))
    cuts = np.sort(np.asarray(cuts, dtype=np.float64).reshape(*lead, k - 1), axis=-1)
    edges = np.concatenate([np.zeros((*lead, 1)), cuts, np.full((*lead, 1), 16.0)], axis=-1)
    return np.diff(edges, axis=-1) / 16.0


@st.composite
def grid_pools(draw):
    n, e, k = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(2, 5))
    labels = np.asarray(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return PredictionTensor(_grid_rows(draw, (n, e, k)), np.arange(n)), labels


@settings(max_examples=200, deadline=None)
@given(grid_pools())
def test_scores_bounded_and_equal_to_single_ensemble_scores(case):
    tensor, labels = case
    e, k = tensor.n_members, tensor.n_classes
    h = score_pool(tensor, "entropy").scores
    mi = score_pool(tensor, "mutual_information").scores
    vr = score_pool(tensor, "variation_ratios").scores
    ec = score_pool(tensor, "error_count", labels=labels).scores
    members = tensor.data.astype(np.float64)
    for i in range(tensor.n_samples):
        assert reduce_one(members[i], "mutual_information") == mi[i]
        assert reduce_one(members[i], "variation_ratios") == vr[i]
        assert reduce_one(members[i], "error_count", labels[i]) == ec[i]
    assert np.all(0.0 <= mi) and np.all(mi <= h) and np.all(h <= math.log(k) + 1e-12)
    assert np.all(0.0 <= vr) and np.all(vr <= 1.0 - 1.0 / e)
    assert np.all(np.isin(ec, [1.0 - m / e for m in range(e + 1)]))


@st.composite
def grid_heatmaps(draw):
    # below 8 members numpy sums the member entropies in member order on
    # both paths; longer sums are split into partial sums differently
    shape = (draw(st.integers(1, 7)), *(draw(st.integers(1, 3)) for _ in range(3)))
    return _grid_rows(draw, (*shape, 2))[..., 0]


@settings(max_examples=200, deadline=None)
@given(grid_heatmaps())
def test_detection_heatmaps_equal_pool_scores_of_binary_rows(maps):
    e, c, h, w = maps.shape
    rows = np.stack([maps, 1.0 - maps], axis=-1).reshape(e, c * h * w, 2).transpose(1, 0, 2)
    tensor = PredictionTensor(rows, np.arange(c * h * w))
    for function_id in DETECTION_FUNCTION_IDS:
        expected = score_pool(tensor, function_id).scores.reshape(c, h, w)
        assert_array_equal(detection_heatmaps(maps, function_id), expected)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw).map(repr)


def _int_lists(lo, hi, min_size=0, unique=False):
    return st.lists(st.integers(lo, hi), min_size=min_size, max_size=5, unique=unique).map(
        lambda xs: ",".join(map(str, xs))
    )


_BOOLS = st.sampled_from(["true", "false", "1", "0", "yes", "no", "TRUE"])

# Valid raw values for every key of the table except the ones drawn jointly
# (pool.file, pool.classes with pool.class_ratios, the required search keys,
# and the keys SearchConfig judges together for runnability).
OPTIONAL_KEYS = {
    "pool.clusters_per_class": _ints(1, 4),
    "pool.samples_per_cluster": _ints(1, 200),
    "pool.features": _ints(1, 40),
    "pool.redundancy": _floats(0.0, 1.0, exclude_max=True),
    "pool.label_noise": _floats(0.0, 1.0, exclude_max=True),
    "pool.cluster_std": _floats(1e-3, 10.0),
    "pool.center_spread": _floats(1e-3, 10.0),
    "pool.seed": _ints(0, 2**31),
    "search.outlier_fraction": _floats(0.0, 1.0, exclude_max=True),
    "ensemble.mode": st.sampled_from(ENSEMBLE_MODES),
    "ensemble.runs": _ints(1, 10),
    "ensemble.checkpoints_per_run": _ints(1, 30),
    "ensemble.stride": _ints(1, 5),
    "trainer.arch": st.sampled_from(ARCHITECTURES),
    "trainer.hidden": _ints(1, 64),
    "trainer.learning_rate": _floats(1e-6, 2.0),
    "trainer.momentum": _floats(0.0, 1.0, exclude_max=True),
    "trainer.weight_decay": _floats(0.0, 1.0),
    "trainer.batch_size": _ints(1, 256),
    "trainer.lr_decay": _floats(0.0, 1.0, exclude_min=True),
    "trainer.decay_epochs": _int_lists(1, 100, unique=True),
    "trainer.fine_tune_rate": _floats(0.0, 1.0),
    "trainer.class_weighting": _BOOLS,
    "trainer.checkpoint_window": _ints(1, 40),
    "experiment.seeds": _int_lists(0, 1000, min_size=1, unique=True),
    "experiment.baseline_random": _BOOLS,
    "experiment.baseline_full": _BOOLS,
    "experiment.out": st.sampled_from(["runs", "out/x"]),
    "experiment.jobs": _ints(1, 8),
}
JOINT_KEYS = {
    "pool.file", "pool.classes", "pool.class_ratios",
    "search.scheme", "search.function", "search.target_size", "search.acquisition_batch",
    "search.initial_size", "trainer.max_epochs", "trainer.fine_tune_epochs", "trainer.patience",
    "trainer.val_fraction",
}


@st.composite
def config_mappings(draw):
    data = {}
    for key, values in OPTIONAL_KEYS.items():
        if draw(st.booleans()):
            data[key] = draw(values)
    if draw(st.booleans()):
        data = {k: v for k, v in data.items() if not k.startswith("pool.")}
        data["pool.file"] = "pools/p.csv"
    elif draw(st.booleans()):
        classes = draw(st.integers(2, 6))
        data["pool.classes"] = str(classes)
        if draw(st.booleans()):
            ratios = draw(st.lists(st.floats(0.1, 5.0), min_size=classes, max_size=classes))
            data["pool.class_ratios"] = ",".join(map(repr, ratios))
    scheme = data["search.scheme"] = draw(st.sampled_from(SCHEMES))
    data["search.function"] = draw(st.sampled_from(FUNCTION_IDS))
    target = draw(st.integers(8 if scheme == "build_up" else 1, 5000))
    data["search.target_size"] = str(target)
    if scheme == "automatic_duplication" or draw(st.booleans()):
        data["search.acquisition_batch"] = draw(_ints(1, 500))
    if draw(st.booleans()):
        data["search.initial_size"] = draw(_ints(1, target))
    # runs store max(1, epochs) checkpoints, at least the span the ensemble reads
    ensemble = EnsembleConfig(**{
        key.partition(".")[2]: value if key == "ensemble.mode" else int(value)
        for key, value in data.items() if key.startswith("ensemble.")
    })
    span = ensemble.epochs_needed if ensemble.epochs_needed > 1 else 0
    if span > TrainConfig().max_epochs or draw(st.booleans()):
        data["trainer.max_epochs"] = draw(_ints(span, span + 100))
    if draw(st.booleans()):
        data["trainer.fine_tune_epochs"] = draw(_ints(span if scheme == "pretrain" else 0, span + 100))
    # early stopping validates on held-out ids
    if draw(st.booleans()):
        data["trainer.val_fraction"] = draw(_floats(0.0, 1.0, exclude_max=True))
    if draw(st.booleans()):
        held_out = float(data.get("trainer.val_fraction", TrainConfig().val_fraction)) > 0.0
        data["trainer.patience"] = draw(_ints(0, 10 if held_out else 0))
    return data


def test_config_strategy_covers_the_key_table():
    assert set(OPTIONAL_KEYS) | JOINT_KEYS == set(CONFIG_KEYS)


@settings(max_examples=200, deadline=None)
@given(config_mappings())
def test_canonical_lines_round_trip(data):
    config = config_from_mapping(data)
    lines = canonical_config_lines(config)
    again = config_from_mapping(parse_config_text("\n".join(lines)))
    assert canonical_config_lines(again) == lines
    assert config_hash(again) == config_hash(config)


def test_readme_config_hash_is_pinned():
    text = re.search(r"cat > exp.cfg <<'EOF'\n(.*?)EOF", README.read_text(), re.S).group(1)
    config = config_from_mapping(parse_config_text(text))
    assert config_hash(config) == "6c71b4dd53f5de3c"


# the k and s prefixes keep drawn keys off the frame's own header keys and
# drawn section names off [end]; one document's section names are distinct
_doc_keys = st.text("abcxyz019_.", min_size=1, max_size=10).map(lambda k: "k" + k)
_doc_values = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).map(str.strip)
_doc_dicts = st.dictionaries(_doc_keys, _doc_values, max_size=5)
_section_names = st.text("abenxyz09_. =", max_size=10).map(lambda n: "s" + n)


@settings(max_examples=200, deadline=None)
@given(
    _doc_dicts,
    st.lists(st.tuples(_section_names, _doc_dicts), max_size=4, unique_by=lambda s: s[0]),
    _doc_values,
)
def test_a_framed_document_reads_back_its_header_and_sections(header, sections, source):
    body = ["%s = %s" % item for item in header.items()]
    for name, data in sections:
        body += ["[%s]" % name, *("%s = %s" % item for item in data.items())]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.txt"
        path.write_text(_document("source = " + source, "X", body) * 2)
        documents = read_results(path)
    framed = {"schema_version": "1", "source": source, "created": "X", **header}
    assert [(d.header, d.sections) for d in documents] == [(framed, sections)] * 2


# Reference for the trainer's validation split: scalar splitmix64 over
# Python ints and the sort/set split the trainer once used.
_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _reference_split(ids: list[int], fraction: float) -> tuple[list[int], list[int]]:
    ids = sorted(ids)
    n_val = int(len(ids) * fraction)
    if n_val == 0:
        return ids, []
    hashes = np.asarray([_splitmix64(i) for i in ids], dtype=np.uint64)
    order = np.lexsort((np.asarray(ids, dtype=np.uint64), hashes))
    val = sorted(int(ids[i]) for i in order[len(ids) - n_val :])
    return sorted(set(ids) - set(val)), val


# small ids, ids anywhere in uint64, and ids at the top of the range
_sample_ids = st.one_of(
    st.integers(0, 200), st.integers(0, _MASK64), st.integers(_MASK64 - 100, _MASK64)
)
_fractions = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5]), st.floats(0.0, 0.999))


@settings(max_examples=300, deadline=None)
@given(st.lists(_sample_ids, max_size=60, unique=True), _fractions)
def test_held_out_ids_match_the_scalar_reference(ids, fraction):
    arr = np.asarray(sorted(ids), dtype=np.uint64)
    assert _mix64(arr).tolist() == [_splitmix64(i) for i in sorted(ids)]
    held = _held_out(arr, fraction)
    train_ids, val_ids = _reference_split(ids, fraction)
    assert arr[held].tolist() == val_ids
    assert arr[~held].tolist() == train_ids


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_sample_ids, st.integers(1, 5), max_size=40))
def test_training_expansion_matches_the_loop(multiplicity):
    expected = np.empty(sum(multiplicity.values()), dtype=np.uint64)
    pos = 0
    for sid in sorted(multiplicity):
        expected[pos : pos + multiplicity[sid]] = sid
        pos += multiplicity[sid]
    got = SubsetState(multiplicity).as_training_ids()
    assert got.dtype == np.uint64
    assert_array_equal(got, expected)


@st.composite
def stacked_trainings(draw):
    """A pool, a multiset over part of it, a trainer and 1-4 run seeds."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(12, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pool = LabeledPool(rng.normal(0.0, 1.5, (n, 3)), np.arange(n) % k, np.arange(n) * 7 + 1, k)
    ids = draw(st.lists(st.sampled_from(pool.sample_ids.tolist()), min_size=10, unique=True))
    subset = SubsetState({sid: draw(st.integers(1, 3)) for sid in ids})
    val_fraction = draw(st.sampled_from([0.0, 0.2, 0.5]))
    config = TrainConfig(
        arch=draw(st.sampled_from(ARCHITECTURES)),
        hidden=draw(st.integers(1, 6)),
        batch_size=draw(st.integers(1, 20)),
        max_epochs=draw(st.integers(0, 5)),
        patience=draw(st.integers(0, 2)) if val_fraction else 0,
        class_weighting=draw(st.booleans()),
        weight_decay=draw(st.sampled_from([0.0, 1e-3])),
        decay_epochs=tuple(draw(st.lists(st.integers(1, 5), max_size=2, unique=True))),
        checkpoint_window=draw(st.integers(1, 6)),
        val_fraction=val_fraction,
    )
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=4, unique=True))
    return pool, subset, config, seeds


@settings(max_examples=40, deadline=None)
@given(stacked_trainings())
def test_run_stack_equals_runs_trained_one_by_one(case):
    pool, subset, config, seeds = case
    for seed, got in zip(seeds, train_parts([(pool, subset, seeds, None)], config)[0], strict=True):
        want = train(pool, subset, config, seed=seed)
        assert got.train_loss == want.train_loss
        assert got.val_accuracy == want.val_accuracy
        assert [(c.run_seed, c.epoch) for c in got.checkpoints] == [
            (c.run_seed, c.epoch) for c in want.checkpoints
        ]
        for a, b in zip(got.checkpoints, want.checkpoints):
            for ta, tb in zip(a.params.tensors, b.params.tensors):
                assert ta.tobytes() == tb.tobytes()


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.train_loss == b.train_loss
        assert a.val_accuracy == b.val_accuracy
        assert [(c.run_seed, c.epoch, c.subset_digest, c.val_accuracy) for c in a.checkpoints] == [
            (c.run_seed, c.epoch, c.subset_digest, c.val_accuracy) for c in b.checkpoints
        ]
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            for ta, tb in zip(ca.params.tensors, cb.params.tensors):
                assert ta.tobytes() == tb.tobytes()


@st.composite
def stacked_parts(draw):
    """One trainer and 1-5 parts over up to three pools of 2-4 classes each.
    Subsets draw from a few sizes, with or without repeats, so that some
    parts share training-row counts and stack together and others stack
    apart; the last part may train on the first part's subset again. Each
    part trains fresh weights or fine-tunes drawn ones of either
    architecture, so that one call mixes every kind of stack."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pools = []
    for p in range(draw(st.integers(1, 3))):
        n, k = draw(st.integers(20, 40)), draw(st.integers(2, 4))
        features = rng.normal(0.0, 1.5, (n, 3))
        pools.append(LabeledPool(features, rng.integers(0, k, n), np.arange(n) * 5 + p, k))
    val_fraction = draw(st.sampled_from([0.0, 0.2, 0.5]))
    config = TrainConfig(
        arch=draw(st.sampled_from(ARCHITECTURES)),
        hidden=draw(st.integers(1, 5)),
        batch_size=draw(st.integers(1, 12)),
        max_epochs=draw(st.integers(0, 5)),
        patience=draw(st.integers(0, 2)) if val_fraction else 0,
        class_weighting=draw(st.booleans()),
        weight_decay=draw(st.sampled_from([0.0, 1e-3])),
        fine_tune_rate=draw(st.sampled_from([0.0, 1e-2])),
        fine_tune_epochs=draw(st.sampled_from([None, 2])),
        checkpoint_window=draw(st.integers(1, 6)),
        val_fraction=val_fraction,
    )
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        pool = pools[draw(st.integers(0, len(pools) - 1))]
        ids = rng.permutation(pool.sample_ids)[: draw(st.sampled_from([10, 10, 13]))]
        counts = rng.integers(1, 3, len(ids)) if draw(st.booleans()) else np.ones(len(ids), int)
        subset = SubsetState(dict(zip(ids.tolist(), counts.tolist())))
        parts.append([pool, subset])
    if draw(st.booleans()):
        parts.append(list(parts[0]))
    seeds = iter(draw(st.lists(st.integers(0, 2**32), min_size=4 * len(parts),
                               max_size=4 * len(parts), unique=True)))
    for part in parts:
        part_seeds = [next(seeds) for _ in range(draw(st.integers(1, 3)))]
        starts = None
        if draw(st.booleans()):
            archs = [draw(st.sampled_from(ARCHITECTURES)) for _ in part_seeds]
            starts = [init_params(arch, 3, part[0].n_classes, config.hidden, rng) for arch in archs]
        part += [part_seeds, starts]
    return [tuple(part) for part in parts], config


@settings(max_examples=60, deadline=None)
@given(stacked_parts())
def test_a_stack_of_parts_equals_each_part_trained_alone(case):
    parts, config = case
    stacked = train_parts(parts, config)
    assert len(stacked) == len(parts)
    for (pool, subset, seeds, starts), got in zip(parts, stacked):
        _assert_same_results(got, train_parts([(pool, subset, seeds, starts)], config)[0])


# -- the row-blocked pool pass -------------------------------------------------

C = BLOCK_ROWS


def _pool(n, d=6, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledPool(rng.normal(0.0, 2.0, (n, d)), rng.integers(0, k, n), np.arange(n) * 3 + 5, k)


def _members(arch, d=6, k=4, e=5):
    return [init_params(arch, d, k, 7, np.random.default_rng(100 + i)) for i in range(e)]


def _stacked_reference(members, pool, ids):
    """Every member's probabilities from one float32 forward pass over all the
    rows, with weights and features rounded to float32 first."""
    features = pool.features[pool.rows_for(ids)].astype(np.float32)
    probs = []
    for m in members:
        tensors = [t.astype(np.float32) for t in m.tensors]
        out = features @ tensors[0] + tensors[1]
        if m.arch == "mlp":
            out = np.maximum(out, 0.0) @ tensors[2] + tensors[3]
        out = np.exp(out - out.max(axis=1, keepdims=True))
        probs.append(out / out.sum(axis=1, keepdims=True))
    return np.stack(probs, axis=1)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 1])
def test_blocked_prediction_matches_one_whole_pool_pass(arch, n):
    pool, members = _pool(n), _members(arch)
    tensor = predict_pool(members, pool)
    expected = _stacked_reference(members, pool, pool.sample_ids)
    assert tensor.data.dtype == np.float32 and tensor.data.shape == expected.shape
    assert_array_equal(tensor.sample_ids, pool.sample_ids)
    # blocks of other heights may round differently inside BLAS
    assert_array_max_ulp(tensor.data, expected, maxulp=1)
    if n <= C:
        assert tensor.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_blocked_prediction_of_an_id_subset_follows_the_given_order(arch):
    pool, members = _pool(2 * C + 1), _members(arch)
    ids = np.random.default_rng(3).permutation(pool.sample_ids)[: C + 3]
    tensor = predict_pool(members, sub_pool(pool, ids))
    assert_array_equal(tensor.sample_ids, ids)
    assert_array_max_ulp(tensor.data, _stacked_reference(members, pool, ids), maxulp=1)
    head = predict_pool(members, sub_pool(pool, ids[:C].tolist()))
    assert head.data.tobytes() == _stacked_reference(members, pool, ids[:C]).tobytes()


def _entropy_reference(p):
    return -np.where(p > 0.0, p * np.log(np.maximum(p, 1e-12)), 0.0).sum(axis=-1)


def _whole_tensor_scores(data, function_id, labels):
    """Every ensemble score from one float64 copy of the whole tensor."""
    p = data.astype(np.float64)
    n_members, n_classes = p.shape[1:]
    if function_id == "entropy":
        return _entropy_reference(p.mean(axis=1))
    if function_id == "mutual_information":
        return np.maximum(_entropy_reference(p.mean(axis=1)) - _entropy_reference(p).mean(axis=1), 0.0)
    votes = p.argmax(axis=2)
    if function_id == "variation_ratios":
        counts = np.stack([(votes == c).sum(axis=1) for c in range(n_classes)], axis=1)
        return 1.0 - counts.max(axis=1) / n_members
    return 1.0 - (votes == labels[:, None]).sum(axis=1) / n_members


def _multi_block_tensor(seed):
    """2C + 37 samples: Dirichlet rows with tiny entries, then 1/16-grid rows
    with exact zeros and argmax ties."""
    rng = np.random.default_rng(seed)
    n, e, k = 2 * C + 37, 9, 5
    data = rng.dirichlet(np.full(k, 0.3), size=(n, e))
    cuts = np.sort(rng.integers(0, 17, (n - n // 2, e, k - 1)), axis=-1)
    data[n // 2 :] = np.diff(cuts, axis=-1, prepend=0, append=16) / 16.0
    return PredictionTensor(data, rng.permutation(n)), rng.integers(0, k, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_blocked_scores_and_votes_equal_whole_tensor_arithmetic(seed):
    tensor, labels = _multi_block_tensor(seed)
    assert tensor.n_samples > 2 * C
    for function_id in ("entropy", "mutual_information", "variation_ratios", "error_count"):
        got = score_pool(tensor, function_id, labels=labels)
        assert_array_equal(got.sample_ids, tensor.sample_ids)
        assert got.scores.tobytes() == _whole_tensor_scores(tensor.data, function_id, labels).tobytes()
    votes = tensor.data.astype(np.float64).mean(axis=1).argmax(axis=1)
    report = evaluate_tensor(tensor, labels)
    assert report.accuracy == float(np.mean(votes == labels))
    assert report.per_class == {
        int(c): float(np.mean(votes[labels == c] == c)) for c in np.unique(labels)
    }


def test_label_checks_cover_the_whole_pool_not_each_block():
    tensor, labels = _multi_block_tensor(2)
    with pytest.raises(ValueError, match="labels length"):
        score_pool(tensor, "error_count", labels=np.append(labels, 0))
    labels[-1] = tensor.n_classes
    with pytest.raises(ValueError, match="out of range"):
        score_pool(tensor, "error_count", labels=labels)


def test_validation_reaches_the_last_block():
    tensor, _ = _multi_block_tensor(3)
    data = tensor.data.copy()
    data[-1, -1] = [2.0, -1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="entries outside"):
        PredictionTensor(data, tensor.sample_ids)
    data[-1, -1] = [0.5, 0.4, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="sum to 1"):
        PredictionTensor(data, tensor.sample_ids)


def test_pool_pass_working_set_is_a_few_blocks():
    pool = _pool(8 * C - 3, k=10)
    members = _members("mlp", k=10, e=10)
    block_bytes = C * 10 * 10 * 8
    tracemalloc.start()
    try:
        tensor = predict_pool(members, pool)
        _, predict_peak = tracemalloc.get_traced_memory()
        held, _ = tracemalloc.get_traced_memory()
        score_peaks = []
        for function_id in ("entropy", "mutual_information", "variation_ratios", "error_count"):
            tracemalloc.reset_peak()
            score_pool(tensor, function_id, labels=pool.labels)
            evaluate_tensor(tensor, pool.labels)
            score_peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    # the float32 tensor (4 blocks' worth of float64) plus one validation block
    assert predict_peak < tensor.data.nbytes + 2 * block_bytes
    assert max(score_peaks) < 3 * block_bytes


def test_checkpoint_with_a_nan_weight_is_refused(tmp_path, capsys):
    pool = _pool(C + 10)
    params = _members("mlp", e=1)[0]
    params.tensors[2][3, 1] = np.nan
    with pytest.raises(ValueError, match="invalid distribution: non-finite entries"):
        predict_pool([params], pool)

    store = CheckpointStore()
    store.add(Checkpoint(params, 1, 1))
    store.save(tmp_path / "ckpts")
    write_pool_csv(tmp_path / "pool.csv", pool)
    code = main([
        "score", "--pool", str(tmp_path / "pool.csv"), "--checkpoints", str(tmp_path / "ckpts"),
        "--function", "entropy", "--mode", "single", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "invalid distribution: non-finite entries" in capsys.readouterr().err


# -- the tensor-free block pass ------------------------------------------------


def _tensor_pass(members, pool, function_id):
    """Scores and votes through a kept tensor: predict_pool, then score_pool
    and one float64 copy for the votes."""
    tensor = predict_pool(members, pool)
    labels = pool.labels[pool.rows_for(tensor.sample_ids)]
    scores = score_pool(tensor, function_id, labels=labels, seed=11)
    votes = tensor.data.astype(np.float64).mean(axis=1).argmax(axis=1)
    return tensor, labels, scores, votes


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 1])
def test_block_pass_equals_the_tensor_pass(arch, n):
    pool, members = _pool(n), _members(arch)
    shuffled = np.random.default_rng(n).permutation(pool.sample_ids)[: max(1, n - 2)]
    for on in (pool, sub_pool(pool, shuffled)):
        source = PoolBlocks(members, on)
        assert_array_equal(on.labels, pool.labels[pool.rows_for(source.sample_ids)])
        for function_id in FUNCTION_IDS:
            tensor, labels, expected, votes = _tensor_pass(members, on, function_id)
            scores, got_votes = pool_pass(source, function_id, labels, seed=11, votes=True)
            assert scores.function_id == function_id
            assert_array_equal(scores.sample_ids, tensor.sample_ids)
            assert scores.scores.tobytes() == expected.scores.tobytes()
            assert got_votes.tobytes() == votes.tobytes()
        assert evaluate_tensor(source, labels) == evaluate_tensor(tensor, labels)
        assert evaluate(members, on) == evaluate_tensor(tensor, labels)


def test_block_pass_blocks_equal_the_tensor_blocks():
    pool, members = _pool(2 * C + 1), _members("mlp")
    tensor = predict_pool(members, pool)
    for (rows, got), (want_rows, want) in zip(PoolBlocks(members, pool).blocks(), tensor.blocks()):
        assert rows == want_rows
        (got,), (want,) = [group.copy() for group in got], list(want)
        assert got.dtype == want.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == want.shape == (len(members), rows.stop - rows.start, pool.n_classes)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _member_block_reference(members, features):
    """A (c, E, K) block as one float32 forward pass and one softmax per
    member gives it, in plain numpy: a reference that reads no alsift code."""
    x = features.astype(np.float32)
    block = np.empty((len(x), len(members), members[0].n_classes))
    for j, member in enumerate(members):
        out = x
        tensors = [t.astype(np.float32) for t in member.tensors]
        for layer, (w, b) in enumerate(zip(tensors[::2], tensors[1::2])):
            if layer:
                out = np.maximum(out, 0.0)
            out = out @ w + b
        out = np.exp(out - out.max(axis=-1, keepdims=True))
        block[:, j] = out / out.sum(axis=-1, keepdims=True)
    return block


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("n", [1, C - 1, C + 1])
@pytest.mark.parametrize("group", [None, 1, 2], ids=["all_members", "one_member", "two_members"])
def test_pool_blocks_equal_a_per_member_reference(arch, k, n, group, monkeypatch):
    # members go through the softmax in groups of at most GROUP_VALUES logits;
    # smaller groups split the 5 members of a full block 1+1+1+1+1 or 2+2+1
    if group is not None:
        monkeypatch.setattr(alsift.acquisition, "GROUP_VALUES", group * C * k)
    pool, members = _pool(n, k=k), _members(arch, k=k)
    shuffled = np.random.default_rng(n).permutation(pool.sample_ids)
    for ids in (None, shuffled):
        source = PoolBlocks(members, pool if ids is None else sub_pool(pool, ids))
        rows = np.arange(n) if ids is None else pool.rows_for(shuffled)
        walked = 0
        for block_rows, groups in source.blocks():
            want = _member_block_reference(members, pool.features[rows[block_rows]])
            size = max(1, alsift.acquisition.GROUP_VALUES // (len(want) * k))
            got = []
            for group in groups:
                assert group.dtype == np.float32 and group.flags.c_contiguous
                got.append(group.swapaxes(0, 1).astype(np.float64))
            assert [g.shape[1] for g in got] == [min(size, 5 - lo) for lo in range(0, 5, size)]
            block = np.concatenate(got, axis=1)
            assert block.shape == want.shape
            assert block.tobytes() == want.tobytes()
            walked += len(block)
        assert walked == n


def _float64_block_reference(probs, labels, seed):
    """Scores of every function, fused votes, consensus counts and accuracy of
    (N, E, K) member probabilities, from float64 (c, E, K) blocks of
    ``BLOCK_ROWS`` rows in plain numpy, as the walk once computed them."""
    def entropies(q):
        return -np.where(q > 0.0, q * np.log(np.maximum(q, 1e-12)), 0.0).sum(axis=-1)

    n, n_members, n_classes = probs.shape
    scores = {f: np.empty(n) for f in FUNCTION_IDS}
    fused = np.empty(n, dtype=np.int64)
    votes = np.empty((n, n_members), dtype=np.int64)
    for lo in range(0, n, C):
        rows = slice(lo, min(lo + C, n))
        block = probs[rows].astype(np.float64)
        mean = block.mean(axis=1)
        votes[rows] = block.argmax(axis=2)
        counts = np.stack([(votes[rows] == c).sum(axis=1) for c in range(n_classes)], axis=1)
        scores["entropy"][rows] = entropies(mean)
        scores["mutual_information"][rows] = np.maximum(
            entropies(mean) - entropies(block).mean(axis=1), 0.0
        )
        scores["variation_ratios"][rows] = 1.0 - counts.max(axis=1) / n_members
        scores["error_count"][rows] = 1.0 - (votes[rows] == labels[rows, None]).sum(axis=1) / n_members
        fused[rows] = mean.argmax(axis=1)
    scores["random"] = np.random.default_rng(seed).random(n)
    consensus = [
        (n, tuple(int(np.all(votes[:, :m] == votes[:, :1], axis=1).sum()) for m in range(1, n_max + 1)),
         tuple(int((votes[:, i] == votes[:, i + 1]).sum()) for i in range(n_members - 1)))
        for n_max in range(1, n_members + 1)
    ]
    return scores, fused, consensus, float(np.mean(fused == labels))


GROUP = 3  # members per group in a full block, by a small GROUP_VALUES


@pytest.mark.parametrize("k", [2, 4, 7, 8, 10, 17])
@pytest.mark.parametrize("n", [1, C - 1, C + 1])
def test_grouped_walk_equals_a_float64_block_reference(k, n, monkeypatch, tmp_path):
    # one member, and one member below and above a group boundary, walked from
    # members, from a tensor in memory and from an .alpt file read block by block
    monkeypatch.setattr(alsift.acquisition, "GROUP_VALUES", GROUP * C * k)
    arch = ARCHITECTURES[k % 2]
    pool = _pool(n, k=k, seed=k)
    shuffled = np.random.default_rng(n + k).permutation(pool.sample_ids)
    for n_members in (1, GROUP - 1, GROUP + 1):
        members = _members(arch, k=k, e=n_members)
        for ids in (None, shuffled):
            rows = np.arange(n) if ids is None else pool.rows_for(ids)
            probs = _member_block_reference(members, pool.features[rows])
            labels = pool.labels[rows]
            scores, fused, consensus, accuracy = _float64_block_reference(probs, labels, seed=5)
            on = pool if ids is None else sub_pool(pool, ids)
            blocks = PoolBlocks(members, on)
            tensor = predict_pool(members, on)
            assert tensor.data.tobytes() == probs.astype(np.float32).tobytes()
            write_prediction_tensor(tmp_path / "t.alpt", tensor)
            sources = (blocks, PredictionTensor(probs, blocks.sample_ids), TensorFile(tmp_path / "t.alpt"))
            for source in sources:
                for rows, groups in source.blocks():
                    size = max(1, GROUP * C // (rows.stop - rows.start))  # GROUP in a full block
                    want = [min(size, n_members - lo) for lo in range(0, n_members, size)]
                    assert [len(g) for g in groups] == want
                for function_id in FUNCTION_IDS:
                    got, votes = pool_pass(source, function_id, labels, seed=5, votes=True)
                    assert got.scores.tobytes() == scores[function_id].tobytes(), function_id
                    assert votes.tobytes() == fused.tobytes()
                for n_max, want in enumerate(consensus, 1):
                    got = consensus_counts(source, n_max)
                    assert (got.eval_size, got.cumulative, got.pairwise) == want
                assert evaluate_tensor(source, labels).accuracy == accuracy
            assert evaluate(members, on) == evaluate_tensor(tensor, labels)


@pytest.mark.parametrize("n", [0, 1, C - 1, C + 1, 2 * C + 3])
def test_gather_copies_every_source_byte_for_byte(n, monkeypatch, tmp_path):
    # 7 members in groups of 2 in the first block: group-wise copies into the
    # tensor, from members, from an .alpt file and from a tensor in memory
    k, n_members = 4, 7
    monkeypatch.setattr(alsift.acquisition, "GROUP_VALUES", 2 * k * min(max(n, 1), C), raising=True)
    pool, members = _pool(n + 1, k=k, seed=n), _members("mlp", k=k, e=n_members)
    ids = np.random.default_rng(n).permutation(pool.sample_ids)[:n]
    rows = pool.rows_for(ids)
    reference = np.concatenate(
        [_member_block_reference(members, pool.features[rows[r]]) for r in row_blocks(n)]
    ).astype(np.float32)
    blocks = PoolBlocks(members, sub_pool(pool, ids))
    if n:
        assert len(list(next(blocks.blocks())[1])) >= 3
    tensor = PredictionTensor.gather(blocks)
    write_prediction_tensor(tmp_path / "t.alpt", tensor)
    gathered = [
        tensor,
        predict_pool(members, sub_pool(pool, ids)),
        PredictionTensor.gather(TensorFile(tmp_path / "t.alpt")),
        read_prediction_tensor(tmp_path / "t.alpt"),
        PredictionTensor.gather(tensor),
    ]
    for got in gathered:
        assert got.data.dtype == np.float32 and got.data.flags.c_contiguous
        assert got.data.shape == (n, n_members, k)
        assert got.data.tobytes() == reference.tobytes()
        assert got.sample_ids.dtype == np.uint64 and got.sample_ids.tobytes() == ids.astype(np.uint64).tobytes()
    raw = (tmp_path / "t.alpt").read_bytes()
    (tmp_path / "t.alpt").write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match="^trailing bytes after the prediction tensor file's"):
        read_prediction_tensor(tmp_path / "t.alpt")
    if n:
        (tmp_path / "t.alpt").write_bytes(raw[: 18 + (n // 2) * n_members * k * 4])
        with pytest.raises(ValueError, match="^truncated prediction tensor data$"):
            read_prediction_tensor(tmp_path / "t.alpt")


def test_walk_never_holds_a_float64_block():
    """A 50-member, 10-class walk over three blocks peaks below one float64
    (BLOCK_ROWS, E, K) block: groups are reduced as they come."""
    pool, members = _pool(2 * C + 1, k=10), _members("logistic", k=10, e=50)
    block_bytes = C * 50 * 10 * 8
    walks = [
        lambda: pool_pass(PoolBlocks(members, pool), "mutual_information", votes=True),
        lambda: pool_pass(PoolBlocks(members, pool), "error_count", pool.labels),
        lambda: consensus_counts(PoolBlocks(members, pool), 50),
        lambda: evaluate(members, pool),
    ]
    for walk in walks:
        tracemalloc.start()
        try:
            walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes


@pytest.mark.parametrize("function_id", FUNCTION_IDS)
def test_block_pass_refuses_a_member_with_a_nan_weight(function_id):
    pool, members = _pool(C + 10), _members("mlp")
    members[2].tensors[2][3, 1] = np.nan
    source = PoolBlocks(members, pool)
    with pytest.raises(ValueError, match="invalid distribution: non-finite entries"):
        pool_pass(source, function_id, pool.labels, seed=1)
    with pytest.raises(ValueError, match="invalid distribution: non-finite entries"):
        pool_pass(source, votes=True)
    with pytest.raises(ValueError, match="invalid distribution: non-finite entries"):
        evaluate(members, pool)


def test_block_pass_refuses_values_beyond_the_float32_range():
    """Features of 1e39 are finite in float64 but not in float32, where pool
    inference runs; so is a weight of -1e39, and weights of 1e38 overflow the
    logits. Each is refused by name, without a RuntimeWarning."""
    pool, members = _pool(C + 10), _members("mlp")
    features = pool.features.copy()
    features[C + 3, 2] = 1e39
    wide = LabeledPool(features, pool.labels, pool.sample_ids, pool.n_classes)
    big_weight, big_logits = _members("logistic"), _members("logistic")
    big_weight[1].tensors[0][2, 0] = -1e39
    big_logits[3].tensors[0][:] = 1e38
    cases = [
        (members, wide, "pool features"),
        (big_weight, pool, "member weights"),
        (big_logits, pool, "member logits"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ensemble, on, what in cases:
            message = r"^%s outside the float32 range \(\|x\| <= 3\.4028235e\+38\)$" % what
            with pytest.raises(ValueError, match=message):
                pool_pass(PoolBlocks(ensemble, on), "mutual_information")
            with pytest.raises(ValueError, match=message):
                evaluate(ensemble, on)
            with pytest.raises(ValueError, match=message):
                predict_pool(ensemble, on)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_the_gap_splits_one_walk_of_the_whole_pool(arch, monkeypatch):
    # the subset spans more than one block; each partition's report is the one
    # a pool of just its rows gives
    pool, members = _pool(2 * C + 1), _members(arch)
    state = SubsetState.from_ids(np.random.default_rng(9).permutation(pool.sample_ids)[: C + 1])
    walked = []

    def counted(source, *args, **kwargs):
        walked.append(source.n_samples)
        return pool_pass(source, *args, **kwargs)

    monkeypatch.setattr(alsift.analysis, "pool_pass", counted)
    got = selected_unselected_gap(members, pool, state)
    assert walked == [pool.n_samples]
    rest = np.setdiff1d(pool.sample_ids, state.ids())
    assert got == (evaluate(members, sub_pool(pool, state.ids())), evaluate(members, sub_pool(pool, rest)))
    assert (got[0].n_samples, got[1].n_samples) == (C + 1, C)


def test_block_pass_keeps_the_label_and_empty_set_checks():
    pool, members = _pool(C + 10), _members("logistic")
    source = PoolBlocks(members, pool)
    with pytest.raises(ValueError, match="labels length"):
        pool_pass(source, "error_count", np.append(pool.labels, 0))
    with pytest.raises(ValueError, match="requires labels"):
        pool_pass(source, "error_count")
    with pytest.raises(ValueError, match="labels length"):
        evaluate_tensor(source, pool.labels[:-1])
    with pytest.raises(ValueError, match="empty evaluation id set"):
        evaluate(members, sub_pool(pool, []))


def _consensus_reference(data, n_max):
    """Cumulative and pairwise agreement counts from the whole vote matrix."""
    votes = data.argmax(axis=2)
    cumulative = [int((votes[:, :n] == votes[:, :1]).all(axis=1).sum()) for n in range(1, n_max + 1)]
    pairwise = [int((votes[:, i] == votes[:, i + 1]).sum()) for i in range(votes.shape[1] - 1)]
    return len(votes), tuple(cumulative), tuple(pairwise)


@pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 1])
def test_consensus_over_blocks_equals_consensus_over_the_tensor(n):
    pool, members = _pool(n, k=3), _members("logistic", k=3, e=6)
    tensor, source = predict_pool(members, pool), PoolBlocks(members, pool)
    for n_max in range(1, len(members) + 1):
        got = consensus_counts(source, n_max)
        assert got == consensus_counts(tensor, n_max)
        assert (got.eval_size, got.cumulative, got.pairwise) == _consensus_reference(tensor.data, n_max)
    # members that disagree somewhere, so a misplaced count shows
    assert 0 < got.cumulative[-1] < n or n == 1


@pytest.mark.parametrize("function_id", ["entropy", "mutual_information"])
def test_one_member_mean_serves_scores_and_votes(function_id):
    pool, members = _pool(2 * C + 1), _members("mlp")
    tensor = predict_pool(members, pool)
    expected = _whole_tensor_scores(tensor.data, function_id, None)
    for source in (PoolBlocks(members, pool), tensor):
        scores, votes = pool_pass(source, function_id, votes=True)
        alone, no_votes = pool_pass(source, function_id)
        assert no_votes is None
        assert scores.scores.tobytes() == alone.scores.tobytes() == expected.tobytes()
        assert votes.tobytes() == pool_pass(source, votes=True)[1].tobytes()
        assert votes.tobytes() == tensor.data.astype(np.float64).mean(axis=1).argmax(axis=1).tobytes()


@pytest.mark.parametrize("n", [0, 1, C, C + 1, 2 * C + 1])
def test_row_blocks_cover_the_rows_once_in_one_buffer(n, monkeypatch):
    walked = list(row_blocks(n))
    assert [(rows.start, rows.stop) for rows in walked] == (
        [(lo, min(lo + C, n)) for lo in range(0, n, C)] or [(0, 0)]
    )
    # the member groups of one PoolBlocks block take turns in one buffer
    monkeypatch.setattr(alsift.acquisition, "GROUP_VALUES", 2 * C * 4)
    pool = _pool(max(n, 1))
    for rows, groups in PoolBlocks(_members("logistic"), pool).blocks():
        first = next(groups)
        for group in groups:
            assert np.shares_memory(group, first)


def test_an_empty_tensor_still_has_its_block_checked():
    with pytest.raises(ValueError, match="no classes"):
        PredictionTensor(np.zeros((0, 2, 0)), [])


def test_consensus_working_set_is_below_the_tensor():
    pool, members = _pool(4 * C + 1, k=10), _members("logistic", k=10, e=12)
    tensor_bytes = pool.n_samples * len(members) * pool.n_classes * 4
    tracemalloc.start()
    try:
        consensus_counts(PoolBlocks(members, pool), len(members))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor_bytes


def _grow_and_evaluate_peaks(n):
    """tracemalloc peaks of a build-up search and of a whole-pool evaluation
    on an n-sample pool; the search trains on the same 64 ids whatever n is."""
    pool, members = _pool(n, k=10), _members("mlp", k=10, e=10)
    config = SearchConfig(
        "build_up", "mutual_information", 64,
        EnsembleConfig(mode="combined", runs=2, checkpoints_per_run=5),
        TrainConfig(arch="mlp", hidden=7, max_epochs=5, batch_size=16),
    )
    peaks = []
    for call in (lambda: run_scheme(pool, config), lambda: evaluate(members, pool)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_search_and_evaluate_working_set_does_not_grow_with_the_pool():
    small, large = _grow_and_evaluate_peaks(2 * C + 1), _grow_and_evaluate_peaks(8 * C + 1)
    block_bytes = C * 10 * 10 * 8
    # a tensor would add E * K * 4 = 400 bytes per sample; the block pass adds
    # only per-sample scores, votes and selection arrays
    per_sample = 64
    for got_small, got_large in zip(small, large):
        assert got_small < 3 * block_bytes
        assert got_large - got_small < per_sample * 6 * C


# -- the column-wise softmax max -----------------------------------------------

_EDGE_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 5e-324]


@st.composite
def logit_arrays(draw):
    """Logits with NaN, infinities, signed zeros and ties, with or without a run axis."""
    k = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 1), (3, 5)]))
    rows = (draw(st.integers(1, 9)),) if not lead else lead
    size = math.prod(rows) * k
    finite = st.floats(-50.0, 50.0, allow_nan=False)
    values = draw(st.lists(st.sampled_from(_EDGE_VALUES) | finite, min_size=size, max_size=size))
    return np.asarray(values, dtype=np.float64).reshape(*rows, k)


def _softmax_with_reduction_max(logits):
    logits = logits - logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


@settings(max_examples=200, deadline=None)
@given(logit_arrays())
def test_column_max_equals_the_last_axis_max(logits):
    expected = logits.max(axis=-1, keepdims=True)
    got = _row_max(logits)
    assert got.shape == expected.shape
    # numpy's reduction may return either zero when +0.0 and -0.0 tie for the
    # maximum, depending on its SIMD lanes; adding +0.0 makes every zero +0.0
    assert (got + 0.0).tobytes() == (expected + 0.0).tobytes()
    with np.errstate(all="ignore"):
        want = _softmax_with_reduction_max(logits)
        assert _softmax(logits.copy()).tobytes() == want.tobytes()


# -- the class-axis sums, member means and vote counts ---------------------------


def _nan_bytes(values):
    """The bytes of ``values`` with every NaN made the one ``np.nan``. A sum that
    meets two NaNs (an input one and the -inf + inf one) keeps one of them, and
    numpy's SIMD and scalar loops keep different ones, so only a NaN's sign
    bit can differ; no NaN reaches an output, since probability rows and
    training losses are checked for them."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


@settings(max_examples=200, deadline=None)
@given(logit_arrays(), st.sampled_from([np.float32, np.float64]))
def test_column_sum_equals_the_last_axis_sum(logits, dtype):
    with np.errstate(all="ignore"):
        values = logits.astype(dtype)
        expected = values.sum(axis=-1, keepdims=True)
        got = _row_sum(values)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert _nan_bytes(got) == _nan_bytes(expected)


def _walk_stack(members, function_id=None, parts=1):
    """Scores and member mean of a (..., E, K) stack of member rows from one
    walk block, its members split into ``parts`` member-major groups."""
    *lead, e, k = members.shape
    group = np.moveaxis(members, -2, 0).reshape(e, -1, k)
    shape = (group.shape[1], e, k)
    scores, mean, _ = _reduce_block(np.array_split(group, parts), shape, function_id, mean=True)
    return None if scores is None else scores.reshape(lead), mean.reshape(*lead, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 200), st.sampled_from([(), (3,), (2, 5)]), st.sampled_from([np.float32, np.float64]),
       st.integers(0, 2**32 - 1))
def test_column_sum_equals_the_last_axis_sum_of_long_rows(k, lead, dtype, seed):
    # 8 to 128 entries are added in numpy's partial-sum order, longer rows by numpy
    rng = np.random.default_rng(seed)
    values = (rng.normal(size=(*lead, k)) * 10.0 ** rng.integers(-3, 4, size=(*lead, k))).astype(dtype)
    values[..., rng.integers(0, k, size=k // 4)] = -0.0
    expected = values.sum(axis=-1, keepdims=True)
    got = _row_sum(values)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert _row_sum(np.full((2, k), -0.0, dtype)).tobytes() == np.zeros((2, 1), dtype).tobytes()


@settings(max_examples=200, deadline=None)
@given(logit_arrays(), st.integers(1, 4))
def test_member_mean_equals_numpy_mean(logits, n_members):
    # the member axis is the run axis of logit_arrays, or a repeat of the rows
    members = logits if logits.ndim > 2 else np.stack([logits] * n_members, axis=-2)
    with np.errstate(all="ignore"):
        for parts in {1, 2, members.shape[-2]}:
            assert _nan_bytes(_walk_stack(members, parts=parts)[1]) == _nan_bytes(members.mean(axis=-2))
        # the (C, H, W, E, 2) stack that detection_heatmaps scores
        binary = np.moveaxis(np.stack([members, 1.0 - members], axis=-1), 0, -2)
        assert _nan_bytes(_walk_stack(binary)[1]) == _nan_bytes(binary.mean(axis=-2))


def test_member_mean_of_one_member_and_of_negative_zeros():
    for members in (np.array([[[-0.0, 0.5, -0.0]]]), np.full((2, 3, 4), -0.0)):
        assert _walk_stack(members)[1].tobytes() == members.mean(axis=-2).tobytes()
    assert not np.signbit(_walk_stack(np.full((2, 3, 4), -0.0))[1]).any()


@st.composite
def member_votes(draw):
    """(..., E, K) member rows from a few values, so argmax ties are common,
    with one or many members and classes."""
    n_members, n_classes = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (0,), (1,), (6,), (2, 3)]))
    size = math.prod(lead) * n_members * n_classes
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=size, max_size=size))
    return np.asarray(values).reshape(*lead, n_members, n_classes)


@settings(max_examples=200, deadline=None)
@given(member_votes())
def test_vote_counts_equal_the_comparison_form(members):
    n_classes = members.shape[-1]
    votes = np.argmax(members, axis=-1)
    expected = (votes[..., None] == np.arange(n_classes)).sum(axis=-2)
    got = _vote_counts(votes, n_classes)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    ratios = 1.0 - expected.max(axis=-1) / members.shape[-2]
    assert _walk_stack(members, "variation_ratios")[0].tobytes() == ratios.tobytes()



# -- pool CSV files --------------------------------------------------------------


def _csv_writer_pool(path, pool):
    """Reference pool writer: one ``csv.writer`` row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "label"] + ["x_%d" % i for i in range(pool.n_features)])
        for row in range(pool.n_samples):
            writer.writerow(
                [int(pool.sample_ids[row]), int(pool.labels[row])]
                + [repr(float(v)) for v in pool.features[row]]
            )


def _csv_writer_metadata(path, pool, meta):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "duplicate_of", "noisy", "true_label"])
        for row in range(pool.n_samples):
            writer.writerow([
                int(pool.sample_ids[row]), int(meta.duplicate_of[row]),
                int(meta.noisy[row]), int(meta.true_labels[row]),
            ])


def _row_loop_pool(path):
    """Reference reader: the ``csv`` row loop with ``int``/``float`` per cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["sample_id", "label"]:
            raise ValueError("expected header sample_id, label, x_0..")
        width = len(header) - 2
        if width < 1:
            raise ValueError("pool file has no feature columns")
        ids, labels, rows = [], [], []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != width + 2:
                    raise ValueError("expected %d columns, found %d" % (width + 2, len(row)))
                ids.append(int(row[0]))
                labels.append(int(row[1]))
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ValueError("line %d: %s" % (reader.line_num, exc)) from None
    if not ids:
        raise ValueError("empty pool file")
    labels_arr = np.asarray(labels, dtype=np.int64)
    return LabeledPool(
        np.asarray(rows), labels_arr, np.asarray(ids, dtype=np.uint64), int(labels_arr.max()) + 1
    )


def _outcome(read, path):
    """A loaded pool as exact bytes, or the refusal as (type, message)."""
    try:
        pool = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (pool.sample_ids, pool.labels, pool.features)
    return tuple(a.dtype.str + repr(a.shape) + a.tobytes().hex() for a in arrays) + (pool.n_classes,)


_FLOAT_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -2.0000000000000004,
    1e-05, 1e16, 123456789.12345679,
]


@st.composite
def csv_pools(draw, max_rows=6, max_width=4):
    """Pools with ids up to 2**64 - 1, edge-case floats and 17-digit values."""
    n = draw(st.integers(1, max_rows))
    width = draw(st.integers(1, max_width))
    ids = draw(
        st.lists(st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1]), min_size=n, max_size=n, unique=True)
    )
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda ls: max(ls) > 0))
    values = st.sampled_from(_FLOAT_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
    features = draw(st.lists(values, min_size=n * width, max_size=n * width))
    return LabeledPool(
        np.asarray(features).reshape(n, width), labels, np.asarray(ids, dtype=np.uint64), max(labels) + 1
    )


@settings(max_examples=150, deadline=None)
@given(csv_pools())
def test_pool_files_match_csv_writer_and_round_trip_exactly(pool):
    meta = PoolMetadata(
        np.where(pool.labels > 1, -1, pool.labels), pool.labels % 2 == 1, pool.labels
    )
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_pool_csv(got, pool)
        _csv_writer_pool(want, pool)
        assert got.read_bytes() == want.read_bytes()
        write_metadata_csv(got, pool, meta)
        _csv_writer_metadata(want, pool, meta)
        assert got.read_bytes() == want.read_bytes()
        write_pool_csv(got, pool)
        assert _outcome(read_pool_csv, got) == _outcome(lambda _: pool, got)


def _perturb(draw, lines):
    """One edit of a pool file's lines (header first, no line ends)."""
    kind = draw(st.sampled_from([
        "blank", "whitespace", "quote", "underscore", "drop", "extra", "empty", "pad", "plus", "comment",
    ]))
    if kind in ("blank", "whitespace"):
        at = draw(st.integers(1, len(lines)))
        text = "" if kind == "blank" else draw(st.sampled_from([" ", "\t", "  \x0c", "\xa0"]))
        return lines[:at] + [text] + lines[at:]
    i = draw(st.integers(1, len(lines) - 1))
    cells = lines[i].split(",")
    j = draw(st.integers(0, len(cells) - 1))
    cell = cells[j]
    if kind == "quote":
        cells[j] = '"%s"' % cell
    elif kind == "underscore":
        k = draw(st.integers(0, len(cell)))
        cells[j] = cell[:k] + "_" + cell[k:]
    elif kind == "drop":
        del cells[j]
    elif kind == "extra":
        cells.insert(j, draw(st.sampled_from(["0.5", "1", ""])))
    elif kind == "empty":
        cells[j] = ""
    elif kind == "pad":
        cells[j] = draw(st.sampled_from([" ", "\t"])) + cell + draw(st.sampled_from(["", " ", "\xa0"]))
    elif kind == "plus":
        cells[j] = "+" + cell
    else:
        cells[j] = cell + "#"
    return lines[:i] + [",".join(cells)] + lines[i + 1:]


@settings(max_examples=300, deadline=None)
@given(csv_pools(max_rows=4, max_width=3), st.data())
def test_reader_agrees_with_the_row_loop_on_perturbed_files(pool, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "pool.csv")
        _csv_writer_pool(path, pool)
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        for _ in range(data.draw(st.integers(1, 4))):
            lines = _perturb(data.draw, lines)
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
        text = "".join(line + end for line, end in zip(lines, ends))
        if data.draw(st.integers(0, 3)) == 0:
            text = text[: data.draw(st.integers(0, len(text)))]
        path.write_text(text, newline="")
        assert _outcome(read_pool_csv, path) == _outcome(_row_loop_pool, path)


@pytest.mark.parametrize("rows", [
    "0,0,0.5#\n1,1,0.25\n",  # a comment character
    "0,0,0.5\n \n1,1,0.25\n",  # a whitespace-only line
    "0,0,0.5\n\x0c\n1,1,0.25\n",
    "\x1c0,0,0.5\x85\n1,\xa01,0.25\u2003\n",  # unicode whitespace around cells
    "0,0,0.5\r,0.25\n1,1,0.25\n",  # a bare CR inside what numpy might read as one row
    "0,0,0.5\n1,1,0.25\r\r\n\n",
    "0,0,1e400\n1,1,0.25\n",
    "0,0,0x10\n1,1,0.25\n",
    "0,0,0.5\x00\n1,1,0.25\n",
    "0,0,\u0663\n1,1,0.25\n",  # a non-ASCII digit
    "\u01fe0,0,0.5\n1,1,0.25\n",  # a non-ASCII letter numpy's integer parser passes
    "00,+0,-0\n1,1e0,0.25\n",
    "0,0,0.5\n0,1,0.25\n",  # a repeated id
    "0,9223372036854775808,0.5\n1,1,0.25\n",  # a label past int64
    "0,0,0.5,\n1,1,0.25\n",
])
def test_reader_agrees_with_the_row_loop_on_edge_files(tmp_path, rows):
    path = tmp_path / "pool.csv"
    path.write_text("sample_id,label,x_0\n" + rows, newline="")
    assert _outcome(read_pool_csv, path) == _outcome(_row_loop_pool, path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_reader_agrees_with_the_row_loop_at_every_truncation(tmp_path, end):
    text = end.join([
        "sample_id,label,x_0,x_1", "18446744073709551615,1,-0.0,1e-05",
        "", "7,0,5e-324,-1.7976931348623157e308", "12,2,0.30000000000000004,3.5",
    ]) + end
    path = tmp_path / "pool.csv"
    outcomes = set()
    for stop in range(len(text) + 1):
        path.write_text(text[:stop], newline="")
        got = _outcome(read_pool_csv, path)
        assert got == _outcome(_row_loop_pool, path), stop
        outcomes.add(got if isinstance(got[0], type) else "pool")
    assert "pool" in outcomes and len(outcomes) > 5


# -- subset accounting and the pool index -----------------------------------------

# ids that often collide, at both ends of the uint64 range, plus any uint64
_SUBSET_IDS = st.sampled_from([0, 1, 2, 7, 2**63, 2**64 - 2, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def _id_input(draw, ids):
    """The same ids as a list of Python ints or as a uint64 array."""
    return np.asarray(ids, dtype=np.uint64) if draw(st.booleans()) else list(ids)


def _reference_new_ids(model: dict, ids) -> dict | str:
    """``with_new_ids`` on the dict model: a copy, or the refusal message."""
    merged = dict(model)
    for sid in ids:
        if sid in merged:
            return "sample %d is already in the subset" % sid
        merged[sid] = 1
    return merged


def _reference_added_copies(model: dict, ids) -> dict:
    merged = dict(model)
    for sid in ids:
        merged[sid] = merged.get(sid, 0) + 1
    return merged


def _reference_hash(model: dict) -> str:
    payload = ";".join("%d:%d" % (sid, model[sid]) for sid in sorted(model))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _reference_subset_csv(path, model: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "multiplicity"])
        writer.writerows(sorted(model.items()))


def _assert_matches_model(state: SubsetState, model: dict) -> None:
    ids = sorted(model)
    assert state.ids().dtype == np.uint64 and state.counts().dtype == np.int64
    assert state.ids().tolist() == ids
    assert state.counts().tolist() == [model[sid] for sid in ids]
    assert state.as_training_ids().tolist() == [sid for sid in ids for _ in range(model[sid])]
    assert (state.unique_count, state.total_count) == (len(model), sum(model.values()))
    assert dict(state.multiplicity) == model
    assert subset_hash(state) == _reference_hash(model)
    assert duplication_histogram(state).rows() == sorted(Counter(model.values()).items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subset_state_matches_a_dict_model(data):
    draw = data.draw
    initial = draw(st.lists(_SUBSET_IDS, max_size=8))
    if len(set(initial)) != len(initial):
        with pytest.raises(ValueError, match="^duplicate ids in subset initializer$"):
            SubsetState.from_ids(_id_input(draw, initial))
        initial = list(dict.fromkeys(initial))
    state, model = SubsetState.from_ids(_id_input(draw, initial)), dict.fromkeys(initial, 1)
    _assert_matches_model(state, model)
    for _ in range(draw(st.integers(0, 5))):
        ids = draw(st.lists(st.sampled_from(sorted(model)) | _SUBSET_IDS, max_size=8) if model
                   else st.lists(_SUBSET_IDS, max_size=8))
        if draw(st.booleans()):
            want = _reference_new_ids(model, ids)
            if isinstance(want, str):
                with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
                    state.with_new_ids(_id_input(draw, ids))
                continue
            state, model = state.with_new_ids(_id_input(draw, ids)), want
        else:
            state, model = state.with_added_copies(_id_input(draw, ids)), _reference_added_copies(model, ids)
        _assert_matches_model(state, model)
    assert SubsetState(model) == state
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_subset_csv(got, state)
        _reference_subset_csv(want, model)
        assert got.read_bytes() == want.read_bytes()
        assert read_subset_csv(got) == state


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rows_for_matches_a_dict_lookup(data):
    draw = data.draw
    near_top = st.integers(2**64 - 2**16, 2**64 - 1)
    ids = draw(st.lists(near_top | st.integers(0, 2**64 - 1), min_size=1, max_size=30))
    arrays = (np.zeros((len(ids), 1)), np.arange(len(ids)) % 2, np.asarray(ids, dtype=np.uint64), 2)
    if len(set(ids)) != len(ids):
        with pytest.raises(ValueError, match="^sample ids must be unique$"):
            LabeledPool(*arrays)
        return
    pool, row_of = LabeledPool(*arrays), {sid: row for row, sid in enumerate(ids)}
    query = draw(st.lists(st.sampled_from(ids) | near_top, max_size=20))
    unknown = [sid for sid in query if sid not in row_of]
    if unknown:
        with pytest.raises(KeyError, match="^'unknown sample id %d'$" % unknown[0]):
            pool.rows_for(_id_input(draw, query))
    else:
        rows = pool.rows_for(_id_input(draw, query))
        assert rows.dtype == np.int64 and rows.tolist() == [row_of[sid] for sid in query]
    for outside in (-1, 2**64):
        with pytest.raises(ValueError, match=r"^sample id %d outside \[0, 2\*\*64\)$" % outside):
            pool.rows_for([ids[0], outside])


# -- binary files ----------------------------------------------------------------


@st.composite
def checkpoints(draw):
    """Checkpoints of either architecture holding any float32 weights, with run
    seeds and epochs at both ends of their header fields."""
    arch = draw(st.sampled_from(ARCHITECTURES))
    d, k, hidden = draw(st.integers(1, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 4))
    shapes = [t.shape for t in init_params(arch, d, k, hidden, np.random.default_rng(0)).tensors]
    weights = st.floats(width=32, allow_nan=False)
    tensors = [
        np.asarray(draw(st.lists(weights, min_size=math.prod(s), max_size=math.prod(s)))).reshape(s)
        for s in shapes
    ]
    params = ModelParams(arch, d, k, hidden if arch == "mlp" else 0, tuple(tensors))
    run_seed = draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    return Checkpoint(params, run_seed, draw(st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(checkpoints())
def test_checkpoint_files_round_trip_exactly(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "c.alck")
        write_checkpoint(path, ckpt)
        back = read_checkpoint(path)
    header = lambda c: (c.params.arch, c.params.n_features, c.params.n_classes, c.params.hidden, c.run_seed, c.epoch)
    assert header(back) == header(ckpt)
    assert len(back.params.tensors) == len(ckpt.params.tensors)
    for got, want in zip(back.params.tensors, ckpt.params.tensors):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _small_tensor(seed: int) -> PredictionTensor:
    """A prediction tensor of at most 3 samples, members and classes."""
    rng = np.random.default_rng(seed)
    n, e, k = rng.integers(0, 4), rng.integers(1, 4), rng.integers(1, 4)
    return PredictionTensor(rng.dirichlet(np.ones(k), (n, e)).astype(np.float32), rng.permutation(n))


@settings(max_examples=25, deadline=None)
@given(checkpoints(), st.integers(0, 2**32 - 1))
def test_checkpoint_cut_at_any_byte_is_refused(ckpt, seed):
    with tempfile.TemporaryDirectory() as tmp:
        alck, alpt = Path(tmp, "c.alck"), Path(tmp, "p.alpt")
        write_checkpoint(alck, ckpt)
        write_prediction_tensor(alpt, _small_tensor(seed))
        cut_alpt = "^truncated (prediction tensor (file|data)|sample id block)$"
        files = [
            (alck, read_checkpoint, "^truncated checkpoint (file|tensors)$"),
            (alpt, read_prediction_tensor, cut_alpt),
            (alpt, TensorFile, cut_alpt),
        ]
        for path, read, message in files:
            raw = path.read_bytes()
            for cut in range(len(raw)):
                path.write_bytes(raw[:cut])
                with pytest.raises(ValueError, match=message):
                    read(path)
            path.write_bytes(raw)


@settings(max_examples=100, deadline=None)
@given(checkpoints(), st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=40))
def test_bytes_after_either_binary_file_are_refused(ckpt, seed, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        alck, alpt = Path(tmp, "c.alck"), Path(tmp, "p.alpt")
        write_checkpoint(alck, ckpt)
        write_prediction_tensor(alpt, _small_tensor(seed))
        files = [
            (alck, read_checkpoint, "checkpoint"),
            (alpt, read_prediction_tensor, "prediction tensor"),
            (alpt, TensorFile, "prediction tensor"),
        ]
        for path, read, name in files:
            read(path)
            raw = path.read_bytes()
            path.write_bytes(raw + suffix)
            with pytest.raises(ValueError, match="^trailing bytes after the %s file's" % name):
                read(path)
            path.write_bytes(raw)


def test_binary_files_keep_their_pinned_bytes():
    # digests of files written before the binary frame moved to one helper
    logistic = Checkpoint(init_params("logistic", 3, 2, 0, np.random.default_rng(0)), 2**64 - 1, 7)
    mlp = Checkpoint(init_params("mlp", 4, 3, 5, np.random.default_rng(1)), 12, 2**32 - 1)
    probs = np.random.default_rng(2).dirichlet(np.ones(4), (5, 3)).astype(np.float32)
    tensor = PredictionTensor(probs, [2**64 - 1, 0, 7, 3, 9])
    files = [
        ("l.alck", write_checkpoint, logistic, "711c39a48adbf3709b133aa140c2b6654e7387ab1ea4ee0aa5c533d2fcff82b1"),
        ("m.alck", write_checkpoint, mlp, "37adb55a519e8e46479b562986cd06845e33f7b3709f8c8f8136aa16d281f763"),
        ("p.alpt", write_prediction_tensor, tensor, "21b252ee64dc8dc999010ef1062659de14002a4184c4a35d601a8a0f3e6af351"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for name, write, value, digest in files:
            write(Path(tmp, name), value)
            assert hashlib.sha256(Path(tmp, name).read_bytes()).hexdigest() == digest, name


def test_binary_files_refuse_another_version_and_an_unknown_architecture():
    ckpt = Checkpoint(init_params("logistic", 3, 2, 0, np.random.default_rng(0)), 1, 1)
    tensor = PredictionTensor(np.full((2, 1, 2), 0.5, dtype=np.float32), [4, 7])
    with tempfile.TemporaryDirectory() as tmp:
        alck, alpt = Path(tmp, "c.alck"), Path(tmp, "p.alpt")
        write_checkpoint(alck, ckpt)
        write_prediction_tensor(alpt, tensor)
        raw = alck.read_bytes()
        alck.write_bytes(raw[:6] + b"cnn".ljust(8, b"\0") + raw[14:])
        with pytest.raises(ValueError, match="^unknown architecture tag 'cnn'$"):
            read_checkpoint(alck)
        files = [(alck, read_checkpoint, "checkpoint"), (alpt, read_prediction_tensor, "prediction tensor")]
        for path, read, name in files:
            raw = path.read_bytes()
            path.write_bytes(raw[:4] + (2).to_bytes(2, "little") + raw[6:])
            with pytest.raises(ValueError, match="^unsupported %s version 2$" % name):
                read(path)
