"""Property tests: score bounds and agreement, selection invariants, config key table
round trip, the trainer's held-out ids and training expansion, and the row-blocked
pool pass (prediction, validation, scores and votes) against whole-pool references."""

from __future__ import annotations

import math
import re
import tracemalloc
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
    detection_heatmaps,
    error_count,
    mutual_information,
    score_pool,
    variation_ratios,
)
from alsift.analysis import evaluate_tensor
from alsift.cli import main
from alsift.datagen import write_pool_csv
from alsift.experiment import (
    CONFIG_KEYS,
    canonical_config_lines,
    config_from_mapping,
    config_hash,
    parse_config_text,
)
from alsift.learner import (
    ARCHITECTURES,
    ENSEMBLE_MODES,
    Checkpoint,
    CheckpointStore,
    LabeledPool,
    init_params,
    predict_pool,
    predict_proba,
    _held_out,
    _mix64,
)
from alsift.schemes import SCHEMES, outlier_window_select, select_top_k
from alsift.state import SubsetState

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
        assert mutual_information(members[i]) == mi[i]
        assert variation_ratios(members[i]) == vr[i]
        assert error_count(members[i], labels[i]) == ec[i]
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
# (pool.file, pool.classes with pool.class_ratios, the required search keys).
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
    "search.initial_size": _ints(1, 500),
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
    "trainer.decay_epochs": _int_lists(1, 100),
    "trainer.max_epochs": _ints(0, 100),
    "trainer.patience": _ints(0, 10),
    "trainer.fine_tune_rate": _floats(0.0, 1.0),
    "trainer.fine_tune_epochs": _ints(0, 100),
    "trainer.class_weighting": _BOOLS,
    "trainer.checkpoint_window": _ints(1, 40),
    "trainer.val_fraction": _floats(0.0, 1.0, exclude_max=True),
    "experiment.seeds": _int_lists(0, 1000, min_size=1, unique=True),
    "experiment.baseline_random": _BOOLS,
    "experiment.baseline_full": _BOOLS,
    "experiment.out": st.sampled_from(["runs", "out/x"]),
    "experiment.jobs": _ints(1, 8),
}
JOINT_KEYS = {
    "pool.file", "pool.classes", "pool.class_ratios",
    "search.scheme", "search.function", "search.target_size", "search.acquisition_batch",
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
    data["search.scheme"] = draw(st.sampled_from(SCHEMES))
    data["search.function"] = draw(st.sampled_from(FUNCTION_IDS))
    data["search.target_size"] = draw(_ints(1, 5000))
    if data["search.scheme"] == "automatic_duplication" or draw(st.booleans()):
        data["search.acquisition_batch"] = draw(_ints(1, 500))
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


# -- the row-blocked pool pass -------------------------------------------------

C = BLOCK_ROWS


def _pool(n, d=6, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledPool(rng.normal(0.0, 2.0, (n, d)), rng.integers(0, k, n), np.arange(n) * 3 + 5, k)


def _members(arch, d=6, k=4, e=5):
    return [init_params(arch, d, k, 7, np.random.default_rng(100 + i)) for i in range(e)]


def _stacked_reference(members, pool, ids):
    features = pool.features[pool.rows_for(ids)]
    return np.stack([predict_proba(m, features) for m in members], axis=1).astype(np.float32)


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
    tensor = predict_pool(members, pool, ids)
    assert_array_equal(tensor.sample_ids, ids)
    assert_array_max_ulp(tensor.data, _stacked_reference(members, pool, ids), maxulp=1)
    head = predict_pool(members, pool, ids[:C].tolist())
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
