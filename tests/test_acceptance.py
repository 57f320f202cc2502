"""Acceptance checks for the subset search package.

Each test prints one pass/fail line (visible under ``pytest -s``) and
asserts the same condition, so the suite doubles as a human-readable
acceptance report.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from alsift.acquisition import PredictionTensor, score_pool
from alsift.analysis import DuplicationHistogram, consensus_counts, evaluate
from alsift.cli import main as cli_main
from alsift.datagen import GeneratorSpec, generate_pool
from alsift.experiment import config_from_mapping, config_hash, parse_config_text, run_experiment
from alsift.learner import (
    EnsembleConfig,
    LabeledPool,
    TrainConfig,
    build_ensemble,
    init_params,
    loss_and_gradients,
    predict_pool,
)
from alsift.schemes import (
    SearchConfig,
    growth_schedule,
    outlier_window_select,
    run_scheme,
    train_subset_ensemble,
)
from alsift.state import SubsetState, derive_seed
from alsift.acquisition import AcquisitionScores

TASK_SEED = 424242


def _report(tag: str, ok: bool, detail: str) -> bool:
    print("acceptance %s: %s (%s)" % (tag, "PASS" if ok else "FAIL", detail))
    return ok


# independent reference arithmetic, kept loop-based on purpose

def ref_entropy(mean_probs):
    total = 0.0
    for p in mean_probs:
        if p > 0.0:
            total -= p * math.log(p)
    return total


def ref_mutual_information(member_probs):
    e = len(member_probs)
    mean = [sum(m[k] for m in member_probs) / e for k in range(len(member_probs[0]))]
    avg_member = sum(ref_entropy(m) for m in member_probs) / e
    return ref_entropy(mean) - avg_member


def ref_vote(probs):
    best, arg = -1.0, 0
    for k, p in enumerate(probs):
        if p > best:
            best, arg = p, k
    return arg


def ref_variation_ratios(member_probs):
    votes = [ref_vote(m) for m in member_probs]
    counts = {}
    for v in votes:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    mode = min(v for v, c in counts.items() if c == top)
    return 1.0 - counts[mode] / len(votes)


def ref_error_count(member_probs, label):
    votes = [ref_vote(m) for m in member_probs]
    agree = sum(1 for v in votes if v == label)
    return 1.0 - agree / len(votes)


def random_tensor(rng, n, e, k):
    raw = rng.random((n, e, k)) + 1e-3
    probs = raw / raw.sum(axis=2, keepdims=True)
    return PredictionTensor(probs.astype(np.float32), np.arange(n, dtype=np.uint64))


class TestScoringArithmetic:
    def test_scores_match_reference_arithmetic(self):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 51))
            e = int(rng.integers(1, 11))
            k = int(rng.integers(2, 6))
            tensor = random_tensor(rng, n, e, k)
            labels = rng.integers(0, k, size=n)
            probs = tensor.data.astype(np.float64)
            got = {
                "entropy": score_pool(tensor, "entropy").scores,
                "mutual_information": score_pool(tensor, "mutual_information").scores,
                "variation_ratios": score_pool(tensor, "variation_ratios").scores,
                "error_count": score_pool(tensor, "error_count", labels=labels).scores,
            }
            for i in range(n):
                members = [list(probs[i, m]) for m in range(e)]
                mean = [sum(m[c] for m in members) / e for c in range(k)]
                ref = {
                    "entropy": ref_entropy(mean),
                    "mutual_information": max(ref_mutual_information(members), 0.0),
                    "variation_ratios": ref_variation_ratios(members),
                    "error_count": ref_error_count(members, int(labels[i])),
                }
                for name, value in ref.items():
                    worst = max(worst, abs(got[name][i] - value))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and elapsed < 5.0
        assert _report(
            "01 score functions match reference arithmetic", ok,
            "max |diff|=%.2e over 200 ensembles, %.1fs" % (worst, elapsed),
        )

    def test_score_bounds_hold_on_random_ensembles(self):
        start = time.perf_counter()
        rng = np.random.default_rng(23)
        total = 10000
        checked = 0
        ok = True
        sizes = [(int(rng.integers(2, 11)), int(rng.integers(2, 6))) for _ in range(total)]
        buckets: dict[tuple[int, int], int] = {}
        for e, k in sizes:
            buckets[(e, k)] = buckets.get((e, k), 0) + 1
        for (e, k), count in sorted(buckets.items()):
            rows = rng.integers(1, 31, size=count)
            tensor = random_tensor(rng, int(rows.sum()), e, k)
            labels = rng.integers(0, k, size=tensor.n_samples)
            h = score_pool(tensor, "entropy").scores
            j = score_pool(tensor, "mutual_information").scores
            v = score_pool(tensor, "variation_ratios").scores
            err = score_pool(tensor, "error_count", labels=labels).scores
            # stored rows sum to 1 only up to float32 quantization, which can
            # push H of a near-uniform row past ln K by about k*eps32
            slack = k * float(np.finfo(np.float32).eps)
            allowed = {1.0 - m / e for m in range(e + 1)}
            ok = ok and bool(np.all(j >= 0.0) and np.all(j <= h + 1e-9))
            ok = ok and bool(np.all(h <= math.log(k) + slack))
            ok = ok and all(x in allowed for x in v) and all(x in allowed for x in err)
            checked += count
        elapsed = time.perf_counter() - start
        ok = ok and checked == total and elapsed < 5.0
        assert _report(
            "02 score bounds hold", ok,
            "0<=J<=H<=ln K and V,E in {m/E} on %d ensembles, %.1fs" % (checked, elapsed),
        )


class TestTrainerGradients:
    def test_analytic_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(37)
        worst = 0.0
        for case in range(50):
            arch = "logistic" if case % 2 == 0 else "mlp"
            d = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            n = int(rng.integers(3, 13))
            hidden = int(rng.integers(3, 8))
            params = init_params(
                arch, d, k, hidden, np.random.default_rng(int(rng.integers(1 << 30)))
            )
            features = rng.normal(size=(n, d))
            labels = rng.integers(0, k, size=n)
            wd = float(rng.choice([0.0, 1e-2]))
            weights = None
            if rng.random() < 0.5:
                weights = rng.uniform(0.5, 2.0, size=k)
            _, grads = loss_and_gradients(
                params, features, labels, class_weights=weights, weight_decay=wd
            )
            step = 1e-6
            for idx, grad in enumerate(grads):
                tensor = params.tensors[idx]
                flat = tensor.ravel()
                fd = np.empty_like(flat)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up, _ = loss_and_gradients(
                        params, features, labels, class_weights=weights, weight_decay=wd
                    )
                    flat[i] = orig - step
                    down, _ = loss_and_gradients(
                        params, features, labels, class_weights=weights, weight_decay=wd
                    )
                    flat[i] = orig
                    fd[i] = (up - down) / (2.0 * step)
                fd = fd.reshape(tensor.shape)
                scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-8)
                worst = max(worst, float(np.abs(grad - fd).max() / scale))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-4 and elapsed < 10.0
        assert _report(
            "03 analytic gradients match finite differences", ok,
            "max relative error %.2e over 50 instances, %.1fs" % (worst, elapsed),
        )


class TestGrowthSchedule:
    def test_schedule_quarters_are_exact(self):
        ok = True
        for target in (8, 25, 400, 25000):
            expected = [target // 8, target // 4, target // 2, target]
            ok = ok and growth_schedule(target) == expected
        assert _report(
            "04 growth schedule exact", ok,
            "targets 8, 25, 400, 25000 halve down to an eighth",
        )


SPEC = GeneratorSpec(
    n_classes=4,
    clusters_per_class=1,
    samples_per_cluster=500,
    n_features=24,
    redundancy=0.4,
    label_noise=0.05,
    cluster_std=1.0,
    center_spread=0.46,
    seed=TASK_SEED,
)
TRAINER = TrainConfig(max_epochs=12, learning_rate=0.1, batch_size=64, patience=0)
ENSEMBLE_30 = EnsembleConfig(mode="combined", runs=3, checkpoints_per_run=10)
ENSEMBLE_3 = EnsembleConfig(mode="combined", runs=3, checkpoints_per_run=1)
MLP_TRAINER = TrainConfig(
    arch="mlp", hidden=32, max_epochs=40, learning_rate=0.1,
    batch_size=64, weight_decay=1e-3, patience=0,
)
MLP_ENSEMBLE = EnsembleConfig(mode="seeds", runs=7)
TRIALS = (1, 2, 3, 4, 5)


def _subset_accuracy(pool, eval_pool, state, ensemble, trainer, seed):
    store, members = train_subset_ensemble(pool, state, ensemble, trainer, seed)
    return evaluate(members, eval_pool).accuracy, store


@pytest.fixture(scope="module")
def scaled_runs():
    """Five seeded trials of build-up search plus baselines on one task.

    The task (cluster geometry) is fixed; every trial redraws the pool and
    an independent clean evaluation pool from it. Arms per trial: build-up
    with the 30-member ensemble, build-up with a 3-member ensemble, a
    random subset of equal size, the full pool, and MLP models trained on
    the first and third of those subsets.
    """
    start = time.perf_counter()
    out = {k: [] for k in ("al30", "al3", "rand", "full", "mlp_al", "mlp_rand")}
    keep = {}
    for trial in TRIALS:
        pool = generate_pool(replace(SPEC, sample_seed=derive_seed(TASK_SEED, 1, trial)))
        eval_pool = generate_pool(replace(
            SPEC, redundancy=0.0, label_noise=0.0,
            sample_seed=derive_seed(TASK_SEED, 2, trial),
        ))
        search = SearchConfig(
            scheme="build_up", function_id="variation_ratios", target_size=1000,
            ensemble=ENSEMBLE_30, trainer=TRAINER, seed=derive_seed(trial, 100),
        )
        result30 = run_scheme(pool, search)
        state30 = result30.state
        state3 = run_scheme(pool, replace(search, ensemble=ENSEMBLE_3)).state
        rng = np.random.default_rng(derive_seed(trial, 103))
        rand_state = SubsetState.from_ids(
            rng.choice(np.sort(pool.sample_ids), size=1000, replace=False)
        )
        full_state = SubsetState.from_ids(pool.sample_ids)

        acc, store = _subset_accuracy(
            pool, eval_pool, state30, ENSEMBLE_30, TRAINER, derive_seed(trial, 201))
        out["al30"].append(acc)
        out["al3"].append(_subset_accuracy(
            pool, eval_pool, state3, ENSEMBLE_30, TRAINER, derive_seed(trial, 202))[0])
        out["rand"].append(_subset_accuracy(
            pool, eval_pool, rand_state, ENSEMBLE_30, TRAINER, derive_seed(trial, 203))[0])
        out["full"].append(_subset_accuracy(
            pool, eval_pool, full_state, ENSEMBLE_30, TRAINER, derive_seed(trial, 204))[0])
        out["mlp_al"].append(_subset_accuracy(
            pool, eval_pool, state30, MLP_ENSEMBLE, MLP_TRAINER, derive_seed(trial, 205))[0])
        out["mlp_rand"].append(_subset_accuracy(
            pool, eval_pool, rand_state, MLP_ENSEMBLE, MLP_TRAINER, derive_seed(trial, 206))[0])
        if trial == TRIALS[-1]:
            keep = {"store": store, "pool": pool, "eval_pool": eval_pool,
                    "build_up": result30}
    out["wall"] = time.perf_counter() - start
    out.update(keep)
    return out


class TestScaledSubsetSearch:
    def test_search_beats_random_and_tracks_full_pool(self, scaled_runs):
        al = np.array(scaled_runs["al30"])
        rand = np.array(scaled_runs["rand"])
        full = np.array(scaled_runs["full"])
        wins = int((al >= rand).sum())
        gap = float(al.mean() - rand.mean())
        full_slack = float(al.mean() - (full.mean() - 0.01))
        ok = (
            gap > 0.0
            and wins >= 4
            and full_slack >= 0.0
            and scaled_runs["wall"] < 180.0
        )
        assert _report(
            "05 selected subsets beat random and track the full pool", ok,
            "mean gap %+.4f, wins %d/%d, slack vs full-1pp %+.4f, %.0fs"
            % (gap, wins, len(TRIALS), full_slack, scaled_runs["wall"]),
        )

    def test_larger_ensembles_select_no_worse_subsets(self, scaled_runs):
        margin = float(np.mean(scaled_runs["al30"]) - np.mean(scaled_runs["al3"]))
        ok = margin >= 0.0
        assert _report(
            "06 thirty members select at least as well as three", ok,
            "mean margin %+.4f" % margin,
        )

    def test_selected_subsets_transfer_to_wider_model(self, scaled_runs):
        margin = float(np.mean(scaled_runs["mlp_al"]) - np.mean(scaled_runs["mlp_rand"]))
        ok = margin > 0.0
        assert _report(
            "11 subsets transfer to an mlp and still beat random", ok,
            "mean margin %+.4f" % margin,
        )

    def test_consensus_counts_decrease_monotonically(self, scaled_runs):
        start = time.perf_counter()
        members = build_ensemble(scaled_runs["store"], ENSEMBLE_30)
        eval_pool = scaled_runs["eval_pool"]
        tensor = predict_pool(members, eval_pool)
        report = consensus_counts(tensor, n_max=len(members))
        diffs = np.diff(report.cumulative)
        elapsed = time.perf_counter() - start
        ok = (
            report.cumulative[0] == eval_pool.n_samples
            and bool(np.all(diffs <= 0))
            and elapsed < 10.0
        )
        assert _report(
            "07 consensus counts never increase with ensemble size", ok,
            "count(1)=%d of %d, final %d, %.1fs"
            % (report.cumulative[0], eval_pool.n_samples, report.cumulative[-1], elapsed),
        )


class TestDuplicationAccounting:
    def test_multiset_sizes_balance_each_iteration(self):
        pool = generate_pool(GeneratorSpec(
            n_classes=3, clusters_per_class=1, samples_per_cluster=40,
            n_features=5, center_spread=1.0, seed=9,
        ))
        config = SearchConfig(
            scheme="automatic_duplication", function_id="entropy", target_size=60,
            ensemble=EnsembleConfig(mode="combined", runs=2, checkpoints_per_run=2),
            trainer=TrainConfig(max_epochs=4, batch_size=16),
            acquisition_batch=16, seed=5,
        )
        result = run_scheme(pool, config)
        ok = True
        for record in result.records:
            weighted = sum(m * c for m, c in record.histogram)
            unique = sum(c for _, c in record.histogram)
            ok = ok and weighted == record.total_count and unique == record.unique_count
        ok = ok and result.records[-1].total_count == 60
        static = DuplicationHistogram({1: 223_000, 2: 119_000, 3: 13_000})
        ok = ok and static.total_count == 500_000 and static.unique_count == 355_000
        assert _report(
            "08 duplication multiset accounting balances", ok,
            "sum m*count(m) equals total each iteration; 223k+119k*2+13k*3=500k",
        )


class TestOutlierWindow:
    def test_window_skips_the_top_eighth(self):
        rng = np.random.default_rng(41)
        n = 96
        values = rng.permutation(n).astype(np.float64)
        ids = np.arange(n, dtype=np.uint64)
        scores = AcquisitionScores("entropy", values, ids)
        chosen = outlier_window_select(scores, k=n // 2, fraction=0.125)
        order = np.argsort(-values, kind="stable")
        expected = sorted(int(ids[i]) for i in order[12:60])
        ok = sorted(chosen) == expected
        assert _report(
            "09 outlier window selects the exact rank band", ok,
            "skip 12 of 96, keep descending ranks 13..60",
        )


class TestSearchDeterminism:
    def test_repeated_runs_differ_only_in_timestamps(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "pool.classes = 3\npool.clusters_per_class = 1\n"
            "pool.samples_per_cluster = 30\npool.features = 4\n"
            "pool.redundancy = 0.2\npool.label_noise = 0.05\n"
            "pool.center_spread = 1.5\npool.seed = 7\n"
            "search.scheme = build_up\nsearch.function = variation_ratios\n"
            "search.target_size = 32\n"
            "ensemble.mode = combined\nensemble.runs = 2\n"
            "ensemble.checkpoints_per_run = 3\n"
            "trainer.max_epochs = 6\ntrainer.batch_size = 16\n"
            "experiment.seeds = 1,2\n"
        )

        def run(out):
            assert cli_main(["search", "--config", str(config), "--out", str(out)]) == 0
            path = next((tmp_path / out).glob("results_*.txt"))
            return [
                line
                for line in path.read_text().splitlines()
                if not line.startswith(("created =", "wall_time_s ="))
            ]

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        ok = first == second and len(first) > 20
        assert _report(
            "10 repeated search runs are identical up to timestamps", ok,
            "%d stable document lines" % len(first),
        )


# The README config in a memorising regime: an mlp with no weight decay and a
# fifth of the labels flipped. A model that can memorise noisy labels gains
# from leaving them out, so here the searched subset beats the full pool.
CLAIM_CONFIG = """\
pool.classes = 4
pool.clusters_per_class = 1
pool.samples_per_cluster = 500
pool.features = 24
pool.redundancy = 0.4
pool.label_noise = 0.2
pool.center_spread = 0.46
pool.seed = 3
search.scheme = build_up
search.function = variation_ratios
search.target_size = 1000
ensemble.mode = combined
ensemble.runs = 3
ensemble.checkpoints_per_run = 10
trainer.arch = mlp
trainer.hidden = 64
trainer.max_epochs = 40
trainer.weight_decay = 0
trainer.batch_size = 64
experiment.seeds = 1,2,3,4,5
experiment.baseline_full = true
"""


class TestHeadlineClaim:
    def test_searched_subset_beats_the_full_pool_on_noisy_labels(self):
        start = time.perf_counter()
        config = config_from_mapping(parse_config_text(CLAIM_CONFIG))
        assert config_hash(config) == "6f3786f3803ebd8b"
        trials = run_experiment(config).trials
        al = np.array([t.al_accuracy for t in trials])
        full = np.array([t.full_accuracy for t in trials])
        rand = np.array([t.random_accuracy for t in trials])
        margin = float(np.mean(al - full))
        ok = len(trials) == 5 and bool(np.all(al > full) and np.all(al > rand)) and margin >= 0.02
        assert _report(
            "12 a searched subset beats the full pool on noisy labels", ok,
            "al - full %+.4f..%+.4f (mean %+.4f), al - random >= %+.4f, %.1fs"
            % ((al - full).min(), (al - full).max(), margin, (al - rand).min(),
               time.perf_counter() - start),
        )
