"""Command line front end.

Five verbs cover the pipeline end to end: ``gen-data`` writes a synthetic
pool, ``score`` turns predictions into acquisition scores, ``search`` runs
a configured subset search with baselines, ``analyze`` computes consensus,
duplication and accuracy diagnostics, and ``export`` flattens results
documents into plot-ready CSV tables.

Exit codes: 0 on success, 1 for configuration problems (bad flags, bad
config files), 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from .acquisition import (
    FUNCTION_IDS,
    pool_pass,
    read_prediction_tensor,
    read_prediction_tensor_csv,
    score_pool,
)
from .analysis import (
    consensus_counts,
    duplication_histogram,
    evaluate,
    selected_unselected_gap,
)
from .datagen import (
    generate_pool_with_metadata,
    read_pool_csv,
    write_metadata_csv,
    write_pool_csv,
)
from .experiment import (
    ConfigError,
    EXPORT_KINDS,
    append_document,
    build_consensus_document,
    check_results_file,
    config_from_file,
    export_plot_data,
    generator_from_mapping,
    parse_config_file,
    read_results,
    run_experiment,
    write_results,
)
from .learner import (
    ENSEMBLE_MODES,
    CheckpointStore,
    EnsembleConfig,
    PoolBlocks,
    build_ensemble,
)
# predict_pool stays an attribute of this module although no verb calls it:
# perfbench's traced spans wrap it here
from .learner import predict_pool
from .state import atomic_file, read_subset_csv, write_table_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alsift",
        description="search labeled pools for compact training subsets",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic labeled pool")
    p.add_argument("--config", help="config file; its pool.* keys describe the pool")
    p.add_argument("--seed", type=int, help="override pool.seed")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("score", help="acquisition scores for a pool or tensor")
    p.add_argument("--seed", type=int, help="seed for the random function")
    p.add_argument("--function", required=True, choices=FUNCTION_IDS)
    p.add_argument("--pool", help="pool CSV (features and labels)")
    p.add_argument("--checkpoints", help="checkpoint directory to build members from")
    p.add_argument("--tensor", help="prediction tensor file (.alpt or .csv)")
    # None marks a flag not given, which score --tensor refuses
    p.add_argument(
        "--mode", choices=ENSEMBLE_MODES, help="ensemble mode for --checkpoints (default: seeds)"
    )
    p.add_argument("--runs", type=int, help="(default: 1)")
    p.add_argument("--checkpoints-per-run", type=int, help="(default: 1)")
    p.add_argument("--stride", type=int, help="(default: 1)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("search", help="run the configured subset search")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--seed", type=int, help="run this one trial seed instead of experiment.seeds")
    p.add_argument("--jobs", type=int, help="parallel trial processes")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("analyze", help="consensus, duplication and accuracy reports")
    p.add_argument("--what", required=True, choices=("consensus", "histogram", "eval"))
    p.add_argument("--pool", help="pool CSV")
    p.add_argument("--checkpoints", help="checkpoint directory")
    p.add_argument("--run", type=int, help="run seed for consensus (default: lowest)")
    p.add_argument("--n-max", type=int, help="deepest consensus prefix (default: all)")
    p.add_argument("--subset", help="subset CSV (sample_id, multiplicity)")
    p.add_argument("--csv", action="store_true", help="also write plot-ready tables")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("export", help="flatten results documents into CSV")
    p.add_argument("--results", required=True, nargs="+", help="results file(s)")
    p.add_argument("--kind", required=True, choices=EXPORT_KINDS)
    p.set_defaults(func=_cmd_export)

    for verb, p in sub.choices.items():
        # search falls back on the config's experiment.out
        p.add_argument("--out", default=None if verb == "search" else ".", help="output directory")
    return parser


def _seed_flag(args) -> int | None:
    """The ``--seed`` flag; a negative seed is a config problem."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be non-negative, got %d" % args.seed)
    return args.seed


def _cmd_gen_data(args) -> int:
    if args.config:
        spec = generator_from_mapping(parse_config_file(args.config))
    else:
        spec = generator_from_mapping({})
    if _seed_flag(args) is not None:
        spec = replace(spec, seed=args.seed)
    pool, meta = generate_pool_with_metadata(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pool_csv(out / "pool.csv", pool)
    write_metadata_csv(out / "pool_meta.csv", pool, meta)
    print("wrote %d samples to %s" % (pool.n_samples, out / "pool.csv"))
    return 0


def _cmd_score(args) -> int:
    if _seed_flag(args) is None and args.function == "random":
        raise ConfigError("random scoring needs --seed")
    uses = ["score --tensor", "score --tensor --function %s" % args.function] if args.tensor else []
    _refuse_unread(args, "score --function %s" % args.function, *uses)
    pool = read_pool_csv(args.pool) if args.pool else None
    if args.tensor:
        if args.tensor.endswith(".csv"):
            source = read_prediction_tensor_csv(args.tensor)
        else:
            source = read_prediction_tensor(args.tensor)
    elif args.checkpoints and pool is not None:
        # an unset flag means one checkpoint of one run, ensembled by seeds
        unset = {"mode": "seeds", "runs": 1, "checkpoints_per_run": 1, "stride": 1}
        given = {name: getattr(args, name) for name in unset if getattr(args, name) is not None}
        try:
            ensemble = EnsembleConfig(**{**unset, **given})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        members = build_ensemble(CheckpointStore.load(args.checkpoints), ensemble)
        # scored block by block, with no prediction tensor
        source = PoolBlocks(members, pool)
    else:
        raise ConfigError("score needs --tensor, or --pool plus --checkpoints")

    labels = None
    if args.function == "error_count":
        if pool is None:
            raise ConfigError("error_count scoring needs --pool for labels")
        labels = pool.labels[pool.rows_for(source.sample_ids)]
    # a PoolBlocks (no .data) skips score_pool: perfbench counts its rows by args[0].data.size
    if args.tensor:
        scores = score_pool(source, args.function, labels=labels, seed=args.seed)
    else:
        scores = pool_pass(source, args.function, labels, args.seed)[0]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "scores.csv"
    write_table_csv(path, ["sample_id", "score"], [scores.sample_ids], scores.scores[:, None])
    print("wrote %d %s scores to %s" % (len(scores.scores), args.function, path))
    return 0


def _cmd_search(args) -> int:
    if not args.config:
        raise ConfigError("search needs --config")
    config = config_from_file(args.config)
    if _seed_flag(args) is not None:
        config = replace(config, seeds=(args.seed,))
    if args.jobs is not None:
        config = replace(config, jobs=args.jobs)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    check_results_file(config, config.out_dir)
    result = run_experiment(config)
    path = write_results(result, config.out_dir)
    for trial in result.trials:
        extras = ""
        if trial.random_accuracy is not None:
            extras += " random=%.4f" % trial.random_accuracy
        if trial.full_accuracy is not None:
            extras += " full=%.4f" % trial.full_accuracy
        print(
            "seed=%d subset=%d/%d al=%.4f%s"
            % (
                trial.seed,
                trial.subset.unique_count,
                trial.subset.total_count,
                trial.al_accuracy,
                extras,
            )
        )
    for key in sorted(result.aggregate):
        print("%s = %.6g" % (key, result.aggregate[key]))
    print("results appended to %s" % path)
    return 0


# the flags each use of a verb does not read; giving one is a usage error,
# refused before any file is read. Only random reads --seed; with --tensor,
# only error_count reads --pool
_UNREAD = {
    "score --tensor": ("checkpoints", "mode", "runs", "checkpoints_per_run", "stride"),
    **{"score --function %s" % f: ("seed",) for f in FUNCTION_IDS if f != "random"},
    **{"score --tensor --function %s" % f: ("pool",) for f in FUNCTION_IDS if f != "error_count"},
    "analyze --what histogram": ("pool", "checkpoints", "run", "n_max"),
    "analyze --what consensus": ("subset",),
    "analyze --what eval": ("run", "n_max"),
}


def _refuse_unread(args, *uses: str) -> None:
    for use in uses:
        unread = _UNREAD.get(use, ())
        given = ["--" + n.replace("_", "-") for n in unread if getattr(args, n) is not None]
        if given:
            raise ConfigError("%s does not read %s" % (use, ", ".join(given)))


def _cmd_analyze(args) -> int:
    _refuse_unread(args, "analyze --what %s" % args.what)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.what == "histogram":
        if not args.subset:
            raise ConfigError("analyze --what histogram needs --subset")
        hist = duplication_histogram(read_subset_csv(args.subset))
        print("unique=%d total=%d" % (hist.unique_count, hist.total_count))
        for mult, count in hist.rows():
            print("multiplicity %d: %d" % (mult, count))
        if args.csv:
            path = out / "duplication_histogram.csv"
            rows = hist.rows()
            columns = [[mult for mult, _ in rows], [count for _, count in rows]]
            write_table_csv(path, ["multiplicity", "count"], columns)
            print("wrote %s" % path)
        return 0

    if not args.pool or not args.checkpoints:
        raise ConfigError("analyze --what %s needs --pool and --checkpoints" % args.what)
    if args.what == "consensus" and args.n_max is not None and args.n_max < 1:
        raise ConfigError("--n-max must be >= 1")
    pool = read_pool_csv(args.pool)
    store = CheckpointStore.load(args.checkpoints)

    if args.what == "consensus":
        runs = store.run_seeds()
        run = args.run if args.run is not None else runs[0]
        epochs = store.epochs(run)
        # newest first, so a prefix of n members means the n latest snapshots
        members = [store.get(run, ep).params for ep in reversed(epochs)]
        n_max = args.n_max if args.n_max is not None else len(members)
        report = consensus_counts(PoolBlocks(members, pool), n_max)
        for n, count in enumerate(report.cumulative, start=1):
            print("all-%d-agree: %d / %d" % (n, count, report.eval_size))
        doc_path = out / "analysis_consensus.txt"
        append_document(doc_path, build_consensus_document(report, source="run%d" % run))
        print("wrote %s" % doc_path)
        if args.csv:
            # the file keeps every earlier run's document; export only this one
            export_plot_data(read_results(doc_path)[-1:], "consensus", out)
            print("wrote %s" % (out / "consensus.csv"))
        return 0

    # eval: whole pool, or selected/unselected when a subset is given
    members = [
        store.get(run, store.epochs(run)[-1]).params for run in store.run_seeds()
    ]
    if args.subset:
        selected = selected_unselected_gap(members, pool, read_subset_csv(args.subset))
        reports = dict(zip(("selected", "unselected"), selected))
    else:
        reports = {"pool": evaluate(members, pool)}
    width = max(map(len, reports)) + 1
    rows: list[tuple[str, str, float, int]] = []
    for name, rep in reports.items():
        print("%-*s n=%d accuracy=%.4f" % (width, name + ":", rep.n_samples, rep.accuracy))
        rows.append((name, "all", rep.accuracy, rep.n_samples))
        rows.extend(
            (name, str(cls), acc, rep.n_samples) for cls, acc in sorted(rep.per_class.items())
        )
    if args.csv:
        path = out / "eval.csv"
        with atomic_file(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["partition", "class", "accuracy", "n_samples"])
            for partition, cls, acc, n in rows:
                writer.writerow([partition, cls, repr(float(acc)), n])
        print("wrote %s" % path)
    return 0


def _cmd_export(args) -> int:
    documents = []
    for path in args.results:
        documents.extend(read_results(path))
    out_path = export_plot_data(documents, args.kind, args.out)
    print("wrote %s" % out_path)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map those onto the config-error code
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures keep a distinct exit code
        # str() of a KeyError is its message's repr; print the message bare
        if isinstance(exc, KeyError) and len(exc.args) == 1:
            exc = exc.args[0]
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
