"""Run one alsift benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload readme_search --seed 0 --seconds 30 --trace 0

The run imports alsift from the checkout's ``src/``, times the import in
fresh interpreters, prepares the workload's inputs from ``--seed`` (three
times; import plus preparation is the set-up time), then runs passes of
the workload one after another (a closed loop), at least two, until the
next pass would end after ``--seconds``. Every pass is checked; its
outputs must match those of the first pass exactly.

Times in the result are CPU seconds of the process (user plus system),
scaled to a reference speed: a fixed calibration kernel that does not
call alsift runs before set-up, between the set-up steps, before the
first pass and after every pass, and a time measured where the kernel
took ``c`` CPU seconds reads ``time * CALIBRATION_NOMINAL_S / c``. A
shared host's speed drifts by up to 2x over minutes; the ratio of a pass
to the kernel beside it does not, as long as the kernel does the same
kind of work as the pass, so each workload names its pass kernel in
``CALIBRATION``. Raw CPU, wall-clock and kernel times are in the info
line.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and the last line
holds the per-layer metrics of the traced passes. The line before it
describes the run: environment, pass times, the behaviour fingerprint,
per-layer counts and any failures. Scratch files live under
``.perfbench_work/`` and are removed at exit; span files go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread: on a host with few cores a second thread makes pass
# times follow the scheduler and the neighbours, not the program. Set
# before numpy loads; the import probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
# set-up time is the median import CPU time of IMPORT_REPEATS fresh
# interpreters plus the median CPU time of PREPARE_REPEATS input preparations
IMPORT_REPEATS = 5
PREPARE_REPEATS = 3
# CPU seconds the calibration kernel stands for; about what it takes on a
# 2-vCPU x86 VM
CALIBRATION_NOMINAL_S = 0.5
# a run must end within 180 s whatever --seconds asks for
MAX_MEASURE_S = 150.0

END_TO_END = [
    ("norm_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("error_vs_ref", "ratio"),
    ("pick_margin_ratio", "ratio"),
]

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import alsift.cli; print(time.process_time() - t)"
)


def import_alsift() -> None:
    """Put the checkout's ``src/`` first on the path and import alsift from it."""
    if not (SRC / "alsift" / "__init__.py").is_file():
        raise SystemExit("perfbench: no alsift sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import alsift

    if Path(alsift.__file__).resolve().parent != (SRC / "alsift").resolve():
        raise SystemExit("perfbench: alsift imported from %s, not %s" % (alsift.__file__, SRC))


def measure_import() -> float:
    """CPU seconds to import alsift in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def mixed_kernel() -> float:
    """CPU seconds of a fixed mix of the kinds of work alsift does, none of
    it alsift's: small-batch softmax SGD (interpreter-bound, like training),
    two-layer forward passes with entropies (like prediction and scoring)
    and CSV formatting and parsing (like the file verbs). Its arrays stay
    small so that it does not raise the peak RSS."""
    import numpy as np

    start = time.process_time()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4096, 24))
    onehot = np.eye(4)[rng.integers(0, 4, len(x))]
    w = np.zeros((24, 4))
    for _ in range(80):
        order = rng.permutation(len(x))
        for i in range(0, len(x), 64):
            batch = order[i : i + 64]
            z = x[batch] @ w
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            w -= 0.1 / 64 * x[batch].T @ (p - onehot[batch])
    for _ in range(60):
        h = np.maximum(x @ rng.standard_normal((24, 32)), 0.0) @ rng.standard_normal((32, 10))
        p = np.exp(h - h.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        (p * np.log(p + 1e-12)).sum(axis=1)
    for i in range(0, len(x), 512):
        text = "\n".join(",".join("%.9g" % v for v in row) for row in x[i : i + 512].tolist())
        np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    return time.process_time() - start


def array_kernel() -> float:
    """CPU seconds of fixed array-bound work at the scale of the 20k-row
    pool: two-layer forward passes with softmax over 20000 x 32 rows and
    entropies of a 20000 x 10 x 10 float32 tensor, like the prediction and
    scoring that take most of a ``wide_pool_dup`` pass."""
    import numpy as np

    start = time.process_time()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20000, 32))
    for _ in range(16):
        h = np.maximum(x @ rng.standard_normal((32, 32)), 0.0) @ rng.standard_normal((32, 10))
        p = np.exp(h - h.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
    t = rng.random((20000, 10, 10), dtype=np.float32) + np.float32(1e-6)
    for _ in range(12):
        mean = t.mean(axis=1)
        (t * np.log(t)).sum(axis=2).mean(axis=1) - (mean * np.log(mean)).sum(axis=1)
    return time.process_time() - start


# The kernel that tracks a workload's passes. The mixed kernel is mostly
# interpreter work, which a shared host speeds up by about a third when
# its neighbours are idle; a wide_pool_dup pass, mostly array work, then
# speeds up by about a sixth, and its ratio to the mixed kernel spread
# wider than its raw time did.
CALIBRATION = {
    "readme_search": mixed_kernel,
    "wide_pool_dup": array_kernel,
    "files_cli": mixed_kernel,
}


def _openblas():
    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, prefix + "_get_config" + suffix)
                    get_threads = getattr(lib, prefix + "_get_num_threads" + suffix)
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return None, None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "openblas_runtime": config,
        "blas_threads": threads,
    }


def run_pass(workload, out: Path, recorder, pass_id: int):
    """Run one pass; returns (wall seconds, CPU seconds, step labels, failed labels, outputs)."""
    from workloads import CliResult

    out.mkdir(parents=True)
    steps = workload.steps(out)
    failed: list[str] = []
    outputs = {}
    if recorder is not None:
        recorder.begin_pass(pass_id)
    start, cpu_start = time.perf_counter(), time.process_time()
    for label, step in steps:
        if failed:
            # the later steps read what the failed one should have written
            failed.append(label)
            continue
        try:
            result = step()
        except Exception:
            print("perfbench: step %s raised" % label, file=sys.stderr)
            traceback.print_exc()
            failed.append(label)
            continue
        outputs[label] = result
        if isinstance(result, CliResult) and result.rc != 0:
            print("perfbench: %s exited %d: %s" % (label, result.rc, result.err.strip()), file=sys.stderr)
            failed.append(label)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    if recorder is not None:
        recorder.end_pass()
    return wall, cpu, [label for label, _ in steps], failed, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("readme_search", "wide_pool_dup", "files_cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_alsift()
    import spans
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]()
    calibrate = CALIBRATION[args.workload]
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    recorder = spans.Recorder() if args.trace else None
    records = []
    failures: list[str] = []
    try:
        # set-up is imports and input preparation, mixed work on every
        # workload, so it is scaled by the mixed kernel
        setup_calibrations = [mixed_kernel()]
        imports = [measure_import() for _ in range(IMPORT_REPEATS)]
        setup_calibrations.append(mixed_kernel())
        prepares = []
        for _ in range(PREPARE_REPEATS):
            start = time.process_time()
            workload.prepare(args.seed, work)
            prepares.append(time.process_time() - start)
            setup_calibrations.append(mixed_kernel())
        setup_s = (
            (statistics.median(imports) + statistics.median(prepares))
            * CALIBRATION_NOMINAL_S
            / statistics.median(setup_calibrations)
        )
        calibrations = [calibrate()]

        with spans.installed(recorder) if recorder is not None else nullcontext():
            budget = min(args.seconds, MAX_MEASURE_S)
            start = time.perf_counter()
            pass_id = 0
            while True:
                traced = recorder is not None and pass_id % 2 == 1
                out = work / ("pass%d" % pass_id)
                wall, cpu, labels, failed, outputs = run_pass(workload, out, recorder if traced else None, pass_id)
                calibrations.append(calibrate())
                # the kernel runs before and after the pass
                calibration = (calibrations[-2] + calibrations[-1]) / 2
                outcome = None
                if not failed:
                    try:
                        outcome = workload.check(out, outputs)
                    except CheckFailed as exc:
                        failed.append(exc.step)
                        failures.append("pass %d: %s" % (pass_id, exc))
                    except Exception as exc:
                        # outputs that cannot even be read fail every step
                        failed = list(labels)
                        failures.append("pass %d: check raised %r" % (pass_id, exc))
                failures.extend("pass %d: step %s failed" % (pass_id, label) for label in failed)
                records.append((pass_id, traced, wall, labels, failed, outcome, cpu, calibration))
                shutil.rmtree(out, ignore_errors=True)
                pass_id += 1

                # no figure rests on a single pass; a traced run's first two
                # passes are one untraced and one traced
                if len(records) < 2:
                    continue
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(r[2] for r in records) > budget:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = sum(len(r[3]) for r in records)
    failed_ops = sum(len(r[4]) for r in records)
    outcomes = [r[5] for r in records if r[5] is not None]
    fingerprint = outcomes[0].fingerprint if outcomes else None
    if any(o.fingerprint != fingerprint for o in outcomes):
        failures.append("fingerprint differs between passes")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(records),
        "pass_wall_s": [r[2] for r in records],
        "pass_cpu_s": [r[6] for r in records],
        "import_cpu_s": imports,
        "prepare_cpu_s": prepares,
        "setup_calibration_cpu_s": setup_calibrations,
        "calibration_cpu_s": calibrations,
        "env": environment(),
        "fingerprint": fingerprint,
    }
    if recorder is not None:
        per_pass = [spans.pass_metrics(recorder, r[0], r[2]) for r in records if r[1]]
        counts = [spans.exact_counts(recorder, r[0]) for r in records if r[1]]
        if any(c != counts[0] for c in counts):
            failures.append("per-layer counts differ between traced passes")
        info["counts"] = counts[0]
        untraced = [r[2] for r in records if not r[1]]
        summary = spans.summarize(per_pass, untraced)
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit, _ in spans.LAYER_METRICS}
        recorder.write(SPANS / ("spans_%s_seed%d.jsonl" % (args.workload, args.seed)))
    else:
        quality = outcomes[0].quality if outcomes else {"error_vs_ref": 0.0, "pick_margin_ratio": 0.0}
        values = {
            "norm_cpu_s": statistics.median(r[6] * CALIBRATION_NOMINAL_S / r[7] for r in records),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed_ops / attempted,
            **quality,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    info["failures"] = failures
    print(json.dumps(info))
    result = {
        "correct": not failures and failed_ops == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
