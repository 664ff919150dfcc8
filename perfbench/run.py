"""Benchmark of sampspectra: cold single-threaded runs, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory. Each workload is a closed loop with one caller: the next
repetition starts when the previous one has ended, and every repetition is
a fresh process (worker.py), so each sample is what one CLI or library user
pays from cold. Repetitions run until the next one, if as slow as the
slowest so far, would end after S seconds. Every output is checked
(checks.py); a repetition fails on a non-zero exit or a failed check.

--trace 0 prints the end-to-end metrics, each the median over the run's
repetitions: setup_s (process start until ready to work), solve_s (the work
after set-up) and peak_rss_mb. --trace 1 alternates traced and untraced
repetitions and prints the per-layer metrics of the traced ones (see
tracer.py), medians again, with trace.overhead_s, the traced minus the
untraced median solve_s. The last line of stdout is one JSON object; the
per-repetition records, with the spans of the first traced repetition, go
to perfbench/results/.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

import checks
import tracer
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RESULTS = os.path.join(HERE, "results")
REPETITION_TIMEOUT_S = 150

SNR_GRID = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
MSE_GAP_LIMITS = {0.4: 0.02, 0.8: 0.035}
WORKLOADS = ("moments-p9", "mse-d3m4", "reconstruct-d2m10")

PER_LAYER_UNITS = {
    "import.numpy_s": "s", "import.scipy_s": "s", "import.sampspectra_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "combinatorics.paths": "count", "combinatorics.enumerate_s": "s",
    "combinatorics.reduce_calls": "count", "combinatorics.reduce_s": "s",
    "volumes.volume_of_calls": "count", "volumes.cache_hits": "count",
    "volumes.volume_exact_calls": "count", "volumes.volume_exact_s": "s",
    "volumes.zeta_count_calls": "count", "volumes.zeta_count_s": "s",
    "moments.expansion_s": "s", "moments.aggregate_self_s": "s",
    "moments.terms": "count", "moments.eval_s": "s",
    "field_sim.trials": "count", "field_sim.instance_s": "s", "field_sim.build_G_s": "s",
    "field_sim.gram_s": "s", "field_sim.eigh_s": "s", "field_sim.checks_s": "s",
    "field_sim.lmmse_s": "s", "field_sim.G_bytes": "bytes_computed",
    "field_sim.T_bytes": "bytes_computed", "field_sim.draws": "count",
    "field_sim.realization_s": "s", "field_sim.reconstruct_s": "s",
    "field_sim.linear_solve_s": "s",
    "marchenko_pastur.lmmse_calls": "count", "marchenko_pastur.lmmse_s": "s",
    "trace.overhead_s": "s",
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def repetition(workload, seed, traced):
    """Run one repetition; return (record, error)."""
    cmd = [sys.executable] + (["-X", "importtime"] if traced else [])
    cmd += [os.path.join(HERE, "worker.py"), workload, str(seed), "1" if traced else "0"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spawn = _now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {REPETITION_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {err.strip()[-2000:]}"
    body, _, last = out.rstrip("\n").rpartition("\n")
    record = json.loads(last)
    if record["rc"] != 0:
        return None, f"program exited {record['rc']}: {err.strip()[-2000:]}"
    record.update(traced=traced, setup_s=record["ready"] - spawn,
                  solve_s=record["done"] - record["ready"], output=body)
    if traced:
        record["layers"] = tracer.layer_metrics(record["spans"], record["sizes"],
                                                len(body.encode()))
        record["layers"].update(tracer.import_times(err, worker.READY_MARKER))
    return record, None


def check(workload, seed, record, first):
    """Problems with one repetition's output; ``first`` is the run's first good record."""
    try:
        return _check(workload, seed, record, first)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check(workload, seed, record, first):
    if workload == "moments-p9":
        return checks.check_moments(record["output"], 9, [1, 2, 3], [0.1, 0.4, 0.8])
    if workload == "mse-d3m4":
        problems = checks.check_mse(record["output"], 3, 4, [0.4, 0.8], SNR_GRID,
                                    worker.MSE_TRIALS, seed, MSE_GAP_LIMITS)
        if first is not None and record["output"] != first["output"]:
            problems.append("output differs from the run's first repetition with the same seed")
        return problems
    return checks.check_reconstruct(record["mse"], record["mu"], record["alpha"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sampspectra", "__init__.py")):
        print(f"error: no src/sampspectra under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = _now()
    records, errors, durations = [], [], []
    attempted = failed = 0
    correct = True
    while True:
        # traced and untraced repetitions alternate in a traced run
        is_traced = bool(args.trace) and attempted % 2 == 0
        began = _now()
        record, error = repetition(args.workload, args.seed, is_traced)
        durations.append(_now() - began)
        attempted += 1
        if record is not None:
            problems = check(args.workload, args.seed, record, records[0] if records else None)
            if problems:
                correct = False
                error = "; ".join(problems)
        if error is not None:
            failed += 1
            errors.append(error)
            print(f"repetition {attempted} failed: {error}", file=sys.stderr)
        else:
            if is_traced and any(r["traced"] for r in records):
                del record["spans"]  # keep the spans of the first traced repetition only
            records.append(record)
        # stop when the slowest repetition so far would end after --seconds
        need_both = args.trace and attempted < 2
        if not need_both and _now() - start + max(durations) > args.seconds:
            break

    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not untraced or (args.trace and not traced):
        print(f"error: no successful repetition of {args.workload}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            name: {"value": median([r["layers"][name] for r in traced]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_s"
        }
        overhead = (median([r["solve_s"] for r in traced])
                    - median([r["solve_s"] for r in untraced]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median([r["setup_s"] for r in untraced]), "unit": "s"},
            "solve_s": {"value": median([r["solve_s"] for r in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": median([r["maxrss_kb"] for r in untraced]) / 1024,
                            "unit": "MB"},
        }

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        kept = [{k: v for k, v in r.items() if k not in ("output", "mu")} for r in records]
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "attempted": attempted, "failed": failed, "errors": errors,
                   "repetitions": kept, "metrics": metrics}, fh)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced repetitions "
          f"in {_now() - start:.1f} s; records in {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
