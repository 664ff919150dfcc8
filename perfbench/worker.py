"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

The parent (run.py) starts this script with ``src`` of the checkout on
PYTHONPATH. The script imports what the workload needs, prepares its
inputs, marks itself ready, does the timed work and marks itself done; the
marks are CLOCK_MONOTONIC readings, comparable with the parent's. With
TRACE=1 it wraps the program's functions first (see tracer.py) and writes
READY_MARKER to stderr at the ready mark, so that the parent can split the
``-X importtime`` lines of set-up from later ones.

The CLI workloads write the program's output to stdout. The last line of
stdout is always one JSON record with the marks, the peak resident set and
whatever the parent's checks need.
"""

import os
import sys
import time

READY_MARKER = "perfbench: ready"

MOMENTS_ARGV = ["moments", "--p", "9", "--d", "1,2,3", "--beta", "0.1,0.4,0.8",
                "--format", "json"]
# Three trials per beta. The beta=0.8 gap to MP is a finite-d bias of about
# 0.0265 plus trial noise: with one trial it exceeded the check's 0.035 in 1
# of 120 trials; averaging three puts 0.035 four standard deviations away.
MSE_TRIALS = 3
RECONSTRUCT = {"d": 2, "M": 10, "beta": 0.5, "snr_db": 10.0, "draws": 40}


def mse_argv(seed):
    return ["mse", "--d", "3", "--M", "4", "--beta", "0.4,0.8", "--snr-grid", "0:30:5",
            "--threads", "1", "--trials", str(MSE_TRIALS), "--seed", str(seed),
            "--format", "json"]


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _tracer(trace):
    if not trace:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def run_cli(argv, trace):
    import sampspectra.cli as cli

    tracer = _tracer(trace)
    ready = _now()
    if trace:
        print(READY_MARKER, file=sys.stderr, flush=True)
    rc = cli.main(argv)
    sys.stdout.flush()
    done = _now()
    return {"ready": ready, "done": done, "maxrss_kb": _peak_rss_kb(), "rc": rc}, tracer


def run_reconstruct(seed, trace):
    import sampspectra.field_sim as fs

    tracer = _tracer(trace)
    p = RECONSTRUCT
    alpha = 10.0 ** (-p["snr_db"] / 10.0)
    instance = fs.instance_for(p["d"], p["M"], p["beta"], (seed, 0))
    G = fs.build_G(instance)
    ready = _now()
    if trace:
        print(READY_MARKER, file=sys.stderr, flush=True)
    mses = []
    for draw in range(p["draws"]):
        realization = fs.draw_realization(instance, alpha, (seed, 1, draw), G=G)
        mses.append(fs.reconstruct_field(instance, realization, alpha, G=G)[1])
    done = _now()
    return {"ready": ready, "done": done, "maxrss_kb": _peak_rss_kb(), "rc": 0,
            "mse": mses, "alpha": alpha, "mu": gram_eigenvalues(instance.X, p["M"])}, tracer


def gram_eigenvalues(X, M):
    """Eigenvalues of G G* from the benchmark's own G, built from the sample
    points alone: G[l, q] = N^(-1/2) exp(-2 pi j x_q . l), l in [-M..M]^d.
    Row order does not change the spectrum."""
    import itertools

    import numpy as np

    grid = np.array(list(itertools.product(range(-M, M + 1), repeat=X.shape[1])), dtype=float)
    G = np.exp(-2j * np.pi * (grid @ X.T)) / np.sqrt(len(grid))
    return np.linalg.eigvalsh(G @ G.conj().T).tolist()


def main():
    # BLAS and OpenMP threading is pinned before numpy first loads, so every
    # repetition is what one single-threaded user pays.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    if workload == "moments-p9":
        record, tracer = run_cli(MOMENTS_ARGV, trace)
    elif workload == "mse-d3m4":
        record, tracer = run_cli(mse_argv(seed), trace)
    elif workload == "reconstruct-d2m10":
        record, tracer = run_reconstruct(seed, trace)
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    import json

    if tracer is not None:
        record["spans"] = tracer.spans
        record["sizes"] = tracer.sizes
    sys.stdout.write("\n" + json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
