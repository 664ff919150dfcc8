"""Command-line front end for moments, volumes, MP formulas, and simulations.

Subcommands
    moments    exact eigenvalue-moment expansion, evaluated over d and beta
    volume     reduction trace and exact volume of one partition path
    mse        seeded reconstruction-error sweep: MP closed form vs simulation
    spectrum   pooled eigenvalue histogram with the MP density for overlay
    mp         closed-form MP quantities (limit moments, LMMSE error)

Every run is fully determined by the printed configuration: CSV output
starts with a ``#``-prefixed JSON line carrying exactly the parameters that
determine the numbers (thread count and output destination are excluded on
purpose; they never change the data). Repeating a run with a different
``--threads`` value yields byte-identical output.

Exit codes: 0 success, 2 argument error, 3 capacity error, 4 numerical
integrity failure.
"""

import os

# Trial-level parallelism only: library BLAS threading is pinned before
# numpy first loads, which also keeps results machine-independent.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse
import json
import math
import sys

import numpy as np

from .combinatorics import PartitionPath, reduction_trace
from .errors import CapacityError, IntegrityError
from .moments import (
    check_beta,
    check_d,
    moment_eval,
    moment_expansion,
    moment_limit,
    symbolic_expansion,
)
from .volumes import volume_exact, volume_quadrature

# The simulation's layers are imported by the commands that run them, so
# that `moments` and `volume` never compile them. Their names still become
# attributes of this module: a command binds them when it starts, and any
# other access resolves them through __getattr__. A name already bound,
# such as a wrapper set on this module before main runs, is kept.
_LAZY = {
    "field_sim": ("check_budget", "check_trial_budget", "collect_spectra",
                  "empirical_lmmse", "trial_sizes"),
    "marchenko_pastur": ("mp_lmmse", "mp_pdf"),
}


def _load(*modules):
    # __import__, unlike importlib.import_module, shows in -X importtime.
    package = __import__(__package__, fromlist=modules)
    scope = globals()
    for module in modules:
        for name in _LAZY[module]:
            scope.setdefault(name, getattr(getattr(package, module), name))


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Most values an --snr-grid may hold.
MAX_GRID_VALUES = 10_000
# Bytes one histogram bin holds at most: its entries in the histogram's
# float64 arrays, its row of Python floats and its output text. tracemalloc
# measured about 550 for CSV and 990 for JSON.
BIN_BYTES = 1024

# --- serialization helpers ----------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not np.isfinite(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _config_line(config: dict) -> str:
    clean = {k: _jsonable(v) for k, v in config.items()}
    return "# " + json.dumps(clean, sort_keys=True)


def _emit_table(args, config, columns, rows, extra_comments=()):
    if args.format == "json":
        doc = {
            "config": {k: _jsonable(v) for k, v in config.items()},
            "columns": list(columns),
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }
        for key, value in extra_comments:
            doc[key] = _jsonable(value)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [_config_line(config)]
        lines.extend(f"# {key}: {value}" for key, value in extra_comments)
        lines.append(",".join(columns))
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_out(args.out, text)


def _write_out(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


# --- argument parsing ----------------------------------------------------------


def _join_list_values(argv: list) -> list:
    """``--snr -5,0,5`` becomes ``--snr=-5,0,5``: argparse takes a value
    with one leading minus for an option. Only --help and -h take none."""
    joined = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if (flag[:2] == "--" and "=" not in flag and not "--help".startswith(flag)
                and token[:1] == "-" and token[:2] != "--" and token != "-h"):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def _int_list(text: str) -> list:
    return _nonempty([int(part) for part in text.split(",") if part != ""])


def _float_list(text: str) -> list:
    return _nonempty([float(part) for part in text.split(",") if part != ""])


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("expected a comma list with at least one value")
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _snr_grid(text: str) -> list:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in pieces)
    if not np.isfinite((start, stop, step)).all():
        raise argparse.ArgumentTypeError(
            f"start, stop and step must be finite, got {text!r}")
    if step <= 0:
        raise argparse.ArgumentTypeError(f"step must be positive, got {step}")
    # The grid is start + k step for every k = 0, 1, ... up to span.
    span = (stop + 1e-9 - start) / step
    if span < 0:
        raise argparse.ArgumentTypeError(f"start:stop:step {text!r} holds no value")
    if span >= MAX_GRID_VALUES:
        raise argparse.ArgumentTypeError(
            f"start:stop:step {text!r} holds more than {MAX_GRID_VALUES} values")
    return [start + k * step for k in range(math.floor(span) + 1)]


def _resolve_snrs(args) -> list:
    if args.snr is not None and args.snr_grid is not None:
        raise ValueError("give either --snr or --snr-grid, not both")
    snrs = args.snr if args.snr is not None else args.snr_grid
    if snrs is None:
        raise ValueError("an SNR grid is required (--snr or --snr-grid)")
    for snr_db in snrs:
        if not snr_db > -np.inf:  # also false for nan
            raise ValueError(f"SNR must be a number of dB or inf, got {snr_db}")
        _alpha_of(snr_db)  # reject an SNR whose noise ratio overflows before any work
    return snrs


def _alpha_of(snr_db: float) -> float:
    """Noise-to-signal power ratio 10^(-SNR/10); inf dB is the noiseless 0."""
    if snr_db == np.inf:
        return 0.0
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(
            f"SNR {snr_db} dB gives a noise ratio 10^{-snr_db / 10.0:g}, "
            f"beyond the float range"
        ) from None


# --- subcommands ----------------------------------------------------------------


def cmd_moments(args):
    # Check d and beta before the expansion (a table read, about 1 ms), so
    # that a bad d or beta exits 2 even when p is past the cap (exit 3).
    for d in args.d:
        check_d(d)
    for beta in args.beta:
        check_beta(beta)
    expansion = moment_expansion(args.p)
    symbolic = symbolic_expansion(expansion)
    config = {
        "command": "moments", "p": args.p, "d": args.d, "beta": args.beta,
        "format": args.format,
    }
    rows = []
    for d in args.d:
        for beta in args.beta:
            rows.append((
                args.p, d, float(beta),
                float(moment_eval(expansion, d, beta)),
                float(moment_limit(args.p, beta)),
            ))
    columns = ("p", "d", "beta", "moment", "limit_moment")
    _emit_table(args, config, columns, rows,
                extra_comments=((f"symbolic p={args.p}", symbolic),))


def _parse_path(text: str) -> PartitionPath:
    labels = []
    for pos, part in enumerate(text.split(","), start=1):
        part = part.strip()
        try:
            labels.append(int(part))
        except ValueError:
            raise ValueError(f"position {pos}: {part!r} is not an integer") from None
    return PartitionPath.of(labels)


def cmd_volume(args):
    path = _parse_path(args.path)
    trace = reduction_trace(path)
    reduced = trace[-1].path
    volume = volume_exact(reduced)
    quadrature = None
    if 1 <= reduced.k - 1 <= 3:
        # The slowest 4-block tails shrink like 1/Y: even extrapolated,
        # 1,2,1,2,1,3,4,3,4 misses 1e-6 within the three-dimensional cap.
        tolerance = 1e-4 if reduced.k - 1 == 3 else 1e-6
        quadrature = volume_quadrature(reduced, tolerance=tolerance)

    if args.format == "json":
        doc = {
            "config": {"command": "volume", "path": list(path.labels)},
            "trace": [
                {"path": list(step.path.labels), "rule": step.rule, "index": step.index}
                for step in trace
            ],
            "volume": str(volume),
            "volume_float": float(volume),
            "quadrature": quadrature,
        }
        _write_out(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return

    width = max(len(str(step.path)) for step in trace)
    lines = [f"path {path}"]
    for step in trace:
        shown = str(step.path).ljust(width)
        if step.rule is None:
            lines.append(f"  {shown}  (fully reduced)")
        else:
            lines.append(f"  {shown}  rule {step.rule}, i = {step.index}")
    lines.append(f"volume = {volume}" + (f" = {float(volume)!r}" if volume.denominator != 1 else ""))
    if quadrature is not None:
        lines.append(f"quadrature = {quadrature!r}")
    _write_out(args.out, "\n".join(lines) + "\n")


def cmd_mse(args):
    _load("field_sim", "marchenko_pastur")
    snrs = _resolve_snrs(args)
    # Reject any over-budget combination before the first trial runs.
    for d in args.d:
        for beta in args.beta:
            check_trial_budget(d, args.M, beta, args.trials, args.threads,
                               args.max_mem)
    config = {
        "command": "mse", "d": args.d, "M": args.M, "beta": args.beta,
        "snr_db": snrs, "trials": args.trials, "seed": args.seed,
        "format": args.format,
    }
    columns = ("d", "M", "r", "beta", "snr_db", "mse_mp", "mse_empirical",
               "stderr", "trials", "seed")
    rows = []
    for i_d, d in enumerate(args.d):
        for i_b, beta in enumerate(args.beta):
            n_coeff, r = trial_sizes(d, args.M, beta)
            actual = n_coeff / r
            spectra = collect_spectra(
                d, args.M, beta, args.trials, (args.seed, i_d, i_b),
                threads=args.threads, max_bytes=args.max_mem,
            )
            for snr_db in snrs:
                alpha = _alpha_of(snr_db)
                per_trial = empirical_lmmse(spectra, actual, alpha)
                stderr = 0.0
                if len(per_trial) > 1:
                    stderr = float(per_trial.std(ddof=1) / np.sqrt(len(per_trial)))
                rows.append((
                    d, args.M, r, float(actual),
                    float(snr_db), float(mp_lmmse(actual, alpha)),
                    float(per_trial.mean()), stderr, args.trials, args.seed,
                ))
            del spectra  # before the next (d, beta): the budget counts one array
    _emit_table(args, config, columns, rows)


def cmd_spectrum(args):
    _load("field_sim", "marchenko_pastur")
    if args.bins < 1:
        raise ValueError(f"bins must be positive, got {args.bins}")
    # Once the trials end, their (trials, N) array is held beside the
    # histogram; both are checked before the first trial.
    check_trial_budget(args.d, args.M, args.beta, args.trials, args.threads,
                       args.max_mem)
    n_coeff, r = trial_sizes(args.d, args.M, args.beta)
    check_budget(8 * n_coeff * args.trials + BIN_BYTES * args.bins, args.max_mem,
                 f"a histogram of {args.trials} trial(s) in {args.bins} bins")
    config = {
        "command": "spectrum", "d": args.d, "M": args.M, "beta": args.beta,
        "trials": args.trials, "seed": args.seed, "bins": args.bins,
        "format": args.format,
    }
    spectra = collect_spectra(args.d, args.M, args.beta, args.trials, args.seed,
                              threads=args.threads, max_bytes=args.max_mem)
    counts, edges = np.histogram(spectra.ravel(), bins=args.bins)
    mass = counts / counts.sum()
    centers = (edges[:-1] + edges[1:]) / 2
    density = mp_pdf(centers, n_coeff / r)
    columns = ("bin_left", "bin_right", "bin_center", "mass", "mp_pdf")
    rows = [
        (float(edges[i]), float(edges[i + 1]), float(centers[i]),
         float(mass[i]), float(density[i]))
        for i in range(args.bins)
    ]
    _emit_table(args, config, columns, rows)


def cmd_mp(args):
    wants_moments = args.p is not None
    wants_mse = args.snr is not None or args.snr_grid is not None
    if wants_moments == wants_mse:
        raise ValueError("give exactly one of --p (limit moments) or an SNR grid (LMMSE)")
    config = {"command": "mp", "beta": args.beta, "format": args.format}
    if wants_moments:
        config["p"] = args.p
        columns = ("beta", "p", "moment_mp")
        rows = [
            (float(beta), p, moment_limit(p, beta))
            for beta in args.beta for p in range(1, args.p + 1)
        ]
    else:
        _load("marchenko_pastur")
        snrs = _resolve_snrs(args)
        config["snr_db"] = snrs
        columns = ("beta", "snr_db", "alpha", "mse_mp")
        rows = []
        for beta in args.beta:
            for snr_db in snrs:
                alpha = _alpha_of(snr_db)
                rows.append((float(beta), float(snr_db), alpha,
                             float(mp_lmmse(beta, alpha))))
    _emit_table(args, config, columns, rows)


# --- parser wiring ---------------------------------------------------------------


def _add_output_flags(sub):
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_snr_flags(sub):
    sub.add_argument("--snr", type=_float_list, default=None,
                     help="comma list of SNRs in dB; 'inf' for noiseless")
    sub.add_argument("--snr-grid", type=_snr_grid, default=None,
                     help=f"start:stop:step in dB, inclusive; at most "
                          f"{MAX_GRID_VALUES} values")


def _add_sim_flags(sub):
    sub.add_argument("--trials", type=int, default=50)
    sub.add_argument("--seed", type=_non_negative_int, default=0)
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="trial-level worker threads; never affects the output")
    sub.add_argument("--max-mem", type=_positive_int, default=None,
                     help="memory budget in bytes (default 2 GiB or "
                          "SAMPSPECTRA_MAX_MEM)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sampspectra",
        description="Eigenvalue moments and reconstruction error for "
                    "irregularly sampled multidimensional fields.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("moments", help="exact moment expansion over d and beta")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--d", type=_int_list, required=True, help="comma list")
    sub.add_argument("--beta", type=_float_list, required=True, help="comma list")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_moments)

    sub = subs.add_parser("volume", help="reduction trace and exact volume")
    sub.add_argument("path", help="partition path as a comma list, e.g. 1,2,1,2")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_volume)

    sub = subs.add_parser("mse", help="MP closed form vs seeded simulation")
    sub.add_argument("--d", type=_int_list, required=True, help="comma list")
    sub.add_argument("--M", type=int, required=True)
    sub.add_argument("--beta", type=_float_list, required=True, help="comma list")
    _add_snr_flags(sub)
    _add_sim_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_mse)

    sub = subs.add_parser("spectrum", help="pooled eigenvalue histogram vs MP pdf")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--M", type=int, required=True)
    sub.add_argument("--beta", type=float, required=True)
    sub.add_argument("--bins", type=int, default=50)
    _add_sim_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("mp", help="closed-form MP moments or LMMSE error")
    sub.add_argument("--beta", type=_float_list, required=True, help="comma list")
    sub.add_argument("--p", type=_positive_int, default=None,
                     help="emit limit moments for orders 1..p")
    _add_snr_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_mp)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_list_values(argv))
    try:
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"numerical integrity error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
