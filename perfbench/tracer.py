"""Span recording around the program's public functions, and the per-layer
metrics derived from the spans.

The program looks its collaborators up as module attributes at call time
(``cli`` calls ``moment_expansion`` through its own namespace, ``moments``
calls ``volume_of`` through its own, and so on), so replacing those
attributes with timing wrappers traces every layer boundary without editing
the program. A span is ``[name, start, end, parent]``, where ``parent`` is
the index of the enclosing span or -1; spans stay in memory until the
repetition ends.

Only the worker process installs wrappers. The parent process imports this
module for :func:`layer_metrics` and :func:`import_times`, which need
nothing beyond the standard library.
"""

import sys
import time

# (module, attribute, span name, kind). Each entry wraps the attribute in the
# namespace that calls it. "gen" wraps a generator so that each resumption is
# a span; a span name is "<layer>.<function>", the layer being the module that
# defines the function.
WRAPS = (
    ("sampspectra.cli", "main", "cli.main", "call"),
    ("sampspectra.cli", "moment_expansion", "moments.moment_expansion", "call"),
    ("sampspectra.cli", "moment_eval", "moments.moment_eval", "call"),
    ("sampspectra.cli", "moment_limit", "moments.moment_limit", "call"),
    ("sampspectra.cli", "collect_spectra", "field_sim.collect_spectra", "call"),
    ("sampspectra.cli", "empirical_lmmse", "field_sim.empirical_lmmse", "call"),
    ("sampspectra.cli", "mp_lmmse", "marchenko_pastur.mp_lmmse", "call"),
    ("sampspectra.moments", "iter_partition_paths", "combinatorics.enumerate", "gen"),
    ("sampspectra.moments", "volume_of", "volumes.volume_of", "call"),
    ("sampspectra.volumes", "reduce_path", "combinatorics.reduce_path", "call"),
    ("sampspectra.volumes", "volume_exact", "volumes.volume_exact", "call"),
    ("sampspectra.volumes", "zeta_count", "volumes.zeta_count", "call"),
    ("sampspectra.field_sim", "instance_for", "field_sim.instance_for", "call"),
    ("sampspectra.field_sim", "build_G", "field_sim.build_G", "call"),
    ("sampspectra.field_sim", "build_T", "field_sim.build_T", "call"),
    ("sampspectra.field_sim", "hermitian_eigenvalues", "field_sim.hermitian_eigenvalues", "call"),
    ("numpy.linalg", "eigh", "field_sim.eigh", "call"),
    ("sampspectra.field_sim", "draw_realization", "field_sim.draw_realization", "call"),
    ("sampspectra.field_sim", "reconstruct_field", "field_sim.reconstruct_field", "call"),
    ("scipy.linalg", "solve", "field_sim.linear_solve", "call"),
)

# Sizes taken from a wrapped function's result: span name -> counter name.
# Arrays report nbytes, which numpy computes from shape and itemsize.
RESULT_SIZES = {
    "moments.moment_expansion": ("moments.terms", lambda e: len(e.terms)),
    "field_sim.build_G": ("field_sim.G_bytes", lambda a: a.nbytes),
    "field_sim.build_T": ("field_sim.T_bytes", lambda a: a.nbytes),
}


class Tracer:
    """Records spans from wrappers installed on module attributes."""

    def __init__(self):
        self.spans = []
        self.sizes = {}
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap_call(self, fn, name):
        size = RESULT_SIZES.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if size is not None:
                key, measure = size
                self.sizes[key] = max(self.sizes.get(key, 0), measure(result))
            return result

        return traced

    def wrap_generator(self, fn, name):
        """One span per resumption that yields; the exhausting one is not kept."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self._stack.pop()
                    del self.spans[index:]
                    return
                self._close(index)
                yield item

        return traced

    def install(self):
        """Wrap every WRAPS entry whose module is already imported."""
        for module_name, attr, name, kind in WRAPS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            fn = getattr(module, attr)
            wrap = self.wrap_generator if kind == "gen" else self.wrap_call
            setattr(module, attr, wrap(fn, name))


# --- derivation (parent side) -------------------------------------------------


def span_totals(spans):
    """Per span name: count, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its children.
    No wrapped function calls itself, so inclusive sums count no time twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent) in enumerate(spans):
        t = totals.setdefault(name, {"count": 0, "incl": 0.0, "self": 0.0})
        t["count"] += 1
        t["incl"] += end - start
        t["self"] += end - start - child_time[i]
    return totals


def layer_metrics(spans, sizes, output_bytes):
    """Per-layer metrics of one traced repetition, as {name: value}.

    A metric of a layer the workload leaves idle reads 0.
    """
    totals = span_totals(spans)
    zero = {"count": 0, "incl": 0.0, "self": 0.0}

    def t(name):
        return totals.get(name, zero)

    return {
        "cli.main_s": t("cli.main")["incl"],
        "cli.self_s": t("cli.main")["self"],
        "cli.output_bytes": output_bytes,
        "combinatorics.paths": t("combinatorics.enumerate")["count"],
        "combinatorics.enumerate_s": t("combinatorics.enumerate")["incl"],
        "combinatorics.reduce_calls": t("combinatorics.reduce_path")["count"],
        "combinatorics.reduce_s": t("combinatorics.reduce_path")["incl"],
        "volumes.volume_of_calls": t("volumes.volume_of")["count"],
        # volume_of calls volume_exact only on a cache miss
        "volumes.cache_hits": t("volumes.volume_of")["count"] - t("volumes.volume_exact")["count"],
        "volumes.volume_exact_calls": t("volumes.volume_exact")["count"],
        "volumes.volume_exact_s": t("volumes.volume_exact")["incl"],
        "volumes.zeta_count_calls": t("volumes.zeta_count")["count"],
        "volumes.zeta_count_s": t("volumes.zeta_count")["incl"],
        "moments.expansion_s": t("moments.moment_expansion")["incl"],
        "moments.aggregate_self_s": t("moments.moment_expansion")["self"],
        "moments.terms": sizes.get("moments.terms", 0),
        "moments.eval_s": t("moments.moment_eval")["incl"] + t("moments.moment_limit")["incl"],
        "field_sim.trials": t("field_sim.hermitian_eigenvalues")["count"],
        "field_sim.instance_s": t("field_sim.instance_for")["incl"],
        "field_sim.build_G_s": t("field_sim.build_G")["incl"],
        "field_sim.gram_s": t("field_sim.build_T")["self"],
        "field_sim.eigh_s": t("field_sim.eigh")["incl"],
        "field_sim.checks_s": t("field_sim.hermitian_eigenvalues")["self"],
        "field_sim.lmmse_s": t("field_sim.empirical_lmmse")["incl"],
        "field_sim.G_bytes": sizes.get("field_sim.G_bytes", 0),
        "field_sim.T_bytes": sizes.get("field_sim.T_bytes", 0),
        "field_sim.draws": t("field_sim.draw_realization")["count"],
        "field_sim.realization_s": t("field_sim.draw_realization")["incl"],
        "field_sim.reconstruct_s": t("field_sim.reconstruct_field")["self"],
        "field_sim.linear_solve_s": t("field_sim.linear_solve")["incl"],
        "marchenko_pastur.lmmse_calls": t("marchenko_pastur.mp_lmmse")["count"],
        "marchenko_pastur.lmmse_s": t("marchenko_pastur.mp_lmmse")["incl"],
    }


IMPORT_PACKAGES = ("numpy", "scipy", "sampspectra")


def import_times(stderr_text, marker):
    """Seconds of import attributed to each of IMPORT_PACKAGES.

    Reads ``python -X importtime`` lines up to ``marker``. A module's self
    time goes to the package it belongs to, or else to the nearest enclosing
    import of one of the packages, so a package's figure is its cumulative
    import time minus the time spent importing the other two inside it.
    Lines come in post-order, with two spaces of indent per nesting level.
    """
    nodes = []  # (depth, self_us, name)
    for line in stderr_text.splitlines():
        if line == marker:
            break
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _cumulative, field = line[len("import time:"):].split("|", 2)
        name = field.strip()
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        nodes.append((depth, int(self_us), name))

    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    # Walk in reverse (pre-order from the root): a node's owner is its own
    # package if it has one, else the owner of its nearest ancestor.
    owners = []  # owner at each depth along the current branch
    for depth, self_us, name in reversed(nodes):
        del owners[depth:]
        package = name.split(".", 1)[0]
        owner = package if package in totals else (owners[-1] if owners else None)
        owners.append(owner)
        if owner is not None:
            totals[owner] += self_us
    return {f"import.{p}_s": us / 1e6 for p, us in totals.items()}
