"""Outside-in layer trace of `toralconj`, installed from the benchmark.

Each listed function is replaced by a timing wrapper at every module global
bound to it, because the package imports with `from .x import f` and a
patch of the defining module alone would miss most calls.  The program
itself is not edited.  Spans (name, start, end, parent) are kept in memory
while `recording` is set and written out at the end of the run.
"""

import json
import sys
from time import perf_counter

# layer (module) -> function -> metrics.  Sums are over one round of the
# corpus; `max_*` metrics are maxima over the run.
LAYERS = {
    "conjugacy_pipeline": {
        "decide": ("incl_s",),
        "similarity_check": ("incl_s",),
        "intertwiner_lattice": ("incl_s",),
        "unimodular_search": ("incl_s", "candidates"),
    },
    "bf_invariants": {
        "hyperbolicity_check": ("incl_s",),
        "strong_bf_screen": ("incl_s", "polys"),
        "bf_group": ("calls", "incl_s"),
    },
    "finite_modules": {
        "quotient": ("calls", "self_s"),
        "module_iso_exists": ("calls", "incl_s", "candidates", "unknown"),
        "invariant_mismatch": ("incl_s",),
        "intertwiner_kernel": ("calls", "repeat_calls"),
    },
    "ideal_theory": {
        "eigen_ideal": ("incl_s",),
        "multiplier_ring": ("incl_s",),
        "weak_equivalence": ("incl_s",),
        "principal_search": ("incl_s", "candidates"),
    },
    "tower": {
        "build_tower": ("incl_s",),
        "level_iso_family": ("incl_s",),
        "delta_lattice": ("incl_s",),
        "classify_delta": ("incl_s",),
    },
    "exact_linalg": {
        "hnf": ("calls", "self_s", "repeat_calls", "max_rows", "max_entry_bits"),
        "snf": ("calls", "self_s"),
        "det": ("calls", "self_s"),
        "char_poly": ("calls", "repeat_calls"),
    },
    "intfactor": {
        "factorint": ("calls", "self_s", "repeat_calls", "max_arg_bits"),
        "is_prime": ("calls",),
    },
}

UNITS = {"incl_s": "s", "self_s": "s", "max_rows": "rows", "max_entry_bits": "bits",
         "max_arg_bits": "bits"}


def _entry_bits(*mats):
    return max((abs(x).bit_length() for M in mats for row in M for x in row), default=0)


# metric -> value of one call, from (args, result)
EXTRAS = {
    "candidates": lambda args, res: res.tried,
    "polys": lambda args, res: len(res.records),
    "unknown": lambda args, res: int(res.verdict == "unknown"),
    "max_rows": lambda args, res: len(args[0]),
    "max_entry_bits": lambda args, res: _entry_bits(args[0], *res),
    "max_arg_bits": lambda args, res: abs(args[0]).bit_length(),
}


class _Stats:
    def __init__(self, metrics):
        self.metrics = metrics
        self.extras = [(m, EXTRAS[m]) for m in metrics if m in EXTRAS]
        self.track_repeats = "repeat_calls" in metrics
        self.seen = set()
        self.values = dict.fromkeys(("calls", "incl_s", "self_s", "repeat_calls"), 0)
        self.values.update((m, 0) for m, _ in self.extras)


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []            # [span id, child time] per open call
        self.recording = False
        self.names = []
        self.spans = []            # [name index, start, end, parent span id]

    def install(self):
        """Wrap every listed function wherever a toralconj module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "toralconj" or name.startswith("toralconj."))]
        for layer, funcs in LAYERS.items():
            defining = sys.modules[f"toralconj.{layer}"]
            for func, metrics in funcs.items():
                orig = getattr(defining, func)
                name = f"{layer}.{func}"
                stats = self.stats[name] = _Stats(metrics)
                self.names.append(name)
                wrapper = self._wrap(orig, stats, len(self.names) - 1, func == "decide")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)

    def _wrap(self, orig, stats, name_index, is_decide):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if is_decide and not stack:
                for s in self.stats.values():
                    s.seen.clear()
            if stats.track_repeats:
                key = (args, tuple(sorted(kwargs.items())))
                if key in stats.seen:
                    stats.values["repeat_calls"] += 1
                else:
                    stats.seen.add(key)
            span = -1
            if self.recording:
                span = len(self.spans)
                self.spans.append([name_index, 0.0, 0.0, stack[-1][0] if stack else -1])
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                v = stats.values
                v["calls"] += 1
                v["incl_s"] += took
                v["self_s"] += took - frame[1]
                if span >= 0:
                    self.spans[span][1:3] = [start, end]
            for metric, extract in stats.extras:
                x = extract(args, result)
                v[metric] = max(v[metric], x) if metric.startswith("max_") else v[metric] + x
            return result

        return wrapper

    def metrics(self, rounds):
        """Every per-layer metric, sums taken per round of the corpus."""
        out = {}
        for name, stats in self.stats.items():
            for metric in stats.metrics:
                value = stats.values[metric]
                if not metric.startswith("max_"):
                    value = value / rounds
                    if metric not in UNITS and value == int(value):
                        value = int(value)
                out[f"{name}.{metric}"] = {"value": value, "unit": UNITS.get(metric, "count")}
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name_index, start, end, parent in self.spans:
                fh.write(json.dumps({"name": self.names[name_index], "start": start,
                                     "end": end, "parent": parent}) + "\n")
