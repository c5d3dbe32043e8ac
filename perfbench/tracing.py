"""Per-layer tracing from outside the library.

Each layer's public functions are wrapped, and the wrapper is bound at
every site that binds the original: the defining module, each module that
imported it by name (``dilates.bounds.fold_size``,
``dilates.components.minkowski_sum``, ``dilates.cli.min_dilate_sum``, ...),
the package namespace, and the kernel attributes of the active
``dilates.backend._impl`` module. Patching only the defining module would
miss every call made through a by-name import.

Every call records a span (id, site, start, end, parent) in memory. A layer's
self time is the sum over its spans of duration minus the time their child
spans cover. A span opened in a worker thread with no open span of its own
takes the main thread's innermost open span as its parent, so search tasks
run on the thread pool belong to the ``min_dilate_sum`` call that started
them; under the interpreter lock, spans in worker threads include time
spent waiting for the lock.
"""

import functools
import gzip
import inspect
import json
import sys
import threading
import time
from array import array
from collections import Counter
from itertools import count

LAYER_MODULES = {
    "cli": "dilates.cli",
    "search": "dilates.search",
    "bounds": "dilates.bounds",
    "components": "dilates.components",
    "intset": "dilates.intset",
    "backend": "dilates.backend",
}
# The backend layer is dispatch: the folds with their int64 guard, and
# sumset. check_int64 runs twice per IntSet built and is two comparisons,
# so wrapping it would mostly time the wrapper; its cost stays in the
# caller's self time. backend_name and friends are not on any call path.
BACKEND_DISPATCH = ("fold_size", "fold_elements", "sumset")
KERNELS = {"bitset_fold_size": "bitset", "sumset_elements": "merge"}


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Thread:
    """One thread's open spans, totals and finished spans. Only its own
    thread writes to it, so the hot path takes no lock."""

    def __init__(self, nsites):
        self.stack = []
        self.calls = [0] * nsites
        self.self_s = [0.0] * nsites
        self.counts = Counter()
        self.total_s = Counter()
        self.spans = {
            "id": array("q"),
            "site": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
        }


class Tracer:
    """Span recorder and per-layer counters for wrapped functions."""

    def __init__(self, refusal_error):
        self._refusal = refusal_error
        self._local = threading.local()
        self._threads = []
        self._main = None
        self._ids = count()
        self.sites = []  # site index -> (layer, func, "module.attribute")
        self.keep_spans = True

    def _thread(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread(len(self.sites))
            self._threads.append(state)
            if threading.current_thread() is threading.main_thread():
                self._main = state
            return state

    def _after(self, state, func, args, result, duration):
        """Counts computed from a call's arguments and result."""
        if func == "bitset":
            state.counts["kernel.bitset.shift_ors"] += sum(len(s) for s in args[1])
        elif func == "merge":
            state.counts["kernel.merge.pairs"] += len(args[0]) * len(args[1])
            state.counts["kernel.merge.out_elems"] += len(result)
        elif func == "min_dilate_sum":
            state.counts["search.nodes_visited"] += result.nodes_visited
            state.counts["search.nodes_pruned"] += result.nodes_pruned
            state.total_s["search.min_dilate_sum"] += duration

    def wrap(self, fn, layer, func, site):
        tracer = self
        site_id = len(self.sites)
        self.sites.append((layer, func, site))
        perf_counter = time.perf_counter
        refusal = self._refusal
        hooked = func in ("bitset", "merge", "min_dilate_sum")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._thread()
            stack = state.stack
            if stack:
                parent, foreign = stack[-1], False
            else:
                main = tracer._main
                parent = main.stack[-1] if main is not None and main.stack else None
                foreign = True
            # frame: span id, layer, child seconds, intervals of children
            # that ran in other threads
            frame = [next(tracer._ids), layer, 0.0, []]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                if layer == "backend" and (parent is None or parent[1] != "backend"):
                    state.counts["backend.refused"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                covered = frame[2]
                if frame[3]:
                    covered += _union_length(frame[3])
                state.calls[site_id] += 1
                state.self_s[site_id] += duration - covered
                if parent is not None:
                    if foreign:
                        parent[3].append((t0, t1))
                    else:
                        parent[2] += duration
                if tracer.keep_spans:
                    spans = state.spans
                    spans["id"].append(frame[0])
                    spans["site"].append(site_id)
                    spans["start"].append(t0)
                    spans["end"].append(t1)
                    spans["parent"].append(-1 if parent is None else parent[0])
            if hooked:
                tracer._after(state, func, args, result, duration)
            return result

        return traced

    def snapshot(self):
        """(counts, seconds, site calls) summed over every thread so far.

        Take it only while no traced call is running."""
        counts, seconds, site_calls = Counter(), Counter(), Counter()
        for state in self._threads:
            counts.update(state.counts)
            seconds.update(state.total_s)
            for (layer, func, site), calls, self_s in zip(self.sites, state.calls, state.self_s):
                if calls:
                    counts[f"{layer}.calls"] += calls
                    counts[f"{layer}.{func}.calls"] += calls
                    seconds[f"{layer}.self_s"] += self_s
                    seconds[f"{layer}.{func}.self_s"] += self_s
                    site_calls[site] += calls
        return counts, seconds, site_calls

    def write_spans(self, path):
        """Write every span: a JSON header line, then each array's bytes,
        all threads concatenated."""
        merged = {k: array(a.typecode) for k, a in _Thread(0).spans.items()}
        for state in self._threads:
            for k, a in state.spans.items():
                merged[k].extend(a)
        header = {
            "sites": [list(s) for s in self.sites],
            "count": len(merged["id"]),
            "arrays": [[k, a.typecode] for k, a in merged.items()],
            "clock": "time.perf_counter seconds",
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in merged.values():
                fh.write(a.tobytes())


def traced_functions(impl):
    """(function, layer, name) for every public function of every layer."""
    found = []
    for layer, modname in LAYER_MODULES.items():
        module = sys.modules[modname]
        for name, obj in vars(module).items():
            if (
                name.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != modname
                or inspect.isgeneratorfunction(obj)
                or (layer == "backend" and name not in BACKEND_DISPATCH)
            ):
                continue
            found.append((obj, layer, name))
    for name, label in KERNELS.items():
        found.append((getattr(impl, name), "kernel", label))
    return found


def install(tracer, impl):
    """Bind a wrapper at every site that binds a traced function.

    Returns the sites, as "module.attribute" strings.
    """
    originals = {id(fn): (fn, layer, name) for fn, layer, name in traced_functions(impl)}
    modules = [
        m for n, m in sorted(sys.modules.items()) if n == "dilates" or n.startswith("dilates.")
    ]
    sites = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            entry = originals.get(id(obj))
            if entry is None or entry[0] is not obj:
                continue
            site = f"{module.__name__}.{attr}"
            setattr(module, attr, tracer.wrap(obj, entry[1], entry[2], site))
            sites.append(site)
    return sites


# Per-layer metrics: name -> unit. Calls count spans of the layer's wrapped
# functions, nested calls included.
LAYER_METRICS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "search.calls": "count",
    "search.self_s": "s",
    "search.nodes_visited": "count",
    "search.nodes_pruned": "count",
    "search.prune_frac": "frac",
    "search.us_per_node": "us",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "components.calls": "count",
    "components.self_s": "s",
    "components.marginal_set.calls": "count",
    "intset.calls": "count",
    "intset.self_s": "s",
    "backend.fold_size.calls": "count",
    "backend.fold_elements.calls": "count",
    "backend.sumset.calls": "count",
    "backend.self_s": "s",
    "backend.us_per_call": "us",
    "backend.bitset_route_frac": "frac",
    "backend.refused": "count",
    "kernel.bitset.calls": "count",
    "kernel.bitset.self_s": "s",
    "kernel.bitset.shift_ors": "count",
    "kernel.merge.calls": "count",
    "kernel.merge.self_s": "s",
    "kernel.merge.pairs": "count",
    "kernel.merge.out_elems": "count",
    "tracing_overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(counts, seconds):
    """Per-layer metric values of one traced pass, from its count and
    second deltas. tracing_overhead_s is filled in by the caller."""
    values = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "count":
            values[name] = counts.get(name, 0)
        elif unit == "s":
            values[name] = seconds.get(name, 0.0)
    values["search.prune_frac"] = _ratio(
        counts.get("search.nodes_pruned", 0), counts.get("search.nodes_visited", 0)
    )
    values["search.us_per_node"] = 1e6 * _ratio(
        seconds.get("search.min_dilate_sum", 0.0), counts.get("search.nodes_visited", 0)
    )
    values["backend.us_per_call"] = 1e6 * _ratio(
        seconds.get("backend.self_s", 0.0), counts.get("backend.calls", 0)
    )
    values["backend.bitset_route_frac"] = _ratio(
        counts.get("kernel.bitset.calls", 0), counts.get("backend.fold_size.calls", 0)
    )
    return values


# Self-check of the traced run. Each workload must reach these sites (or
# counts); the listed counts must stay exactly 0.
REQUIRED_SITES = {
    "probe": ["dilates.cli.main", "dilates.cli.conjecture_probe",
              "dilates.search.min_dilate_sum", "dilates.backend.fold_size"],
    "search-mixed": ["dilates.cli.main", "dilates.cli.min_dilate_sum",
                     "dilates.backend.fold_size"],
    "check": ["dilates.check_suite", "dilates.bounds.fold_size",
              "dilates.bounds.marginal_set", "dilates.components.minkowski_sum",
              "dilates.components.dilate", "dilates.backend.sumset"],
    "sum": ["dilates.dilate_sum", "dilates.dilate_sum_size",
            "dilates.backend.fold_size", "dilates.backend.fold_elements"],
}
REQUIRED_COUNTS = {
    "probe": ["kernel.bitset.calls"],
    "search-mixed": ["kernel.bitset.calls"],
    "check": ["kernel.bitset.calls", "kernel.merge.calls", "components.marginal_set.calls"],
    "sum": ["kernel.bitset.calls", "kernel.merge.calls", "backend.refused"],
}
ZERO_COUNTS = {
    "probe": ["kernel.merge.calls", "bounds.calls", "components.calls"],
    "search-mixed": ["kernel.merge.calls", "bounds.calls", "components.calls"],
    "check": ["search.calls", "cli.calls"],
    "sum": ["search.calls", "bounds.calls", "components.calls", "cli.calls"],
}


def self_check(workload, installed_sites, site_calls, pass_counts):
    """Problems found in the traced run; empty when it is sound."""
    problems = []
    for site in REQUIRED_SITES[workload]:
        if site not in installed_sites:
            problems.append(f"site {site} was not rebound")
        elif site_calls[site] == 0:
            problems.append(f"site {site} recorded no call")
    first = pass_counts[0]
    for name in REQUIRED_COUNTS[workload]:
        if first.get(name, 0) <= 0:
            problems.append(f"{name} is 0")
    for name in ZERO_COUNTS[workload]:
        if first.get(name, 0) != 0:
            problems.append(f"{name} is {first[name]}, expected 0")
    for i, later in enumerate(pass_counts[1:], start=2):
        if later != first:
            diff = sorted(k for k in set(first) | set(later) if first.get(k) != later.get(k))
            problems.append(f"traced pass {i} counts differ from pass 1 on {diff}")
    return problems
