#!/usr/bin/env python3
"""Benchmark for dilates: four workloads, end-to-end metrics, and a
per-layer traced run.

    python3 perfbench/run.py                   # all four workloads, each in a fresh process
    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0

A run sets up once, cold, in its own process (imports dilates, generates
the inputs). It then repeats passes over the workload's fixed operation
list for --seconds, as a closed loop: one client, each call made only
after the previous one returned. Every output is checked outside the
timed region.

Times are paired with a control. dilates_ref/ is a frozen copy of the
library as it was when the benchmark was defined. After the first pass, a
child process runs every operation on the copy, paired with the live run
of it as PAIRING says. An operation's time is its live/copy time ratio
times the copy's time pinned in ref_seconds.json for the operation's
stratum. The shared host changes speed by up to 1.9 times for seconds to
minutes; both halves of a pair see the same speed, so the ratio is steady
where raw seconds are not. Set-up is paired the same way, with cold
set-ups in fresh interpreters.

--trace 0 reports the end-to-end metrics. --trace 1 runs untraced passes
for half the time and traced passes for the other half, and reports the
per-layer metrics, the tracing overhead and a self-check of the trace.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Without --workload, it holds the
metrics of every workload, each named "<workload>.<metric>". The exit
status is 0 when every output is correct, 1 when an output is wrong or
the trace self-check fails, and 2 when the benchmark cannot run at all.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REF_SECONDS = BENCH_DIR / "ref_seconds.json"

WORKLOADS = ("probe", "search-mixed", "check", "sum")
DEFAULT_SECONDS = 25
# Seeds 1-10 were used while the benchmark was written; a claim made with
# them must also hold on HELDOUT_SEED.
DEV_SEED = 1
HELDOUT_SEED = 9001
SPAN_PASSES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
SETUP_PAIRS = 6
# How each workload's operations are paired with the frozen copy's, which
# runs in a child process. "cpu": the copy starts each operation as the
# live library starts it, both processes on one processor, and each side's
# time is its process CPU time. The two take turns every few milliseconds,
# so they see the same host speed even through an operation of seconds.
# "wall": the copy's operation runs right before or right after the live
# one, in wall seconds. search-mixed runs each search on two threads, whose
# latency CPU time would not show, so it is paired by "wall"; its searches
# last a third of a second, short enough for that. The other workloads'
# operations run on one thread.
PAIRING = {"probe": "cpu", "search-mixed": "wall", "check": "cpu", "sum": "cpu"}

END_TO_END = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def git_revision():
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples above its nearest rank. With too few samples for
    any of them, the median stands in and the percentile reads 50."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, -(-int(pct * 10) * n // 1000))
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def setup(args, pins, naive_dilate_sum, package="dilates"):
    """Import ``package`` (dilates or its frozen copy dilates_ref) and build
    the pass; returns (seconds, lib, ops).

    The first call in a process is a cold import. Raises RuntimeError when
    the requested backend is not available."""
    import workloads

    t0 = time.perf_counter()
    lib = importlib.import_module(package)
    cli = importlib.import_module(package + ".cli")
    if args.backend and package == "dilates":
        lib.use_backend(args.backend)
    ops = workloads.build_ops(args.workload, args.seed, lib, cli, pins, naive_dilate_sum)
    return time.perf_counter() - t0, lib, ops


def cold_setups(args):
    """SETUP_PAIRS pairs (live seconds, copy seconds) of cold set-ups, each
    in a fresh interpreter; the copy goes first in every other pair,
    starting with the first."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.backend:
        cmd += ["--backend", args.backend]

    def one(extra):
        proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])["setup_s"]

    pairs = []
    for i in range(SETUP_PAIRS):
        if i % 2:
            live = one([])
            pairs.append((live, one(["--reference"])))
        else:
            copy = one(["--reference"])
            pairs.append((one([]), copy))
    return pairs


CLOCKS = {"cpu": time.process_time, "wall": time.perf_counter}


def timed(call, clock=time.perf_counter):
    """(output or the exception raised, seconds)."""
    t0 = clock()
    try:
        out = call()
    except Exception as exc:  # an unexpected error is a failed op
        out = exc
    return out, clock() - t0


def serve_control(ops, pairing):
    """Child side of Control: run every op once to warm up, then run the op
    whose index arrives on stdin and answer with its seconds."""
    clock = CLOCKS[pairing]
    for op in ops:
        if isinstance(timed(op.call)[0], Exception):
            print(f"error on {op.key}", flush=True)
            return 1
    print("ready", flush=True)
    for line in sys.stdin:
        gc.collect()
        out, seconds = timed(ops[int(line)].call, clock)
        if isinstance(out, Exception):
            print(f"error {type(out).__name__}: {out}", flush=True)
            return 1
        print(seconds, flush=True)
    return 0


class Control:
    """The workload's ops on the frozen copy, in a child process. It warms
    up on its own; reply() returns None once it is ready."""

    def __init__(self, args):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--control",
               "--workload", args.workload, "--seed", str(args.seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def send(self, request):
        self.proc.stdin.write(f"{request}\n")
        self.proc.stdin.flush()

    def reply(self):
        line = self.proc.stdout.readline().strip()
        if line == "ready":
            return None
        try:
            return float(line)
        except ValueError:
            raise RuntimeError(f"the frozen copy failed: {line or 'no answer'}") from None

    def run(self, i):
        self.send(i)
        return self.reply()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


class Runner:
    """Runs passes over one op list and keeps every output check.

    Once ``control`` is set, each pass also has the frozen copy run every
    op, paired as PAIRING says: at the same time on one processor, or right
    before or right after the live op, alternating by pass. The copy's
    times go to ``control_passes``."""

    def __init__(self, ops, pairing):
        self.ops = ops
        self.clock = CLOCKS[pairing]
        self.concurrent = pairing == "cpu"
        self.control = None
        self.control_passes = []
        self.reference = []  # per op: (fingerprint, problem) from pass 1
        self.attempted = 0
        self.passes = 0
        self.failures = []

    def _judge(self, i, op, out):
        first_pass = i == len(self.reference)
        if isinstance(out, Exception):
            problem = f"{type(out).__name__}: {out}"
            if first_pass:
                self.reference.append((None, problem))
            return problem
        fingerprint = op.fingerprint(out)
        if first_pass:
            try:
                problem = op.verify(out)
            except Exception as exc:  # malformed output the check could not read
                problem = f"check raised {type(exc).__name__}: {exc}"
            self.reference.append((fingerprint, problem))
            return problem
        first, problem = self.reference[i]
        if fingerprint != first:
            return "output differs from the first pass"
        return problem

    def run_pass(self, pass_index):
        control = self.control
        times = []
        control_times = []
        control_first = control is not None and pass_index % 2 == 1
        for i, op in enumerate(self.ops):
            # Every op starts from a collected heap, in both processes, so
            # the collector does not run at points that depend on what the
            # harness allocated between ops.
            gc.collect()
            if control is None:
                out, seconds = timed(op.call)
            elif self.concurrent:
                control.send(i)
                out, seconds = timed(op.call, self.clock)
                control_times.append(control.reply())
            elif control_first:
                control_times.append(control.run(i))
                out, seconds = timed(op.call, self.clock)
            else:
                out, seconds = timed(op.call, self.clock)
                control_times.append(control.run(i))
            times.append(seconds)
            self.attempted += 1
            problem = self._judge(i, op, out)
            del out
            if problem is not None:
                self.failures.append({"op": op.key, "pass": pass_index, "problem": problem})
        if control is not None:
            self.control_passes.append(control_times)
        return times

    def measure(self, seconds, min_passes, observe=None):
        """Run at least ``min_passes`` passes, and more while another one
        of the last one's length fits in ``seconds``; returns each pass's
        op times. ``observe(run)``, when given, runs each pass."""
        deadline = time.perf_counter() + seconds
        passes = []
        last = 0.0
        while len(passes) < min_passes or time.perf_counter() + last < deadline:
            index = self.passes
            self.passes += 1
            t0 = time.perf_counter()
            passes.append(observe(lambda: self.run_pass(index)) if observe else self.run_pass(index))
            last = time.perf_counter() - t0
        return passes


def fastest(passes):
    """Each op's fastest time across the passes, in raw seconds."""
    return [min(times) for times in zip(*passes)]


def paired_ratio(lives, copies):
    """live/copy for one operation from its pairs, which alternate between
    copy first and live first.

    The second call of a pair runs a few percent faster than the first,
    so the median ratio of each order is taken and the two are combined by
    their geometric mean, in which that advantage cancels."""
    by_order = [
        statistics.median(live / copy for live, copy in zip(lives[k::2], copies[k::2]))
        for k in (0, 1)
    ]
    return math.sqrt(by_order[0] * by_order[1])


def end_to_end_metrics(strata, passes, control_passes, setup_pairs, pinned, peak_rss_mb, workload):
    """Metrics from paired times: an op's time is its live/copy ratio
    times the copy's pinned seconds for the op's stratum."""
    ratios = [
        paired_ratio(lives, copies)
        for lives, copies in zip(zip(*passes), zip(*control_passes))
    ]
    op_s = [ratio * pinned["strata"][stratum] for ratio, stratum in zip(ratios, strata)]
    setup_ratio = paired_ratio(*zip(*setup_pairs))
    pct, tail_s = tail(op_s)
    values = {
        "wall_s": sum(op_s),
        "op_ms_p50": 1e3 * statistics.median(op_s),
        "op_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_ratio * pinned["setup"][workload],
    }
    extra = {
        "tail_percentile": pct,
        "operations": len(op_s),
        "op_ratios": ratios,
        "setup_ratio": setup_ratio,
        "raw_wall_s": sum(fastest(passes)),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, extra


def traced_metrics(runner, args, lib, untraced):
    import tracing

    tracer = tracing.Tracer(lib.ArithmeticRangeError)
    sites = tracing.install(tracer, lib.backend._impl)
    pass_counts = []
    pass_values = []

    def observe(run):
        counts, seconds, _ = tracer.snapshot()
        times = run()
        after_counts, after_seconds, _ = tracer.snapshot()
        after_counts.subtract(counts)
        after_seconds.subtract(seconds)
        pass_counts.append(dict(+after_counts))
        pass_values.append(tracing.layer_metrics(after_counts, after_seconds))
        # Spans of the first SPAN_PASSES traced passes are kept; a probe pass
        # alone makes 6.4e5 of them.
        tracer.keep_spans = len(pass_counts) < SPAN_PASSES
        return times

    traced = runner.measure(args.seconds / 2, 2, observe)
    # Counts repeat exactly across traced passes (the self-check holds them
    # to it); times are the median over the traced passes.
    values = {
        name: pass_values[0][name] if unit == "count"
        else statistics.median(v[name] for v in pass_values)
        for name, unit in tracing.LAYER_METRICS.items()
        if name != "tracing_overhead_s"
    }
    values["tracing_overhead_s"] = sum(fastest(traced)) - sum(fastest(untraced))
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS.items()
    }
    site_calls = tracer.snapshot()[2]
    problems = tracing.self_check(args.workload, set(sites), site_calls, pass_counts)
    extra = {
        "traced_walls": [sum(t) for t in traced],
        "site_calls": {s: site_calls[s] for s in sorted(sites)},
    }
    return metrics, problems, extra, tracer


def run_one(args):
    if not (ROOT / "src" / "dilates" / "__init__.py").is_file():
        print(f"error: no dilates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "bruteforce.py").is_file():
        print(f"error: no brute-force oracle at {ROOT / 'tests' / 'bruteforce.py'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
    from bruteforce import naive_dilate_sum

    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    package = "dilates_ref" if args.reference or args.control else "dilates"

    started = time.perf_counter()
    try:
        setup_s, lib, ops = setup(args, pins, naive_dilate_sum, package)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    pinned = json.loads(REF_SECONDS.read_text())
    missing = [op.stratum for op in ops if op.stratum not in pinned["strata"]]
    if args.workload not in pinned["setup"] or missing:
        print(f"error: {REF_SECONDS.name} lacks {missing or args.workload}; "
              "run perfbench/calibrate.py", file=sys.stderr)
        return 2
    pairing = PAIRING[args.workload]
    if args.control:
        return serve_control(ops, pairing)
    runner = Runner(ops, pairing)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": {
            "backend": lib.backend_name(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_revision": git_revision(),
            "seed": args.seed,
            "heldout_seed": HELDOUT_SEED,
            "platform": platform.platform(),
        },
        "process_setup_s": setup_s,
        "pairing": pairing,
    }
    problems = []
    if args.trace:
        passes = runner.measure(args.seconds / 2, 1)
        metrics, problems, extra, tracer = traced_metrics(runner, args, lib, passes)
    else:
        deadline = time.perf_counter() + args.seconds
        cpus = os.sched_getaffinity(0)
        control = Control(args)
        try:
            # The first pass checks every output and warms up, while the
            # copy warms up in its own process.
            first = runner.measure(0, 1)
            control.reply()
            if runner.concurrent:
                for pid in (0, control.proc.pid):
                    os.sched_setaffinity(pid, {min(cpus)})
            runner.control = control
            passes = runner.measure(deadline - time.perf_counter(), 2)
        finally:
            control.close()
            os.sched_setaffinity(0, cpus)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_pairs = cold_setups(args)
        metrics, extra = end_to_end_metrics(
            [op.stratum for op in ops], passes, runner.control_passes, setup_pairs, pinned,
            peak_rss_mb, args.workload,
        )
        extra.update(first_pass_op_times=first[0], control_op_times=runner.control_passes,
                     setup_pairs=setup_pairs)
        tracer = None
    failed = len(runner.failures)
    correct = failed == 0 and not problems
    record.update(
        metrics=metrics,
        attempted=runner.attempted,
        failed=failed,
        failed_frac=failed / runner.attempted,
        correct=correct,
        pass_op_times=passes,
        self_check_problems=problems,
        failures=runner.failures[:50],
        run_s=time.perf_counter() - started,
        **extra,
    )

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.gz")

    for failure in runner.failures[:10]:
        print(f"FAILED {failure['op']} (pass {failure['pass']}): {failure['problem']}", file=sys.stderr)
    for problem in problems:
        print(f"TRACE SELF-CHECK: {problem}", file=sys.stderr)
    meta = record["metadata"]
    print(
        f"# {args.workload} seed={args.seed} backend={meta['backend']} python={meta['python']} "
        f"cpus={meta['cpu_count']} rev={meta['git_revision'][:12]} passes={runner.passes}"
    )
    for name, m in metrics.items():
        print(f"{args.workload:<13} {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<13} {'failed_frac':<30} {record['failed_frac']:>14.6g} "
          f"({failed}/{runner.attempted})")
    if not args.trace:
        print(f"# op_ms_tail is p{extra['tail_percentile']:g} of {extra['operations']} operations; "
              f"raw live times ({pairing} clock): the fastest repeats sum to "
              f"{extra['raw_wall_s']:.6g} s")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so memory and set-up are its own.

    Prints each workload's lines, then one JSON object with every
    workload's metrics, named "<workload>.<metric>"; prints no JSON object
    when a workload gave no result."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.backend:
            cmd += ["--backend", args.backend]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        status = max(status, proc.returncode)
        lines = proc.stdout.splitlines()
        try:
            results[workload] = json.loads(lines[-1])
            lines = lines[:-1]
        except (IndexError, json.JSONDecodeError):
            lines.append(f"# {workload}: no result (exit {proc.returncode})")
        print("\n".join(lines), flush=True)
    if len(results) < len(WORKLOADS):
        return status or 2
    for workload, result in results.items():
        print(f"# {workload}: correct={result['correct']} "
              f"failed_frac={result['failed'] / result['attempted']:g} "
              f"({result['failed']}/{result['attempted']})")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", choices=("pure", "compiled"),
                        help="kernels to run on (default: the one dilates picks at import)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up of --workload, print it and exit")
    parser.add_argument("--reference", action="store_true",
                        help="with --setup-only: set up the frozen copy dilates_ref instead")
    parser.add_argument("--control", action="store_true",
                        help="serve the frozen copy's ops on stdin to a run of --workload")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if (args.setup_only or args.control) and not args.workload:
        parser.error("--setup-only and --control need --workload")
    if args.reference and not args.setup_only:
        parser.error("--reference needs --setup-only")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
