"""Layered benchmark for lpackets.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload packets --seed 1 --seconds 30 --trace 0

`--trace 0` times whole rounds of tasks for at least `--seconds` with
tracing off and reports the end-to-end metrics; repeated set-ups, fresh
`python -m lpackets` processes and a fixed reference computation run
between tasks, spread over the pass.

On a shared host the CPU's speed drifts by tens of percent over tens of
seconds, and every timing of a run moves with it. The end-to-end times are
therefore reported at a nominal machine speed: each is scaled by
REFERENCE_NOMINAL_MS over the run's mean time of the reference, a fixed
pure-Python computation of the benchmark's own (no library code). The mean,
not the median: the host switches between fast and slow spells, and the
median of short samples jumps with whichever prevails, while the mean
follows the share of time spent slow, as the tasks' times do. The
unscaled values and the reference's time are printed and recorded beside
them. Per-layer times are not scaled.

`--trace 1` runs a fixed number of rounds in which every task runs twice,
untraced and with spans around each call it makes into the library, and
reports the per-layer metrics. The last line of standard output is one
JSON object; the lines above it print every metric by name with its unit,
the failures by reason and the environment. A wrong result ends the run
with exit code 1.

`--out FILE` appends the run's full record (metrics, failures, environment)
to FILE as one JSON line. Two such files compare with

    python3 bench/run.py --compare BEFORE.jsonl AFTER.jsonl

which prints one row per workload and end-to-end metric.
`bench/results/baseline.jsonl` holds ten seeds per workload, and one traced
run each, measured at the commit and on the machine its records name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import TASK, NullTracer, Tracer
from workloads import WORKLOADS, OpFailure, OracleError, cold_requests, reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-ups per run (setup_s is their median) and rounds of fresh processes,
# one per subcommand (cli_cold_ms is the median over all of them).
SETUPS = 15
COLD_ROUNDS = 5
IMPORT_SPAWNS = 5
# Tasks a timed pass runs at least, so that ten or more lie beyond p95.
MIN_TASKS = 200
# The reference runs about every REFERENCE_EVERY_S of the timed pass and
# takes about REFERENCE_NOMINAL_MS on a quiet 2.x GHz Xeon core.
REFERENCE_EVERY_S = 0.05
REFERENCE_NOMINAL_MS = 1.0
# End-to-end metrics the scaling divides (rates) or leaves alone; it
# multiplies the others, which are times.
RATES = ("ops_per_s",)
UNSCALED = ("peak_rss_mb",)

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "cli_cold_ms": "ms",
}
PER_LAYER = {
    "cartan.weight.calls": "count", "cartan.weight.busy_s": "s",
    "packets.infinitesimal_character.busy_s": "s",
    "packets.enumerate_packet.calls": "count", "packets.enumerate_packet.busy_s": "s",
    "packets.enumerate_packet.members": "count",
    "packets.enumerate_packet.us_per_member": "us",
    "minimal_ktype.test.calls": "count", "minimal_ktype.test.busy_s": "s",
    "minimal_ktype.test.accept_ratio": "ratio",
    "minimal_ktype.shifted_weight.busy_s": "s", "minimal_ktype.theta_parabolic.busy_s": "s",
    "branching.branch.calls": "count", "branching.branch.busy_s": "s",
    "branching.branch.constituents": "count", "branching.branch.us_per_constituent": "us",
    "branching.weyl_dim.busy_s": "s", "branching.restrict_ktype.busy_s": "s",
    "descent.isomorphism_fraction.calls": "count",
    "descent.isomorphism_fraction.busy_s": "s", "descent.isomorphism_fraction.combos": "count",
    "descent.restrict_parameter.busy_s": "s",
    "descent.classify_restriction.calls": "count", "descent.classify_restriction.busy_s": "s",
    "descent.classify_restriction.warnings": "count",
    "descent.descent_chain.calls": "count", "descent.descent_chain.busy_s": "s",
    "descent.descent_chain.steps": "count", "descent.descent_chain.failed": "count",
    "cli.main.calls": "count", "cli.main.busy_s": "s", "cli.main.output_bytes": "bytes",
    "cli.parse.busy_s": "s", "cli.exit_nonzero": "count", "cli.import_ms": "ms",
    "bench.self_s": "s", "trace.overhead_frac": "ratio", "failed_frac": "ratio",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_library():
    """Import lpackets from this checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "lpackets" or m.startswith("lpackets.")]:
        del sys.modules[name]
    import lpackets
    import lpackets.cli  # noqa: F401
    if Path(lpackets.__file__).resolve().parent != (SRC / "lpackets").resolve():
        raise ImportError(f"lpackets was imported from {lpackets.__file__}")
    return lpackets


def setup(workload: str, seed: int, smoke: bool):
    """Import the library and generate the workload's inputs from the seed.
    Returns (lib, rounds, seconds taken)."""
    generate, pool, _ = WORKLOADS[workload]
    started = time.perf_counter()
    lib = import_library()
    rounds = generate(random.Random(seed), 1 if smoke else pool, smoke)
    return lib, rounds, time.perf_counter() - started


def _reason(exc: Exception) -> str:
    if isinstance(exc, OpFailure):
        text = str(exc)
    else:
        text = f"{type(exc).__name__}: {exc}"
    # Collapse the values in a message so that failures group by cause.
    return re.sub(r"\(.*\)", "(...)", text)


class Pass:
    """Outcome of running rounds of tasks: latencies, rates, failures."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.round_rates: list[float] = []
        self.busy_s = 0.0
        self.failures: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)


def _run_task(task, lib, tracer, result: Pass) -> int:
    """Run one task into `result`; returns its wall time in ns."""
    clock = time.perf_counter_ns
    t0 = clock()
    try:
        with tracer.span(TASK):
            task.run(lib, tracer)
    except OracleError:
        raise
    except AssertionError as exc:
        # The library's own cross-checks: a wrong result, not a failure.
        raise OracleError(f"library cross-check failed: {exc}") from exc
    except Exception as exc:
        result.failures[_reason(exc)] += 1
    task_ns = clock() - t0
    result.latencies_ms.append(task_ns / 1e6)
    result.busy_s += task_ns / 1e9
    return task_ns


def run_pass(rounds, lib, seconds: float, min_tasks: int, between) -> Pass:
    """Run whole rounds with tracing off until `seconds` have passed and
    `min_tasks` tasks ran. `between(elapsed_s)` runs after each task,
    outside the task's time."""
    result = Pass()
    tracer = NullTracer()
    started = time.perf_counter()
    k = 0
    while True:
        tasks = rounds[k % len(rounds)]
        round_ns = 0
        for task in tasks:
            round_ns += _run_task(task, lib, tracer, result)
            between(time.perf_counter() - started)
        result.round_rates.append(len(tasks) / (round_ns / 1e9))
        k += 1
        if time.perf_counter() - started >= seconds and result.attempted >= min_tasks:
            return result


def run_paired(rounds, lib, tracer: Tracer, round_count: int) -> tuple[Pass, Pass]:
    """Run `round_count` rounds, each task once untraced and once traced,
    alternating which goes first, so that both passes see the same machine."""
    plain, traced = Pass(), Pass()
    null = NullTracer()
    for k in range(round_count):
        for i, task in enumerate(rounds[k % len(rounds)]):
            runs = [(null, plain), (tracer, traced)]
            for t, result in runs if i % 2 == 0 else runs[::-1]:
                _run_task(task, lib, t, result)
    return plain, traced


class Probes:
    """Measurements that are not tasks: set-ups again (import and input
    generation, results discarded), fresh `python -m lpackets
    <subcommand>` processes, every subcommand once per cold round, and the
    reference computation. They run one at a time, spread evenly over the
    timed pass, so that they sample the same machine as the tasks and not
    one moment of it."""

    def __init__(self, args, first_setup_s: float) -> None:
        self.args = args
        self.setup_s = [first_setup_s]
        self.cold_ms: list[float] = []
        self.reference_ms: list[float] = []
        self.reference_at = float("-inf")
        self.failures: Counter = Counter()
        requests = cold_requests(random.Random(f"{args.seed}-cold"))
        spawns = [argv for _ in range(1 if args.smoke else COLD_ROUNDS) for argv in requests]
        setups = 0 if args.smoke else SETUPS - 1
        self.attempted = len(spawns)
        self.pending = [argv for _, argv in sorted(
            [(k / len(spawns), argv) for k, argv in enumerate(spawns)]
            + [((k + 0.5) / setups, None) for k in range(setups)],
            key=lambda item: item[0])]
        self.interval = args.seconds / len(self.pending)
        self.done = 0

    def __call__(self, elapsed_s: float) -> None:
        if elapsed_s - self.reference_at >= REFERENCE_EVERY_S:
            self.reference_at = elapsed_s
            started = time.perf_counter_ns()
            reference()
            self.reference_ms.append((time.perf_counter_ns() - started) / 1e6)
        if not self.pending or elapsed_s < self.interval * self.done:
            return
        argv = self.pending.pop(0)
        self.done += 1
        if argv is None:
            self.setup_s.append(setup(self.args.workload, self.args.seed, self.args.smoke)[2])
            return
        ms, code = _spawn_ms(["-m", "lpackets", *argv])
        self.cold_ms.append(ms)
        if code != 0:
            self.failures[f"cold {argv[0]}: exit {code}"] += 1

    def finish(self) -> None:
        while self.pending or not self.reference_ms:
            self(float("inf"))


def _spawn_ms(argv: list) -> tuple[float, int]:
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, timeout=120)
    return (time.perf_counter() - started) * 1e3, proc.returncode


def quantile95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(timed: Pass, setups: list, cold_ms: list) -> dict:
    """The end-to-end metrics as measured, at the machine's speed of the run."""
    return {
        "ops_per_s": statistics.median(timed.round_rates),
        "op_p50_ms": statistics.median(timed.latencies_ms),
        "op_p95_ms": quantile95(timed.latencies_ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_cold_ms": statistics.median(cold_ms),
    }


def at_nominal_speed(raw: dict, reference_ms: float) -> dict:
    """Scale the timed metrics to a machine on which the reference takes
    REFERENCE_NOMINAL_MS."""
    scale = REFERENCE_NOMINAL_MS / reference_ms
    return {name: value if name in UNSCALED
            else value / scale if name in RATES else value * scale
            for name, value in raw.items()}


def per_layer(plain: Pass, traced: Pass, tracer: Tracer, import_ms: list) -> dict:
    summary = tracer.summary()
    calls, busy, counts = summary["calls"], summary["busy_s"], tracer.counts
    out = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls[layer]
        elif stat == "busy_s":
            out[name] = busy.get(layer, 0.0)
        else:
            out[name] = counts[name]  # counted by the tasks; ratios follow
    members = counts["packets.enumerate_packet.members"]
    constituents = counts["branching.branch.constituents"]
    tests = calls["minimal_ktype.test"]
    out["packets.enumerate_packet.us_per_member"] = (
        busy.get("packets.enumerate_packet", 0.0) * 1e6 / members if members else 0.0)
    out["branching.branch.us_per_constituent"] = (
        busy.get("branching.branch", 0.0) * 1e6 / constituents if constituents else 0.0)
    out["minimal_ktype.test.accept_ratio"] = (
        counts["minimal_ktype.test.accepted"] / tests if tests else 0.0)
    out["cli.import_ms"] = statistics.median(import_ms)
    out["bench.self_s"] = summary["self_s"]
    traced_rate = traced.attempted / (traced.busy_s - summary["extra_s"])
    plain_rate = plain.attempted / plain.busy_s
    out["trace.overhead_frac"] = (plain_rate - traced_rate) / plain_rate
    out["failed_frac"] = sum(traced.failures.values()) / traced.attempted
    return out


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lpackets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "cpu": cpu, "nproc": os.cpu_count(), "seed": seed}


def measure(args) -> dict:
    lib, rounds, setup_s = setup(args.workload, args.seed, args.smoke)
    _, _, traced_rounds = WORKLOADS[args.workload]
    min_tasks = 1 if args.smoke else MIN_TASKS
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        probes = Probes(args, setup_s)
        timed = run_pass(rounds, lib, args.seconds, min_tasks, probes)
        probes.finish()
        failures = timed.failures + probes.failures
        attempted = timed.attempted + probes.attempted
        raw = end_to_end(timed, probes.setup_s, probes.cold_ms)
        record["reference_ms"] = statistics.fmean(probes.reference_ms)
        record["raw"] = raw
        metrics = at_nominal_speed(raw, record["reference_ms"])
        units = END_TO_END
        latencies = timed.latencies_ms
        record["rounds"] = len(timed.round_rates)
    else:
        count = 1 if args.smoke else traced_rounds
        tracer = Tracer()
        plain, traced = run_paired(rounds, lib, tracer, count)
        import_ms = [_spawn_ms(["-c", "import lpackets.cli"])[0]
                     for _ in range(1 if args.smoke else IMPORT_SPAWNS)]
        failures = plain.failures + traced.failures
        attempted = plain.attempted + traced.attempted
        metrics, units = per_layer(plain, traced, tracer, import_ms), PER_LAYER
        latencies = traced.latencies_ms
        record["rounds"] = count
    p95 = quantile95(latencies) if len(latencies) > 1 else latencies[0]
    record.update(
        attempted=attempted, failed=sum(failures.values()),
        failures=dict(failures.most_common()),
        samples=len(latencies), beyond_p95=sum(1 for x in latencies if x > p95),
        metrics={name: {"value": metrics[name], "unit": units[name]} for name in units},
        env=environment(args.seed))
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {record['rounds']}  samples {record['samples']} "
          f"({record['beyond_p95']} beyond p95)")
    raw = record.get("raw", {})
    for name, metric in record["metrics"].items():
        unscaled = f"  (as measured {raw[name]:.6f})" if name in raw else ""
        print(f"  {name:42s} {metric['value']:>16.6f} {metric['unit']}{unscaled}")
    if "reference_ms" in record:
        print(f"  reference {record['reference_ms']:.6f} ms (nominal {REFERENCE_NOMINAL_MS} ms)")
    print(f"  failed_frac {record['failed'] / record['attempted']:.6f} "
          f"({record['failed']} of {record['attempted']})")
    for reason, count in record["failures"].items():
        print(f"  failure x{count}: {reason}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def _stats(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(before_path: str, after_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for path in (before_path, after_path):
        with open(path) as f:
            sets.append([json.loads(line) for line in f if line.strip()])
    machines = {(r["env"]["python"], r["env"]["cpu"], r["env"]["nproc"])
                for s in sets for r in s}
    if len(machines) > 1:
        print("warning: the result sets come from different machines or Python "
              f"versions: {sorted(machines)}")
    print(f"{'workload':10s} {'metric':12s} {'unit':5s} {'before [q1, q3]':>32s} "
          f"{'after [q1, q3]':>32s} {'ratio':>7s}  status")
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s
                       if r["workload"] == workload["name"] and r["trace"] == 0
                       and name in r["metrics"]] for s in sets]
            if not all(values):
                continue
            (b, b1, b3), (a, a1, a3) = _stats(values[0]), _stats(values[1])
            ratio = a / b
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if max((b3 - b1) / b, (a3 - a1) / a) > bound:
                status = "unresolved"
            elif worse > bound:
                status = "worse"
            elif -worse > bound:
                status = "better"
            else:
                status = "within bound"
            print(f"{workload['name']:10s} {name:12s} {metric['unit']:5s} "
                  f"{b:12.4f} [{b1:.4f}, {b3:.4f}] {a:12.4f} [{a1:.4f}, {a3:.4f}] "
                  f"{ratio:7.4f}  {status}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for lpackets.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one round, for the benchmark's own test")
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two files written by --out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "lpackets" / "__init__.py").is_file():
        print(f"error: no lpackets source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        record = measure(args)
    except OracleError as exc:
        print(f"error: wrong result: {exc}", file=sys.stderr)
        return 1
    report(record)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
