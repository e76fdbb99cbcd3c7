#!/usr/bin/env python3
"""Benchmark for the windmills package.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the repository root.  One process drives the package in process from
a single closed-loop caller (jobs=1, no pool, no threads), checks every op's
output, and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are end to end,
from op times scaled to a nominal host speed (hostspeed.py); with --trace 1 a
fixed number of rounds runs once untraced and once with every function in
TRACED wrapped in a span, and the metrics are per function calls and self
time, plus the tracing overhead.  The line before the result is a JSON object
{"info": ...} with the tail percentile, sample counts, the unscaled timings
and the SHA-256 of round 0's output.  --workload all runs each workload in its
own process and prints every end-to-end metric by name.  See README.md beside
this file for the workloads and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import REF_EVERY_S, scale_factors, time_reference
from stats import nearest_rank, tail
from tracer import Tracer, patched
from workloads import ROOT, SRC, WORKLOADS, Inputs, MissingPackage, Op, load_package

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# Every binding of these is wrapped in a traced run.  cli.main is wrapped but
# the command handlers are not, so its self time covers argument parsing,
# sorting and output formatting.
TRACED = [
    "cli.main",
    "cli.check_count",
    "cli.check_oracle",
    "cli.check_irreducible",
    "cli.check_color",
    "decomp.enumerate_fast",
    "decomp.vierergruppe_orbits",
    "decomp.two_squares_fixed_point",
    "decomp.two_squares_grace",
    "decomp.enumerate_bruteforce",
    "decomp.irreducible_enumerate",
    "decomp.irreducible_count",
    "windmill._fast_solution_raw",
    "windmill.fast_solution_for_pair",
    "windmill.find_windmill_basis",
    "windmill.all_windmill_bases",
    "windmill.standard_black_basis",
    "lattice2d._reduce_raw",
    "lattice2d.gauss_reduce",
    "lattice2d.lambda_mu",
    "lattice2d.minimal_vector",
    "lattice2d.voronoi_cell",
    "lattice2d._voronoi_vectors_raw",
    "numtheory.is_prime",
    "numtheory.sqrt_minus_one",
    "numtheory._require_odd_prime",
    "render.lattice_svg",
    "render.tiling_svg",
]

SETUP_REPEATS = 11


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # raw seconds per op
    slopes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)  # reference-kernel samples
    ref_index: list[int] = field(default_factory=list)  # last sample before each op
    since_ref: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def calibrate(self) -> None:
        self.ref_times.append(time_reference())
        self.since_ref = 0.0

    def scaled(self) -> list[float]:
        """Op times at the nominal host speed (see hostspeed.py)."""
        factors = scale_factors(self.ref_times, self.ref_index)
        return [t * f for t, f in zip(self.latencies, factors)]


def run_op(mods: dict, op: Op) -> tuple[float, str, str | None]:
    """Time one op; returns (seconds, output, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        code, text, err = op.run(mods)
    except Exception:
        return time.perf_counter() - t0, "", f"{op.label} raised: {traceback.format_exc(limit=-1).strip()}"
    elapsed = time.perf_counter() - t0
    try:
        reason = op.check(code, text, err)
    except Exception as exc:
        reason = f"check raised {exc!r}"
    return elapsed, text, None if reason is None else f"{op.label}: {reason}"


def run_round(
    mods: dict, ops: list[Op], tally: Tally, tracer: Tracer | None = None, deadline: float | None = None
) -> str:
    """Run ops in order into tally, stopping early once the perf_counter
    deadline has passed; returns the SHA-256 of the outputs."""
    digest = hashlib.sha256()
    for op in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if not tally.ref_times or tally.since_ref >= REF_EVERY_S:
            tally.calibrate()
        if tracer is not None:
            tracer.op += 1
        elapsed, text, failure = run_op(mods, op)
        tally.attempted += 1
        tally.latencies.append(elapsed)
        tally.ref_index.append(len(tally.ref_times) - 1)
        tally.since_ref += elapsed
        tally.slopes += op.slopes
        if failure is not None:
            tally.failures.append(failure)
        digest.update(f"{op.label}\n{text}\n".encode())
    return digest.hexdigest()


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing windmills.cli, scaled
    to the nominal host speed by reference samples taken between the starts;
    returns (scaled, unscaled) seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import windmills.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # untimed: fills the bytecode cache
    times, refs = [], [time_reference()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        refs.append(time_reference())
    factors = scale_factors(refs, list(range(len(times))))
    return statistics.median(t * f for t, f in zip(times, factors)), statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(latencies: list[float], tally: Tally) -> dict:
    _, tail_s, _ = tail(latencies)
    total = sum(latencies)
    return {
        "ops_per_s": metric((tally.attempted - tally.failed) / total, "1/s"),
        "slopes_per_s": metric(tally.slopes / total, "1/s"),
        "p50_ms": metric(nearest_rank(sorted(latencies), 50.0) * 1e3, "ms"),
        "tail_ms": metric(tail_s * 1e3, "ms"),
    }


def end_to_end(tally: Tally) -> dict:
    return {
        **timings(tally.scaled(), tally),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def info(name: str, seed: int, rounds: int, tally: Tally, digest: str) -> dict:
    q, _, beyond = tail(tally.latencies)
    return {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "samples": len(tally.latencies),
        "tail_percentile": q,
        "tail_beyond": beyond,
        "reference_ms": statistics.median(tally.ref_times) * 1e3,
        "unscaled": {k: v["value"] for k, v in timings(tally.latencies, tally).items()},
        "round0_stdout_sha256": digest,
    }


def untraced_run(mods: dict, name: str, seed: int, seconds: float) -> tuple[dict, list[Tally], int, str, dict]:
    workload = WORKLOADS[name]
    setup_s, setup_unscaled_s = measure_setup()
    inputs = Inputs()
    warm = Tally()
    run_round(mods, list(workload.warm_up), warm)
    timed = Tally()
    # round 0 always runs whole, for its output digest; later rounds stop at
    # the deadline, and their shuffled order keeps a partial round's mix fair
    deadline = time.perf_counter() + seconds
    digest = run_round(mods, workload.round(inputs, seed, 0), timed)
    rounds = 1
    while time.perf_counter() < deadline:
        run_round(mods, workload.round(inputs, seed, rounds), timed, deadline=deadline)
        rounds += 1
    timed.calibrate()  # a sample after the last op
    metrics = {"setup_s": metric(setup_s, "s"), **end_to_end(timed)}
    return metrics, [timed, warm], rounds, digest, {"setup_s": setup_unscaled_s}


def traced_run(mods: dict, name: str, seed: int) -> tuple[dict, list[Tally], int, str, dict]:
    """The workload's fixed rounds, once untraced and once traced; the
    difference in op time between the two passes is the tracing overhead."""
    workload = WORKLOADS[name]
    inputs = Inputs()
    warm = Tally()
    run_round(mods, list(workload.warm_up), warm)
    rounds = [workload.round(inputs, seed, r) for r in range(workload.trace_rounds)]
    plain = Tally()
    for ops in rounds:
        run_round(mods, ops, plain)
    plain.calibrate()
    tracer = Tracer()
    traced = Tally()
    with patched(tracer, mods, TRACED):
        digests = [run_round(mods, ops, traced, tracer) for ops in rounds]
    traced.calibrate()
    tracer.write(OUT / f"spans-{name}-seed{seed}")
    totals = tracer.layer_totals()
    metrics = {}
    for qual in TRACED:
        calls, self_ns = totals.get(qual, (0, 0))
        metrics[f"{qual}.calls"] = metric(calls, "count")
        metrics[f"{qual}.self_s"] = metric(self_ns / 1e9, "s")
    overhead = sum(traced.scaled()) / sum(plain.scaled()) - 1.0
    metrics["trace_overhead_pct"] = metric(overhead * 100.0, "%")
    print(json.dumps({"untraced": end_to_end(plain), "traced": end_to_end(traced), "spans": len(tracer)}))
    return metrics, [traced, plain, warm], len(rounds), digests[0], {}


def run_workload(mods: dict, args: argparse.Namespace) -> int:
    if args.trace:
        metrics, tallies, rounds, digest, unscaled = traced_run(mods, args.workload, args.seed)
    else:
        metrics, tallies, rounds, digest, unscaled = untraced_run(mods, args.workload, args.seed, args.seconds)
    # tallies[0] holds the measured ops; the others (warm-up, the untraced
    # pass of a traced run) are checked and counted but not reported as timings
    failures = [f for t in tallies for f in t.failures]
    attempted = sum(t.attempted for t in tallies)
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    summary = info(args.workload, args.seed, rounds, tallies[0], digest)
    summary["unscaled"].update(unscaled)
    summary["failed_frac"] = len(failures) / attempted
    summary["failures"] = failures[:5]
    print(json.dumps({"info": summary}))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


# a verify op is one sweep case, so its throughput goes by that name
RENAMED = {"verify": {"ops_per_s": "cases_per_s"}}


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print each metric by name."""
    results, infos = {}, {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        results[name] = json.loads(lines[-1])
        infos[name] = json.loads(lines[-2])["info"]
    metrics = {}
    if not args.trace:
        setup = [results[n]["metrics"].pop("setup_s")["value"] for n in WORKLOADS]
        metrics["setup_s"] = metric(statistics.median(setup), "s")
    for name, result in results.items():
        inf = infos[name]
        for key, value in result["metrics"].items():
            key = RENAMED.get(name, {}).get(key, key)
            metrics[f"{name}.{key}"] = value
        metrics[f"{name}.failed_frac"] = metric(inf["failed_frac"], "ratio")
    for key, value in metrics.items():
        note = ""
        wname, _, short = key.partition(".")
        if short == "tail_ms":
            inf = infos[wname]
            note = f"  (p{inf['tail_percentile']:g}, {inf['tail_beyond']} of {inf['samples']} samples beyond)"
        print(f"{key:48s} {value['value']:>14.6g} {value['unit']}{note}")
    for name, inf in infos.items():
        print(f"{name}.round0_stdout_sha256 {inf['round0_stdout_sha256']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mods = load_package()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(mods, args)


if __name__ == "__main__":
    sys.exit(main())
