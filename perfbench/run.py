#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds the perfbench Go program from source into .bench_build/
(the Go build cache and temporary files stay there too), then runs it as a
fresh process per repetition until S seconds have passed (at least twice
untraced, once traced).
With --trace 0 it reports the median of every end-to-end metric named in
BENCHMARK.json; setup_s is taken from extra processes that stop at the start
of the timed phase as well as from the repetitions. With --trace 1 each
repetition is an untraced run followed by a traced one, and it reports the
median of every per-layer metric plus bench.trace_overhead, the traced wall
time over the untraced one.

Each process checks its own outputs, and the first one of a run also
checks serve-observed against an unobserved run of the same config; this
script adds that every repetition of one seed produced the same digest. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. Any error
(a failed build, a crashed or timed-out process, an unknown workload) exits
non-zero without printing it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Processes that stop at the start of the timed phase, for setup_s.
SETUP_SAMPLES = 15
# Untraced repetitions per run, at least: paper-quick's peak RSS depends on
# which experiments its two workers happen to overlap, and one repetition
# alone is too noisy.
MIN_REPS = 2
# A cold build compiles the standard library too; the measurement after it
# must end within this many seconds.
BUILD_TIMEOUT_S = 700
DEADLINE_S = 165


class BenchError(Exception):
    pass


def go_env():
    """The environment for go: every file it writes stays in .bench_build."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    for flags in ([], ["-buildvcs=false"]):
        try:
            p = subprocess.run(["go", "build"] + flags + ["-o", BINARY, "."], cwd=HERE, env=go_env(),
                               capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build: {e}")
        # Without a usable git checkout the revision is reported as unknown.
        if p.returncode == 0 or "-buildvcs=false" not in p.stderr:
            break
    if p.returncode != 0:
        raise BenchError(f"build failed:\n{p.stderr}")


def spawn(args, deadline):
    """Run one workload process; return its result with setup_s added."""
    start = time.time()
    try:
        p = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True, text=True,
                           timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: timed out")
    if p.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["timed_start_unix_nano"] / 1e9 - start
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {a.workload!r}")
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()
    deadline = time.monotonic() + DEADLINE_S
    base = ["-workload", a.workload, "-seed", str(a.seed)]
    start = time.monotonic()
    setups = []
    if not a.trace:
        setups = [spawn(base + ["-setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    min_reps = 1 if a.trace else MIN_REPS
    reps_start = time.monotonic()
    # Another repetition starts while one of average length still ends in time.
    while len(plain) < min_reps or (time.monotonic() - start +
                                     (time.monotonic() - reps_start) / len(plain) <= a.seconds):
        # serve-observed's check against an unobserved run needs making once
        # a run: every other repetition must match the first one's digest.
        control = [] if not plain else ["-no-control"]
        plain.append(spawn(base + control, deadline))
        if a.trace:
            traced.append(spawn(base + ["-trace", "-no-control"], deadline))

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r.get("failures", [])]
    # Every repetition of one seed, traced or not, simulates the same thing.
    for r in runs[1:]:
        attempted += 1
        if r["digest"] != runs[0]["digest"]:
            failed += 1
            failures.append(f"digest {r['digest']} differs from {runs[0]['digest']}")

    values, samples = {}, {}
    if a.trace:
        for name in units:
            if name == "bench.trace_overhead":
                values[name] = (statistics.median([r["end_to_end"]["wall_s"] for r in traced]) /
                                statistics.median([r["end_to_end"]["wall_s"] for r in plain]))
            elif name in traced[0]["layers"]:
                values[name] = statistics.median([r["layers"][name] for r in traced])
        extra = set(traced[0]["layers"]) - set(units)
        if extra:
            raise BenchError(f"layer metrics missing from BENCHMARK.json: {sorted(extra)}")
    else:
        for name in units:
            if name == "setup_s":
                samples[name] = setups + [r["setup_s"] for r in plain]
            elif name in plain[0]["end_to_end"]:
                samples[name] = [r["end_to_end"][name] for r in plain]
            if name in samples:
                values[name] = statistics.median(samples[name])
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not reported: {sorted(missing)}")

    m = runs[0]["machine"]
    print(f"machine: cpu={m['cpu']!r} nproc={m['nproc']} gomaxprocs={m['gomaxprocs']} "
          f"go={m['go']} revision={m['revision']} dirty={str(m['dirty']).lower()}")
    print(f"workload {a.workload} seed {a.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"repetitions, {len(setups)} set-up-only; digest {runs[0]['digest']}")
    for name, v in values.items():
        reps = samples.get(name, [])
        shown = " ".join(f"{x:.6g}" for x in reps) if len(reps) <= 5 else f"min {min(reps):.6g} max {max(reps):.6g}"
        print(f"  {name:34s} {v:16.6f} {units[name]:6s}" + (f" median of {len(reps)}: {shown}" if reps else ""))
    if traced:
        print("spans of the first traced repetition (name, parent, count, total s, self s):")
        for s in traced[0].get("spans", []):
            print(f"  {s['name']:30s} {s.get('parent', ''):20s} {s['count']:8d} "
                  f"{s['total_s']:12.6f} {s['self_s']:12.6f}")
    for f in failures:
        print(f"FAILED: {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
