#!/usr/bin/env python3
"""The repository benchmark: one command, three checked workloads.

  python3 perfbench/run.py --workload reports|prove_churn|discover_onboard \\
      --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark binary from
source (Release) into $CARGO_TARGET_DIR, or .bench_build when unset, runs
one workload in a closed loop for S seconds and prints a readable report
followed, as the last line, by one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
declares; with --trace 1 they are its per-layer metrics, measured in a run
that alternates untraced and traced blocks (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, HERE)
import summarize_trace  # noqa: E402

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark binary; returns the binary path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: the benchmark builds the program "
                 "from the checkout's sources")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "od_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, "od_perfbench")


def source_context():
    """Commit when the checkout is a git repository, and always a digest of
    the sources the program is built from."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files.extend(os.path.join(base, n) for n in sorted(names))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


# Program spans whose self time and critical-path share are reported.
PROGRAM_SPANS = (
    "service.plan", "service.execute", "service.prove_all", "service.apply",
    "service.open_session", "service.publish", "planner.plan", "plan.execute",
    "exchange.fragment", "sort.spill_run", "thread_pool.task",
    "thread_pool.chunk", "prover.search", "prover.memo_sweep",
    "discovery.level", "service.prove_batch")
LAYER_ROOTS = ("service.plan", "service.execute", "service.proveall",
               "service.apply", "discovery.discover")


def trace_metrics(summary):
    """The summarizer's figures under their per-layer metric names."""
    out = {}
    roots, spans = summary["roots"], summary["spans"]
    for name in LAYER_ROOTS:
        r = roots.get(name, {})
        out[f"span.{name}.busy_lanes"] = (r.get("busy_lanes", 0.0), "lanes")
        out[f"span.{name}.lanes"] = (r.get("lanes", 0), "count")
    for name in ("setup.generate", "setup.index"):
        out[f"span.{name}.wall_ms"] = (roots.get(name, {}).get("wall_ms", 0.0),
                                       "ms")
    for side in ("od", "blind"):
        keys = [k for k in summary["labels"]
                if k.startswith("service.execute daily_sales")
                and k.endswith("@" + side)]
        busy = summary["labels"][keys[0]]["busy_lanes"] if keys else 0.0
        out[f"span.daily_sales.{side}.busy_lanes"] = (busy, "lanes")
    out["span.root.crit_share"] = (summary["root_crit_share"], "1")
    for name in PROGRAM_SPANS:
        s = spans.get(name, {})
        out[f"span.{name}.self_ms"] = (s.get("self_ms", 0.0), "ms")
        out[f"span.{name}.crit_share"] = (s.get("crit_share", 0.0), "1")
    for name in ("exchange.fragment", "thread_pool.task"):
        out[f"span.{name}.lanes"] = (spans.get(name, {}).get("lanes", 0),
                                     "count")
    return out


def report(result, metrics, commit, digest, summary):
    """The readable part of the output, before the result line."""
    ctx = dict(result["context"], commit=commit, source_sha256=digest)
    print("context " + json.dumps(ctx, sort_keys=True))
    print(f"workload {result['workload']}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for m in result["extra"]:
        print(f"  {m['name']:<44} {m['value']:>16.6g} {m['unit']}  (not gated)")
    for c in result["counts"]:
        kind = "exact" if c["exact"] else "inexact"
        print(f"  count {c['name']:<38} {c['value']:>16.6g} per request  "
              f"{kind:<7} replay spread {c['replay_spread']:.3g}")
    if summary is not None:
        for key, v in sorted(summary["labels"].items()):
            print(f"  trace {key:<50} busy lanes {v['busy_lanes']:.2f}")
    for note in result["notes"]:
        print("  note: " + note)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reports", "prove_churn", "discover_onboard"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                        help="self-test: falsify every checked answer")
    args = parser.parse_args()

    binary = build()
    end_to_end, per_layer = declared_metrics()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", str(args.corrupt)]
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(build_dir(), "trace",
                                 f"{args.workload}-{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        cmd += ["--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"benchmark binary exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])

    measured = {m["name"]: (m["value"], m["unit"]) for m in
                result["per_layer" if args.trace else "end_to_end"]}
    summary = None
    if args.trace:
        summary = summarize_trace.summarize(trace_dir)
        measured.update(trace_metrics(summary))
    metrics, missing = {}, []
    for m in (per_layer if args.trace else end_to_end):
        if m["name"] in measured:
            value = measured[m["name"]][0]
        elif args.trace:
            value = 0  # the layer is not exercised by this workload
            missing.append(m["name"])
        else:
            fail(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        result["notes"].append("not exercised here, reported as 0: " +
                               ", ".join(missing))

    report(result, metrics, *source_context(), summary)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
