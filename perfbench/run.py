#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The Go program in this directory is
built from source into .bench_build/ (its build cache lives there too).

--trace 0 runs the workload's stream REPS times, each repetition in a
fresh process and each --seconds/REPS long, and reports for every
end-to-end metric a trimmed mean over the repetitions: the lowest and
the highest TRIM values are dropped and the rest averaged. On a small
shared machine the speed of one process varies more than the speed
within it (threads that land on different CPUs pay cross-CPU wake-ups)
and the machine has slow spells of several seconds, so a trimmed mean
over many short processes is steadier than one long process.
--trace 1 runs the traced ladder once, in one fresh process, on a
stream TRACE_SHARE of --seconds long: it replays the stream on every
rung, all held in memory at once.

The last line of standard output is the JSON result; attempted and
failed sum over the repetitions. The exit code is nonzero if a build or
a repetition fails or any answer is wrong.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

REPS = 10
TRIM = 2
TRACE_SHARE = 0.4


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout, and never
    # let it reach for another toolchain.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    if subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env).returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    reps = 1 if args.trace else REPS
    seconds = args.seconds * TRACE_SHARE if args.trace else args.seconds / REPS
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    results = []
    for _ in range(reps):
        p = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if not lines or not lines[-1].startswith("{"):
            print(f"run.py: {args.workload} exited {p.returncode} without a result", file=sys.stderr)
            return p.returncode or 1
        results.append(json.loads(lines[-1]))
        if p.returncode != 0:
            print(lines[-1])
            return p.returncode

    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = sorted(r["metrics"][name]["value"] for r in results)
        kept = values[TRIM:len(values) - TRIM] if len(values) > 2 * TRIM else values
        metrics[name] = {"value": statistics.fmean(kept), "unit": m["unit"]}
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
