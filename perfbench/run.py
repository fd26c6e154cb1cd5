#!/usr/bin/env python3
"""Build and run the PARFAIT benchmark.

One workload per process:

    python3 perfbench/run.py --workload fleet-mig --seed 1 --seconds 30 --trace 0

builds `perfbench/` (a Cargo package of its own) in release mode and runs
it with the same arguments. The build goes to `$CARGO_TARGET_DIR`, or to
`.bench_build/` at the root of the checkout when that is unset. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.

Stability mode runs every workload of `BENCHMARK.json` N times,
interleaved, on one seed (1, or `--seed`) for `run_seconds` each, and
prints the median, quartiles, minimum and maximum of every end-to-end
metric, with the quartile spread as a share of the median next to the
metric's bound. It then checks that the sim metrics and the failed share
were identical in every run of a workload, and exits 1 if not or if a run
failed:

    python3 perfbench/run.py --stability 10 [--seed 1]

It prints to standard output only and writes no file.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = "parfait-perfbench"


def build():
    """Build the benchmark; return the binary's path or exit non-zero."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        sys.exit(3)
    if done.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        sys.exit(3)
    return os.path.join(target, "release", BIN)


def flag(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 >= len(args):
            sys.exit(f"error: {name} needs a value")
        return args[i + 1]
    return default


def stability(binary, args):
    n = int(flag(args, "--stability", "10"))
    seed = flag(args, "--seed", "1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        cfg = json.load(f)
    seconds = str(cfg["run_seconds"])
    workloads = [w["name"] for w in cfg["workloads"]]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    ok = True
    for i in range(n):
        for w in workloads:
            cmd = [binary, "--workload", w, "--seed", seed,
                   "--seconds", seconds, "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{w} run {i + 1}: exit {done.returncode}", flush=True)
                ok = False
                continue
            res = json.loads(lines[-1])
            shares[w].add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} run {i + 1}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
    print()
    print(f"seed {seed}, {n} runs of {seconds} s per workload")
    print(f"{'workload':16} {'metric':28} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vs in values[w].items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:16} {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(vs):12.6g} {max(vs):12.6g} {spread:8.4f} "
                  f"{bounds.get(name, ''):>6}")
        sim = {k: v for k, v in values[w].items() if k.startswith("sim_")}
        same = all(len(set(vs)) == 1 for vs in sim.values())
        same = same and len(shares[w]) == 1
        print(f"{w:16} sim metrics and failed share identical in every run: "
              f"{'yes' if same else 'NO'} (failed share "
              f"{', '.join(f'{x:.6g}' for x in sorted(shares[w]))})")
        ok = ok and same
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    binary = build()
    if "--stability" in args:
        return stability(binary, args)
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
