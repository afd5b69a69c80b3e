"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tpcc-oltp --runs 10 --seconds 30

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), and it checks that the share of
failed operations is the same in every run. Run it from the root of a
checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    values, shares = {}, set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-3000:]))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        shares.add((res["failed"] * 10**9) // res["attempted"])
        print("seed %d: correct=%s failed=%d attempted=%d %s" % (
            seed, res["correct"], res["failed"], res["attempted"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
            flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print("failed share per run (x1e9):", sorted(shares))
    for k, xs in sorted(values.items()):
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
        print("%-32s median %14.6g  iqr/median %.4f" % (k, med, (q[2] - q[0]) / med if med else 0.0))


if __name__ == "__main__":
    main()
