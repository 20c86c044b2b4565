#!/usr/bin/env python3
"""Layer-sensitivity check: does each workload's metric see each layer?

    python3 perfbench/sensitivity.py [--seeds 3] [--seconds 10] [--out FILE]

For every probe below, runs the benchmark with and without the probe on
the same seeds, in alternating pairs, and compares the medians of one
end-to-end metric.  A probe
slows exactly one layer through a public setting or a benchmark-side
decorator (never a program edit).  On the layer's heavy workload the
metric must move by more than its bound in BENCHMARK.json; on the
workload predicted to bypass the layer it must stay within the bound.
Prints a Markdown table (also written to --out) and exits 1 when a
prediction fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (probe, layer, workload, metric, role, baseline probe)
# role "heavy": must move by more than the bound; "bypass": must not.
# Placement probes hook into the benchmark-wired placement, so their
# baseline is that same wiring with no probe ("wired").
PROBES = [
    ("estimate-spin", "diet estimate (+100 ns per SED)", "elect-10k", "latency_p50_ms", "heavy",
     ""),
    ("rank-slow", "green rank (time doubled)", "elect-10k", "latency_p50_ms", "heavy", ""),
    ("rank-slow", "green rank (time doubled)", "elect-batch32-2shard-10k", "throughput_per_s",
     "heavy", ""),
    ("shard-stall", "diet serving engine (1 ms worker stall)", "elect-batch32-2shard-10k",
     "throughput_per_s", "heavy", ""),
    ("shard-stall", "diet serving engine (1 ms worker stall)", "elect-10k", "throughput_per_s",
     "bypass", ""),
    ("des-spin", "des (+3 us per event)", "place-consolidate-48", "throughput_per_s", "heavy",
     "wired"),
    ("check-spin", "green provisioner (+100 us per check)", "place-consolidate-48",
     "throughput_per_s", "heavy", "wired"),
    ("drain-spin", "migrate + durable (+100 ms per drain)", "place-consolidate-48",
     "throughput_per_s", "heavy", "wired"),
    ("no-provisioner", "green provisioner + cluster energy (every node stays on)",
     "place-consolidate-48", "energy_kwh", "heavy", ""),
]


def run(workload, seed, seconds, probe):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    if probe:
        command += ["--perturb", probe]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} {probe or 'baseline'} seed {seed} failed:\n{out.stdout}")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    seeds = range(101, 101 + args.seeds)

    rows = [
        "| probe | layer | workload | metric | role | baseline | probed | change | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    ok_all = True
    for probe, layer, workload, metric, role, base_probe in PROBES:
        # Baseline and probe run in pairs, alternating which goes first, so
        # that host load drifting over minutes hits both sides alike.
        base_values, probe_values = [], []
        for i, seed in enumerate(seeds):
            order = [(base_probe, base_values), (probe, probe_values)]
            for which, values in order if i % 2 == 0 else reversed(order):
                values.append(run(workload, seed, args.seconds, which)[metric]["value"])
        base = statistics.median(base_values)
        probed = statistics.median(probe_values)
        change = (probed - base) / base
        bound = bounds[metric]["bound"]
        worse = -change if bounds[metric]["better"] == "higher" else change
        ok = worse > bound if role == "heavy" else abs(change) <= bound
        ok_all &= ok
        rows.append(f"| {probe} | {layer} | {workload} | {metric} | {role} | {base:.6g} | "
                    f"{probed:.6g} | {change:+.1%} | {bound:.0%} | {'yes' if ok else 'NO'} |")
    table = "\n".join(rows)
    print(table)
    if args.out:
        args.out.write_text(f"Seeds {list(seeds)}, {args.seconds:g} s per run, medians.\n\n"
                            + table + "\n")
    sys.exit(0 if ok_all else 1)


if __name__ == "__main__":
    main()
