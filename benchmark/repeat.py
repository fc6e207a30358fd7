#!/usr/bin/env python3
"""Repeat wavebench runs and summarize them against BENCHMARK.json.

    python3 benchmark/repeat.py [--runs K] [--workloads a,b] [--seed N]
                                [--seconds S] [--trace 0|1]
                                [--bin PATH | --ab BIN_A BIN_B]
                                [--json OUT] [--against SUMMARY] [--baseline OUT]

Runs every selected workload K times, run i with seed N + i, through
`python3 benchmark/run.py` (or a prebuilt wavebench binary with --bin).
Prints, per (workload, metric): the median, the quartiles (Python's
statistics.quantiles, n=4), the quartile spread as a share of the median,
max/min, and a verdict against the metric's bound — the spread must stay
within the bound ("steady" when within a third of it; setup_s is exempt).

--ab BIN_A BIN_B interleaves two builds with alternating order (A then B on
even runs, B then A on odd ones, one seed per pair) and also checks B's
median against A's with the bound: the A/B regression rule.

--against SUMMARY compares this set's medians with an earlier --json
summary the same way (do two sets of the same commit agree?).

--baseline OUT writes medians, quartiles and the host block of the first
run's result record: the baseline block of benchmark/README.md.

Standard library only. Exits 1 if any run fails or is incorrect, or if any
verdict fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD = os.path.join(ROOT, ".bench_build")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace):
    """One run; returns (result line dict, result record dict or None)."""
    os.makedirs(BUILD, exist_ok=True)
    record = os.path.join(BUILD, f"repeat-{workload}-{seed}.json")
    if binary is None:
        cmd = [sys.executable, os.path.join(ROOT, "benchmark", "run.py")]
        record = os.path.join(BUILD, f"result-{workload}-trace{trace}.json")
    else:
        cmd = [binary]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if binary is not None:
        cmd += ["--out", record]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    line = json.loads(lines[-1])
    rec = None
    if os.path.isfile(record):
        with open(record) as f:
            rec = json.load(f)
    return line, rec


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "max_over_min": max(values) / min(values) if min(values) else float("inf"),
        "values": values,
    }


def regressed(reference, candidate, bound, better):
    slack = abs(reference) * bound
    if better == "lower":
        return candidate > reference + slack
    return candidate < reference - slack


def collect(args, binary):
    """{workload: {metric: [values]}} plus the first result record."""
    samples = {}
    first_record = None
    for w in args.workloads:
        samples[w] = {}
        for i in range(args.runs):
            seed = args.seed + i
            line, rec = run_once(binary, w, seed, args.seconds, args.trace)
            if not line.get("correct"):
                raise RuntimeError(f"{w} seed {seed}: correct is false")
            first_record = first_record or rec
            for name, m in line["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed}: ok", file=sys.stderr, flush=True)
    return samples, first_record


def collect_ab(args, bin_a, bin_b):
    samples = {"A": {}, "B": {}}
    for w in args.workloads:
        for side in samples:
            samples[side][w] = {}
        for i in range(args.runs):
            seed = args.seed + i
            order = [("A", bin_a), ("B", bin_b)]
            if i % 2:
                order.reverse()
            for side, binary in order:
                line, _ = run_once(binary, w, seed, args.seconds, args.trace)
                if not line.get("correct"):
                    raise RuntimeError(f"{side} {w} seed {seed}: correct is false")
                for name, m in line["metrics"].items():
                    samples[side][w].setdefault(name, []).append(m["value"])
            print(f"  {w} pair {i} (seed {seed}): ok", file=sys.stderr, flush=True)
    return samples


def metric_specs(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in spec[key]}


def print_table(summary, specs):
    ok = True
    header = (f"{'workload':<17} {'metric':<26} {'n':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'max/min':>8} {'bound':>6}  verdict")
    print(header)
    for w, metrics in summary.items():
        for name, s in metrics.items():
            m = specs.get(name, {})
            bound = m.get("bound")
            if bound is None:
                verdict = "-"
            elif name == "setup_s":
                verdict = "exempt"
            elif s["spread"] <= bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "pass"
            else:
                verdict = "FAIL"
                ok = False
            print(f"{w:<17} {name:<26} {s['n']:>3} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>7.3f} {s['max_over_min']:>8.3f} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
    return ok


def compare(reference, candidate, specs, label):
    """The regression rule: candidate medians may not be worse by more than the bound."""
    ok = True
    print(f"\n{label}")
    print(f"{'workload':<17} {'metric':<26} {'reference':>12} {'candidate':>12} {'change':>8} "
          f"{'bound':>6}  verdict")
    for w, metrics in candidate.items():
        for name, s in metrics.items():
            m = specs.get(name)
            ref = reference.get(w, {}).get(name)
            if m is None or "bound" not in m or ref is None:
                continue
            change = (s["median"] - ref["median"]) / ref["median"] if ref["median"] else 0.0
            bad = regressed(ref["median"], s["median"], m["bound"], m["better"])
            ok = ok and not bad
            print(f"{w:<17} {name:<26} {ref['median']:>12.6g} {s['median']:>12.6g} "
                  f"{change:>+8.3f} {m['bound']:>6}  {'REGRESSED' if bad else 'ok'}")
    return ok


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bin")
    parser.add_argument("--ab", nargs=2, metavar=("BIN_A", "BIN_B"))
    parser.add_argument("--json")
    parser.add_argument("--against")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    args.workloads = [w for w in args.workloads.split(",") if w]
    specs = metric_specs(spec, args.trace)

    try:
        if args.ab:
            sides = collect_ab(args, *args.ab)
            summaries = {side: {w: {n: summarize(v) for n, v in ms.items()}
                                for w, ms in per_w.items()}
                         for side, per_w in sides.items()}
            ok = True
            for side in ("A", "B"):
                print(f"\n== {side}: {args.ab[0] if side == 'A' else args.ab[1]}")
                ok = print_table(summaries[side], specs) and ok
            ok = compare(summaries["A"], summaries["B"], specs, "== B against A") and ok
            summary = summaries
        else:
            samples, record = collect(args, args.bin)
            summary = {w: {n: summarize(v) for n, v in ms.items()} for w, ms in samples.items()}
            ok = print_table(summary, specs)
            if args.against:
                with open(args.against) as f:
                    reference = json.load(f)["summary"]
                ok = compare(reference, summary, specs, f"== this set against {args.against}") and ok
            if args.baseline:
                baseline = {
                    "runs": args.runs,
                    "seeds": [args.seed + i for i in range(args.runs)],
                    "seconds": args.seconds,
                    "host": (record or {}).get("host", {}),
                    "metrics": {w: {n: {k: s[k] for k in ("median", "q1", "q3", "spread")}
                                    for n, s in ms.items()} for w, ms in summary.items()},
                }
                with open(args.baseline, "w") as f:
                    json.dump(baseline, f, indent=2)
                    f.write("\n")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"repeat.py: {e}", file=sys.stderr)
        return 1

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": args.runs, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "summary": summary}, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
