#!/usr/bin/env python3
"""End-to-end simulator benchmark: builds psc-perfbench and runs one workload.

    python3 perfbench/run.py --workload flood_ring|register_clock|register_mmt \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout. On first use it builds the library
sources under src/ together with perfbench/main.cpp into
.bench_build/perfbench (CMake, Release).

A run covers INPUTS[workload] input seeds derived from --seed; input 0 is
--seed itself. Each input runs in a process of its own for an equal share of
--seconds, repeating the whole simulation (setup, run, verify, teardown) as
often as fits, so peak RSS belongs to that workload alone. Timings are
medians over every iteration of the run; values of the modelled system
(`_sim_`, counts) are medians over the inputs.

For the register workloads a separate process first checks, outside any
timing, that the benchmark's own assembly produces the same op history and
event count as the library's harness (run_rw_clock / run_rw_mmt) at --seed.

stdout: one simulated-output digest line per input and one for the run, then
a JSON object {"correct", "attempted", "failed", "metrics"} as the last line:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
--trace 1 alternates plain and traced iterations on the same input; the
traced ones attach the executor's Profiler and a benchmark-owned Probe, and
their spans are written to .bench_build/perfbench/spans-<workload>-<seed>.json.

fail_frac is the add-one estimate (failed + 1) / (attempted + 1) of the
failed share of one iteration's operations, at the worst iteration:
1 / (attempted + 1) means nothing failed, and one failure doubles it. The
raw counts are the top-level "attempted" and "failed".
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "psc-perfbench"
# Inputs per run: enough that input-to-input variation (checker states,
# event counts) averages out of the medians.
INPUTS = {"flood_ring": 2, "register_clock": 5, "register_mmt": 5}
PROCESS_TIMEOUT_S = 150


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "runtime" / "executor.hpp").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                print("\n".join(log.read_text().splitlines()[-30:]), file=sys.stderr)
                die(f"build failed: {' '.join(cmd)} (log in {log})")


def run(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(cmd)}")
    return proc


def input_seed(seed, j):
    return seed ^ ((j * 0x9E3779B97F4A7C15) & (2**64 - 1))


# --- record accessors ---------------------------------------------------------

def span(r, name):
    for s in r["spans"]:
        if s["name"] == name:
            return s["end_s"] - s["start_s"]
    raise KeyError(name)


def ratio(num, den):
    return num / den if den else 0.0


def per_event(key):
    return lambda r: ratio(r["stats"][key], r["events"])


def phase_ns(phase):
    return lambda r: ratio(r["profile"]["phases"].get(phase, 0.0),
                           r["profile"]["events"])


def kind_layer(workload, kind):
    """Layer whose machine owns an action kind on this workload."""
    if workload == "flood_ring":
        return "channel" if kind == "RECVMSG" else "algos"
    if kind == "ERECVMSG":
        return "channel"
    if kind in ("ESENDMSG", "RECVMSG"):
        return "transform"
    if kind in ("TICK", "MMTSTEP"):
        return "mmt"
    return "rw"


def layer_step_ns(workload, layer):
    def f(r):
        p = r["profile"]
        ns = sum(v for k, v in p["kinds"].items()
                 if kind_layer(workload, k) == layer)
        return ratio(ns, p["events"])
    return f


def covered(r):
    parts = ("setup", "run", "verify", "teardown")
    return ratio(sum(span(r, s) for s in parts), span(r, "iteration"))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer(w, sets):
    """Per-layer metrics: (name, unit, sample set, value of one record).

    Sample sets: "plain" = every untraced iteration (host time), "traced" =
    every traced iteration, "inputs" = the first untraced iteration of each
    input (work counts and simulated values, which depend only on the input).
    """
    wall = lambda r: span(r, "iteration")
    rows = [
        ("runtime.assemble_s", "s", "plain", lambda r: span(r, "assemble")),
        ("runtime.bytes_per_machine", "B/machine", "traced", lambda r: r["bytes_per_machine"]),
        ("runtime.run_s", "s", "plain", lambda r: span(r, "run")),
        ("runtime.events", "count", "inputs", lambda r: r["events"]),
        ("runtime.repolls_per_event", "1/event", "inputs", per_event("dirty_repolls")),
        ("runtime.stale_drops_per_event", "1/event", "inputs", per_event("stale_drops")),
        ("runtime.cascades_per_event", "1/event", "inputs", per_event("cascades")),
        ("runtime.time_advances_per_event", "1/event", "inputs", per_event("time_advances")),
        ("runtime.cache_hit_rate", "ratio", "inputs",
         lambda r: ratio(r["stats"]["cand_cache_hits"],
                         r["stats"]["cand_cache_hits"] + r["stats"]["dirty_repolls"])),
        ("runtime.kind_memo_hit_rate", "ratio", "inputs", per_event("kind_memo_hits")),
        ("runtime.teardown_s", "s", "plain", lambda r: span(r, "teardown")),
        ("traced.runtime.cold_start_s", "s", "traced", lambda r: r["cold_start_s"]),
    ] + [
        (f"traced.runtime.{ph}_ns", "ns/event", "traced", phase_ns(ph))
        for ph in ("advance", "poll", "pick", "route", "step", "record")
    ] + [
        ("clock.generate_s", "s", "plain", lambda r: span(r, "clock")),
        ("clock.segments", "count", "inputs", lambda r: r["segments"]),
        ("channel.messages", "count", "inputs", lambda r: r["messages"]),
        ("traced.channel.step_ns", "ns/event", "traced", layer_step_ns(w, "channel")),
        ("transform.buffered_frac_sim", "ratio", "inputs",
         lambda r: ratio(r["buffered"], r["received"])),
        ("traced.transform.step_ns", "ns/event", "traced", layer_step_ns(w, "transform")),
        ("mmt.ticks_per_op", "1/op", "inputs", lambda r: ratio(r["ticks"], r["completed"])),
        ("traced.mmt.step_ns", "ns/event", "traced", layer_step_ns(w, "mmt")),
        ("rw.check_s", "s", "plain", lambda r: span(r, "check")),
        ("rw.check_states", "count", "inputs", lambda r: r["check_states"]),
        ("rw.check_ns_per_state", "ns/state", "plain",
         lambda r: 1e9 * span(r, "check") / max(r["check_states"], 1)),
        ("rw.read_p99_sim_us", "sim_us", "inputs", lambda r: r["read_p99_ns"] / 1e3),
        ("rw.write_p99_sim_us", "sim_us", "inputs", lambda r: r["write_p99_ns"] / 1e3),
        # On flood_ring min_slack_ns is the flood's COMPLETE margin instead.
        ("rw.min_bound_slack_sim_us", "sim_us", "inputs",
         lambda r: 0.0 if w == "flood_ring" else r["min_slack_ns"] / 1e3),
        ("traced.rw.step_ns", "ns/event", "traced", layer_step_ns(w, "rw")),
        ("algos.flood_safe_s", "s", "plain", lambda r: span(r, "flood_safe")),
        ("traced.algos.step_ns", "ns/event", "traced", layer_step_ns(w, "algos")),
        ("analysis.lint_s", "s", "plain", lambda r: span(r, "lint")),
        ("analysis.certify_s", "s", "plain", lambda r: span(r, "certify")),
        ("analysis.errors", "count", "inputs", lambda r: r["analysis_errors"]),
        ("traced.analysis.lint_ns", "ns/event", "traced", phase_ns("lint")),
        ("traced.obs.probe_ns", "ns/event", "traced", phase_ns("probe")),
        ("traced.obs.flight_ns", "ns/event", "traced", phase_ns("flight")),
        ("obs.flight_records", "count", "inputs", lambda r: r["flight_records"]),
        ("obs.prof_coverage", "ratio", "traced",
         lambda r: ratio(sum(r["profile"]["phases"].values()), r["profile"]["cpu_ns"])),
        ("obs.span_coverage", "ratio", "traced", covered),
    ]
    out = {name: {"value": median([f(r) for r in sets[sample]]), "unit": unit}
           for name, unit, sample, f in rows}
    overhead = ratio(median([wall(r) for r in sets["traced"]]),
                     median([wall(r) for r in sets["plain"]])) - 1.0
    out["obs.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    return out


def end_to_end(sets, peaks):
    plain = sets["plain"]
    return {
        "wall_s": {"value": median([span(r, "iteration") for r in plain]), "unit": "s"},
        "setup_s": {"value": median([span(r, "setup") for r in plain]), "unit": "s"},
        "events_per_s": {"value": median([ratio(r["events"], span(r, "run")) for r in plain]),
                         "unit": "1/s"},
        "peak_rss_mb": {"value": median(peaks), "unit": "MB"},
        "fail_frac": {"value": max((r["failed"] + 1) / (r["attempted"] + 1)
                                   for r in plain + sets["traced"]),
                      "unit": "ratio"},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INPUTS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        die("--seed must be in [0, 2^64) and --seconds positive")

    build()
    w = args.workload
    correct = True
    if w != "flood_ring":
        eq = run([str(BINARY), "--workload", w, "--seed", str(args.seed),
                  "--equivalence"])
        sys.stdout.write(eq.stdout)
        correct = eq.returncode == 0

    k = INPUTS[w]
    records, inputs, peaks = [], [], []
    for j in range(k):
        cmd = [str(BINARY), "--workload", w, "--seed", str(input_seed(args.seed, j)),
               "--seconds", str(args.seconds / k), "--trace", str(args.trace)]
        proc = run(cmd)
        if proc.returncode != 0:
            die(f"{' '.join(cmd)} exited with {proc.returncode}")
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        if len(lines) < 2 or "process" not in lines[-1]:
            die(f"{' '.join(cmd)} printed no complete result")
        peaks.append(lines[-1]["process"]["peak_rss_mb"])
        recs = [line["iteration"] for line in lines[:-1]]
        inputs.append(recs[0])  # the first iteration is always untraced
        records += recs

    # Outcome checks, and the modelled system must depend only on the input:
    # every iteration of one input, traced or not, has the same digest.
    digests = {}
    for r in records:
        for p in r["problems"]:
            print(f"FAILED {w} input_seed={r['input']}: {p}", file=sys.stderr)
            correct = False
        if r["traced"] and r["probe_events"] != r["events"]:
            print(f"FAILED {w}: benchmark probe saw {r['probe_events']} of "
                  f"{r['events']} events", file=sys.stderr)
            correct = False
        if digests.setdefault(r["input"], r["digest"]) != r["digest"]:
            print(f"FAILED {w} input_seed={r['input']}: simulated output "
                  "differs between iterations", file=sys.stderr)
            correct = False

    sets = {
        "plain": [r for r in records if not r["traced"]],
        "traced": [r for r in records if r["traced"]],
        "inputs": inputs,
    }
    run_digest = hashlib.sha256()
    for r in inputs:
        ops = r["attempted"] - r["failed"] if w == "flood_ring" else r["completed"]
        print(f"digest {w} input_seed={r['input']}: {r['digest']} "
              f"events={r['events']} ops={ops} "
              f"read_p99_sim_us={r['read_p99_ns'] / 1e3:.3f} "
              f"write_p99_sim_us={r['write_p99_ns'] / 1e3:.3f} "
              f"buffered={r['buffered']} "
              f"min_slack_sim_us={r['min_slack_ns'] / 1e3:.3f}")
        run_digest.update(r["digest"].encode())
    print(f"digest {w} seed={args.seed}: {run_digest.hexdigest()[:16]} "
          f"over {k} inputs")

    if args.trace:
        spans = [{"input_seed": r["input"], "spans": r["spans"]}
                 for r in sets["traced"]]
        out = BUILD / f"spans-{w}-{args.seed}.json"
        out.write_text(json.dumps(spans, indent=1) + "\n")
        metrics = per_layer(w, sets)
    else:
        metrics = end_to_end(sets, peaks)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
