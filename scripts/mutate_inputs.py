#!/usr/bin/env python3
"""Seeded input mutator for the tools' external-input readers.

    python3 scripts/mutate_inputs.py --tools BUILD/tools --corpus DIR \
        --seed N --mutants M

Every reader of external bytes must answer a malformed input with a
diagnostic and a nonzero exit, never with a signal or a sanitizer report.
This script takes a corpus the tools emit themselves and feeds each tool M
seeded mutants of its input, round-robin:

    DIR/flood.fly     psc-flight (snapshot decoder)     byte mutations
    DIR/flood.txt     psc-lint --trace= (text trace)     uid, line + byte
    DIR/rw.jsonl      psc-lint --trace= (JSONL trace)    uid, line + byte
    DIR/sweep.cfg     psc-report --sweep= (sweep cfg)    line + byte mutations
    psc-sim flags     flood / rw-clock command lines    flag mutations
    psc-lint flags    --certify= / --trace= lines       flag mutations

A flag mutation misspells, drops or duplicates one --key[=value] token of
a valid command line. A uid mutation (one trace mutant in three) rewrites
every message uid of a trace: a few jump near the top of the 64-bit range,
the order is reversed, or all are spread by a large stride.

A run fails the script when the tool dies by a signal (an uncaught
CheckError ends in SIGABRT), exits with the sanitizer exit code, or prints
a sanitizer report, or when a misspelt flag is not answered with exit
status 2 and a diagnostic naming it. Any other exit status is an answer. A
run that exceeds --timeout seconds is reported and counted but does not
fail: a mutated number can legally ask for a very large run. The mutant
that failed is kept next to the corpus as failure-<n>.<ext> (flag mutants:
failure-<n>.args, one argument per line) so it can be replayed by hand.
"""

import argparse
import os
import random
import re
import subprocess
import sys
from pathlib import Path

SANITIZER_EXIT = 86
SANITIZER_MARKERS = (b"AddressSanitizer", b"LeakSanitizer",
                     b"runtime error:", b"UndefinedBehaviorSanitizer")


def mutate_bytes(data, rng):
    """1-6 byte-level edits: overwrite, bit flip, insert, delete, truncate."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 6)):
        op = rng.randrange(5)
        pos = rng.randrange(len(out) + 1)
        if op == 0 and pos < len(out):
            out[pos] = rng.randrange(256)
        elif op == 1 and pos < len(out):
            out[pos] ^= 1 << rng.randrange(8)
        elif op == 2:
            out[pos:pos] = bytes([rng.choice(b"0123456789-.,:{}\"\n \x00\xff")])
        elif op == 3 and pos < len(out):
            del out[pos]
        elif op == 4 and rng.random() < 0.2:
            del out[pos:]
    return bytes(out)


def mutate_lines(data, rng):
    """A line edit (drop, duplicate, swap, truncate) plus byte edits."""
    lines = data.split(b"\n")
    op = rng.randrange(4)
    i = rng.randrange(len(lines))
    j = rng.randrange(len(lines))
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(j, lines[i])
    elif op == 2:
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    return mutate_bytes(b"\n".join(lines), rng) if rng.random() < 0.7 \
        else b"\n".join(lines)


# A message uid in the text (m:<kind>:<uid>:...) and JSONL ("uid":<n>) forms.
UID_PATTERNS = (re.compile(rb"(m:[^:\s]*:)(\d+)"),
                re.compile(rb'("uid":)(\d+)'))


def mutate_uids(data, rng):
    """Rewrites every message uid: huge, descending or sparse."""
    uids = sorted({int(m.group(2)) for p in UID_PATTERNS
                   for m in p.finditer(data)})
    if not uids:
        return mutate_lines(data, rng)
    op = rng.randrange(3)
    if op == 0:  # huge: one to three uids jump near the top of uint64
        jump = set(rng.sample(uids, min(len(uids), rng.randint(1, 3))))
        remap = {u: rng.randrange(2**40, 2**64) if u in jump else u
                 for u in uids}
    elif op == 1:  # descending: later messages carry smaller uids
        remap = {u: uids[0] + uids[-1] - u for u in uids}
    else:  # sparse: uids spread by a large stride
        stride = rng.choice((1000, 10**6, 10**9, 2**40))
        remap = {u: u * stride % 2**64 for u in uids}

    def sub(m):
        return m.group(1) + str(remap[int(m.group(2))]).encode()

    for p in UID_PATTERNS:
        data = p.sub(sub, data)
    return data


def mutate_trace(data, rng):
    """A uid rewrite one time in three, line + byte edits otherwise."""
    return mutate_uids(data, rng) if rng.randrange(3) == 0 \
        else mutate_lines(data, rng)


def misspell(key, rng):
    """Drops, doubles, swaps or replaces one character of a flag name."""
    while True:
        chars = list(key)
        i = rng.randrange(len(chars))
        op = rng.randrange(4)
        if op == 0 and len(chars) > 1:
            del chars[i]
        elif op == 1:
            chars.insert(i, chars[i])
        elif op == 2 and i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
        else:
            chars[i] = rng.choice("abcdefghijklmnopqrstuvwxyz")
        out = "".join(chars)
        if out != key:
            return out


def mutate_flags(argv, rng):
    """Misspells, drops or duplicates one --key[=value] token of argv.

    Returns the mutated argv and the misspelt flag (None for a drop or a
    duplicate, which leave every remaining flag valid).
    """
    flags = [i for i, tok in enumerate(argv) if tok.startswith("--")]
    i = rng.choice(flags)
    out = list(argv)
    op = rng.randrange(3)
    if op == 0:
        key, sep, value = out[i][2:].partition("=")
        bad = "--" + misspell(key, rng)
        out[i] = bad + sep + value
        return out, bad
    if op == 1:
        del out[i]
    else:
        out.insert(rng.choice(flags + [len(out)]), out[i])
    return out, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tools", required=True, type=Path)
    ap.add_argument("--corpus", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mutants", type=int, default=200)
    ap.add_argument("--timeout", type=float, default=60.0)
    args = ap.parse_args()

    lint_bounds = ["--d1_us=20", "--d2_us=300", "--eps_us=50"]
    targets = [
        ("flood.fly", mutate_bytes,
         lambda p: [args.tools / "psc-flight", p, "--jsonl", "--normalize"]),
        ("flood.txt", mutate_trace,
         lambda p: [args.tools / "psc-lint", f"--trace={p}", *lint_bounds,
                    "--nodes=8"]),
        ("rw.jsonl", mutate_trace,
         lambda p: [args.tools / "psc-lint", f"--trace={p}", *lint_bounds,
                    "--nodes=3"]),
        ("sweep.cfg", mutate_lines,
         lambda p: [args.tools / "psc-report", f"--sweep={p}", "--quiet"]),
    ]
    work = args.corpus / "mutants"
    # Valid command lines whose flags the flag family mutates: every flag
    # here is one its tool's mode reads.
    flag_targets = [
        ("psc-sim flags", [
            [args.tools / "psc-sim", "flood", "--nodes=4", "--d1_us=20",
             "--d2_us=300", "--seed=3", "--lint", "--certify"],
            [args.tools / "psc-sim", "rw-clock", "--nodes=3", "--ops=4",
             "--eps_us=50", "--drift=zigzag", "--write_frac=0.5",
             "--exec-stats"],
        ]),
        ("psc-lint flags", [
            [args.tools / "psc-lint", "--certify=flood", "--nodes=4",
             "--d1_us=20", "--d2_us=300", "--seed=2",
             f"--jsonl={work / 'cert.jsonl'}"],
            [args.tools / "psc-lint", f"--trace={args.corpus / 'rw.jsonl'}",
             *lint_bounds, "--nodes=3", "--slack_ns=0"],
        ]),
    ]
    env = dict(os.environ)
    env["ASAN_OPTIONS"] = f"exitcode={SANITIZER_EXIT}:" + \
        env.get("ASAN_OPTIONS", "")
    env["UBSAN_OPTIONS"] = f"exitcode={SANITIZER_EXIT}:print_stacktrace=1:" + \
        env.get("UBSAN_OPTIONS", "")

    rng = random.Random(args.seed)
    seeds = {name: (args.corpus / name).read_bytes() for name, _, _ in targets}
    work.mkdir(exist_ok=True)
    failures = timeouts = 0
    answers = {}
    families = len(targets) + len(flag_targets)
    for n in range(args.mutants):
        k = n % families
        misspelt = None
        if k < len(targets):
            name, mutate, command = targets[k]
            mutant = work / f"mutant{Path(name).suffix}"
            mutant.write_bytes(mutate(seeds[name], rng))
            cmd = [str(c) for c in command(mutant)]
        else:
            name, bases = flag_targets[k - len(targets)]
            cmd, misspelt = mutate_flags(
                [str(c) for c in rng.choice(bases)], rng)
            mutant = work / "mutant.args"
            mutant.write_text("\n".join(cmd) + "\n")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, env=env,
                                  timeout=args.timeout)
        except subprocess.TimeoutExpired:
            timeouts += 1
            print(f"mutant {n} ({name}): timed out after {args.timeout} s",
                  file=sys.stderr)
            continue
        report = any(m in proc.stderr for m in SANITIZER_MARKERS)
        unnamed = misspelt is not None and (
            proc.returncode != 2 or misspelt.encode() not in proc.stderr)
        if (proc.returncode < 0 or proc.returncode == SANITIZER_EXIT or report
                or unnamed):
            failures += 1
            kept = args.corpus / f"failure-{n}{mutant.suffix}"
            kept.write_bytes(mutant.read_bytes())
            print(f"FAILED mutant {n} ({name}): exit {proc.returncode}, "
                  f"kept as {kept}\n  {' '.join(cmd)}\n"
                  + proc.stderr.decode(errors="replace")[-2000:],
                  file=sys.stderr)
        key = (name, proc.returncode)
        answers[key] = answers.get(key, 0) + 1
    summary = ", ".join(f"{name} exit {code}: {count}"
                        for (name, code), count in sorted(answers.items()))
    print(f"mutate_inputs: {args.mutants} mutants, {failures} failed, "
          f"{timeouts} timed out ({summary})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
