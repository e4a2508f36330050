#!/usr/bin/env python3
"""Read a sigprof.so output file: where the samples are, and what is under a function.

    report.py sigprof.out                  self shares by symbol, inlined function, file, line
    report.py sigprof.out --under REGEX    inclusive share of frames matching REGEX, and
                                           what those samples were in directly beneath it
    report.py sigprof.out --callers REGEX [--depth N]
                                           for samples whose leaf matches REGEX, the first N
                                           frames above the matching run (who called it)
    report.py sigprof.out --pcs N          the N most sampled instructions, each with its
                                           line and inlined frames

Every distinct PC of the profiled executable goes through `addr2line -i -f -C` once, so a
sample's stack is its physical frames with their inlined frames expanded (build with
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only). PCs in other mappings (libc) are named by
their file, e.g. `[libc.so.6]`; their caller is the next frame of the stack.

`llvm-addr2line` is used when it is on PATH, and the first line of the output names the
symboliser, because the two attribute inlined frames differently: GNU addr2line (2.40) names
the innermost inlined frame of a PC after the enclosing symbol, which hides a function whose
own code was sampled; with it that one frame is named `<file:line>` instead.
"""
import argparse
import collections
import os
import re
import shutil
import subprocess
import sys

# What rustc's legacy mangling leaves in a name llvm-addr2line took from the symbol table.
ESCAPES = {"$LT$": "<", "$GT$": ">", "$u20$": " ", "$C$": ",", "..": "::"}
ROWS = 15  # printed per table


def load(path):
    maps, stacks = [], []
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "map":
            f = rest.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, f[5]))
        elif kind == "stack":
            pcs = [int(x, 16) for x in rest.split()]
            # [interrupted PC, handler, trampoline, ..., interrupted PC, callers...]:
            # keep from the PC's second occurrence (the whole list when it has none).
            again = pcs.index(pcs[0], 1) if pcs[0] in pcs[1:] else 0
            stacks.append(pcs[again:])
    return maps, stacks


def symbolise(exe, base, pcs):
    """{pc: [(function, file, line), ...]}, innermost inlined frame first, and the tool used."""
    pcs = sorted(pcs)
    llvm = shutil.which("llvm-addr2line")
    tool = "llvm-addr2line" if llvm else "addr2line"
    out = subprocess.run([tool, "-a", "-i", "-f", "-C", "-e", exe],
                         input="\n".join(hex(pc - base) for pc in pcs),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    table, at, i = {}, -1, 0
    while i < len(out):
        if out[i].startswith("0x"):
            at += 1
            table[pcs[at]] = []
            i += 1
            continue
        name = re.sub(r"^_(?=\$LT\$)|::h[0-9a-f]{16}( \(\.llvm\.\d+\))?$", "", out[i])
        for escape, char in ESCAPES.items():
            name = name.replace(escape, char)
        where, _, line = out[i + 1].split(" ")[0].rpartition(":")
        where = where.removeprefix(os.getcwd() + "/")
        table[pcs[at]].append((name, where, line))
        i += 2
    if not llvm:
        for frames in table.values():
            if len(frames) > 1:
                frames[0] = (f"<{frames[0][1]}:{frames[0][2]}>",) + frames[0][1:]
    return table, tool


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--under", metavar="REGEX")
    ap.add_argument("--callers", metavar="REGEX")
    ap.add_argument("--depth", type=int, default=1, metavar="N")
    ap.add_argument("--pcs", type=int, metavar="N")
    args = ap.parse_args()

    maps, stacks = load(args.profile)
    exe = maps[0][2]  # the kernel lists the executable's own mappings first
    base = min(lo for lo, _, path in maps if path == exe)

    def mapping(pc):
        return next((path for lo, hi, path in maps if lo <= pc < hi), "?")

    # Callers are return addresses: look up the byte before, inside the call itself.
    lookups = {(pc if i == 0 else pc - 1) for s in stacks for i, pc in enumerate(s)}
    table, tool = symbolise(exe, base, {pc for pc in lookups if mapping(pc) == exe})

    def expand(stack):
        """The sample's frames, leaf first, inlined frames expanded."""
        frames = []
        for i, pc in enumerate(stack):
            pc = pc if i == 0 else pc - 1
            frames += table.get(pc) or [("[%s]" % os.path.basename(mapping(pc)), "?", "0")]
        return frames

    samples = [expand(s) for s in stacks]
    total = len(samples)
    print(f"{total} samples from {exe} ({tool})")

    def show(title, counts, of):
        print(f"\n{title}")
        for key, n in counts.most_common(ROWS):
            print(f"  {100 * n / of:5.1f} %  {n:6d}  {key}")

    if args.under:
        rx = re.compile(args.under)
        children, hits = collections.Counter(), 0
        for frames in samples:
            # Outermost matching frame; its child is the frame one step toward the leaf.
            at = next((i for i in range(len(frames) - 1, -1, -1) if rx.search(frames[i][0])), None)
            if at is not None:
                hits += 1
                children[frames[at - 1][0] if at > 0 else "[self]"] += 1
        print(f"under {args.under}: {hits} / {total} samples = {100 * hits / max(total, 1):.1f} %")
        show(f"directly beneath {args.under} (share of the process)", children, total)
        return

    if args.callers:
        rx = re.compile(args.callers)
        chains, hits = collections.Counter(), 0
        for frames in samples:
            if not rx.search(frames[0][0]):
                continue
            hits += 1
            # Past the leaf's run of matching frames, the first N that do not match.
            i = next((i for i, f in enumerate(frames) if not rx.search(f[0])), len(frames))
            chains[" <- ".join(f[0] for f in frames[i:i + args.depth]) or "[no caller]"] += 1
        print(f"leaf {args.callers}: {hits} / {total} samples = {100 * hits / max(total, 1):.1f} %")
        show(f"first {args.depth} frame(s) above it (share of the process)", chains, total)
        return

    if args.pcs:
        print(f"\ntop {args.pcs} sampled instructions: offset, line, inlined frames (leaf first)")
        for pc, n in collections.Counter(s[0] for s in stacks).most_common(args.pcs):
            frames = expand([pc])
            at = hex(pc - base) if mapping(pc) == exe else frames[0][0]
            chain = " <- ".join(f[0] for f in frames)
            print(f"  {100 * n / total:5.1f} %  {n:6d}  {at}  {frames[0][1]}:{frames[0][2]}  {chain}")
        return

    # A PC's last frame is the symbol it is physically in; the ones before were inlined.
    outer = [(table.get(s[0]) or expand(s[:1]))[-1][0] for s in stacks]
    show("self, by outer symbol", collections.Counter(outer), total)
    show("self, by inlined function", collections.Counter(s[0][0] for s in samples), total)
    show("self, by file", collections.Counter(s[0][1] for s in samples), total)
    show("self, by line", collections.Counter(f"{s[0][1]}:{s[0][2]}" for s in samples), total)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # inside the try: a reader gone by now is not an error either
    except BrokenPipeError:
        # The reader (`| head`) is gone: say nothing more, not even at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
