#!/usr/bin/env python3
"""Turns a sampler.<pid>.txt file (scripts/sampler.c) into hot-spot tables.

    python3 scripts/symbolize.py sampler.1234.txt [--top 25] [--match REGEX ...]

Each sampled PC is mapped to its module and ELF virtual address through the
/proc/self/maps copy in the file, then resolved with
`addr2line -a -f -C -i`, which also lists the functions inlined at that PC.
Three tables follow, each as a share of all samples:

  - by innermost function: the deepest inlined function at the PC;
  - by source line: that function's file:line;
  - by caller: the function holding the frame-pointer return address, i.e.
    the caller of the sampled (physical) function.

`--match REGEX` (repeatable) adds one line per pattern: the share of samples
whose inline chain contains a function matching it, e.g. `MemoryModel::`
for every sample spent anywhere in the cache model.
"""

import argparse
import collections
import os
import re
import struct
import subprocess
import sys


def parse(path):
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                section = "maps"
            elif line.startswith("# samples"):
                section = "samples"
            elif line.startswith("#"):
                continue
            elif section == "maps":
                parts = line.split()
                if len(parts) >= 6 and "x" in parts[1] and parts[5].startswith("/"):
                    lo, hi = (int(v, 16) for v in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples":
                pc, ret = line.split()
                samples.append((int(pc, 16), int(ret, 16)))
    return maps, samples


_load_cache = {}


def load_segments(module):
    """PT_LOAD (file offset, vaddr, size) triples of an ELF64 file."""
    if module not in _load_cache:
        segs = []
        try:
            with open(module, "rb") as f:
                ident = f.read(64)
                if ident[:4] == b"\x7fELF" and ident[4] == 2:
                    phoff, = struct.unpack_from("<Q", ident, 32)
                    phentsize, phnum = struct.unpack_from("<HH", ident, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for i in range(phnum):
                        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
                            "<IIQQQQ", table, i * phentsize)
                        if p_type == 1:
                            segs.append((p_offset, p_vaddr, p_filesz))
        except OSError:
            pass
        _load_cache[module] = segs
    return _load_cache[module]


def locate(maps, addr):
    """(module, ELF vaddr) of a runtime address, or None outside any file."""
    for lo, hi, off, module in maps:
        if lo <= addr < hi:
            file_off = addr - lo + off
            for p_offset, p_vaddr, size in load_segments(module):
                if p_offset <= file_off < p_offset + size:
                    return module, file_off - p_offset + p_vaddr
            return module, file_off
    return None


def resolve(per_module):
    """{(module, vaddr): [(function, file:line), ...]} innermost first."""
    out = {}
    for module, addrs in per_module.items():
        addrs = sorted(addrs)
        p = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", module],
                           input="".join(f"{a:#x}\n" for a in addrs),
                           stdout=subprocess.PIPE, text=True)
        chain, cur = [], None
        lines = p.stdout.splitlines()
        i = 0
        while i < len(lines):
            if re.fullmatch(r"0x[0-9a-f]+", lines[i]):
                if cur is not None:
                    out[(module, cur)] = chain
                cur, chain = int(lines[i], 16), []
                i += 1
            else:
                func = lines[i]
                loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
                chain.append((func, re.sub(r" \(discriminator \d+\)", "", loc)))
                i += 2
        if cur is not None:
            out[(module, cur)] = chain
    return out


def short_module(module):
    return os.path.basename(module)


def table(title, counts, total, top):
    print(f"\n== {title} ({total} samples)")
    for key, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.2f}%  {n:7d}  {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("file")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--match", action="append", default=[])
    args = ap.parse_args()

    maps, samples = parse(args.file)
    if not samples:
        sys.exit(f"{args.file}: no samples")
    # Return addresses point after the call; ret - 1 lies inside it.
    wanted = collections.defaultdict(set)
    located = []
    for pc, ret in samples:
        at = locate(maps, pc)
        caller = locate(maps, ret - 1) if ret else None
        for loc in (at, caller):
            if loc is not None:
                wanted[loc[0]].add(loc[1])
        located.append((at, caller))
    chains = resolve(wanted)

    by_func, by_line, by_caller = (collections.Counter() for _ in range(3))
    matched = collections.Counter()
    patterns = [re.compile(m) for m in args.match]
    for at, caller in located:
        chain = chains.get(at) if at else None
        if not chain:
            name = short_module(at[0]) if at else "[unknown]"
            chain = [(f"?? ({name})", "??:0")]
        func, line = chain[0]
        by_func[func] += 1
        by_line[f"{line}  [{func[:60]}]"] += 1
        cchain = chains.get(caller) if caller else None
        by_caller[cchain[0][0] if cchain else "[no frame]"] += 1
        for pat in patterns:
            if any(pat.search(f) for f, _ in chain):
                matched[pat.pattern] += 1

    total = len(samples)
    table("by innermost function", by_func, total, args.top)
    table("by source line", by_line, total, args.top)
    table("by caller (frame-pointer return address)", by_caller, total, args.top)
    if patterns:
        print(f"\n== inline chain contains ({total} samples)")
        for pat in patterns:
            n = matched[pat.pattern]
            print(f"{100.0 * n / total:6.2f}%  {n:7d}  {pat.pattern}")


if __name__ == "__main__":
    main()
