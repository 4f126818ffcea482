#!/usr/bin/env python3
"""Stack-sampling profile of one command, by function.

    python3 tools/profile.py -- COMMAND [ARG...]

perfbench's per-layer spans stop at layer boundaries; this shows where the
time goes inside a layer.  The tool builds tools/profile_sampler.cpp into
.bench_build/profile/ with the host g++ (again whenever the source is newer
than the build), runs COMMAND with the sampler in LD_PRELOAD (4000 samples
per second), and symbolizes the command's own samples with batched
`addr2line -a -f -i -C`.
Processes the command starts are sampled too but not reported: profile
the program itself, e.g. perfbench's Release binary

    python3 tools/profile.py -- .bench_build/perfbench/mcnet_perfbench \\
        --workload reliable_faults --seed 1 --seconds 2

It prints the top 40 functions twice, by inclusive share (samples with the
function anywhere on the stack) and by self share (samples the function
was running).  Frames in the C and C++ runtime libraries, and frames of the
global operator new and operator delete wherever they are defined (perfbench
replaces them in its own binary to count allocations), are charged to the
first program frame that called them, so an allocation shows up in the
function that asked for it.  A build without debug information resolves
through symbol-table names, and then inlined callees are charged to their
caller; with debug information the tool does the same, naming the
function that holds the code.

Exit status: the command's, or non-zero when the sampler cannot be built
or the command recorded no samples.
"""

import collections
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "tools" / "profile_sampler.cpp"
BUILD_DIR = ROOT / ".bench_build" / "profile"
LIBRARY = BUILD_DIR / "profile_sampler.so"
TOP = 40  # functions per table
USAGE = "usage: python3 tools/profile.py -- COMMAND [ARG...]"

# Shared objects whose frames are charged to the first program frame above
# them: the C and C++ runtimes, the dynamic loader and the sampler itself.
RUNTIME = re.compile(r"^(libc|libm|libstdc\+\+|libgcc_s|libpthread|libdl|librt|ld-linux"
                     r"|ld64|profile_sampler)[.-]")
# Allocation entry points, charged to their caller like runtime frames even
# when the program defines them itself.
ALLOCATOR = re.compile(r"^operator (new|delete)\b")
ADDRESS = re.compile(r"^0x[0-9a-f]+$")


def build_sampler():
    if LIBRARY.is_file() and LIBRARY.stat().st_mtime >= SOURCE.stat().st_mtime:
        return
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    cmd = ["g++", "-std=c++17", "-O2", "-fPIC", "-shared", "-o", str(LIBRARY), str(SOURCE),
           "-lrt"]
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        sys.exit(f"profile: building {SOURCE.name} failed")


def read_profile(path):
    """(hz, samples, dropped, stacks, mappings) from one sampler output file."""
    lines = path.read_text().splitlines()
    header = lines[0].split()
    if header[0] != "mcnet-profile-v1":
        sys.exit(f"profile: {path} is not a sampler profile")
    fields = dict(zip(header[1::2], header[2::2]))
    split = lines.index("maps")
    # Every frame but the interrupted pc is a return address: step back
    # into the call instruction so the caller's line is the one named.
    stacks = []
    for line in lines[1:split]:
        addresses = [int(a, 16) for a in line.split()]
        stacks.append(addresses[:1] + [a - 1 for a in addresses[1:]])
    mappings = []
    for line in lines[split + 1:]:
        parts = line.split(maxsplit=5)
        if len(parts) < 6 or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        mappings.append((start, end, int(parts[2], 16), parts[1], parts[5]))
    return int(fields["hz"]), int(fields["samples"]), int(fields["dropped"]), stacks, mappings


def elf_is_executable(path):
    """True for a fixed-address (ET_EXEC) ELF file, whose addresses are absolute."""
    with open(path, "rb") as f:
        header = f.read(18)
    return len(header) == 18 and header[16] == 2 and header[17] == 0


class Symbolizer:
    """Maps runtime addresses to (object name, function) through addr2line."""

    def __init__(self, mappings):
        self.mappings = sorted(m for m in mappings if "x" in m[3])
        # Load base of each object: where its file offset 0 sits in memory.
        self.base = {}
        for start, _, offset, _, path in sorted(mappings):
            self.base.setdefault(path, start - offset)

    def locate(self, address):
        for start, end, _, _, path in self.mappings:
            if start <= address < end:
                return path
        return None

    def resolve(self, addresses):
        """{address: (object basename, function)} for every address."""
        by_object = collections.defaultdict(set)
        names = {}
        for address in addresses:
            path = self.locate(address)
            if path is None or not os.path.exists(path):
                names[address] = ("?", f"0x{address:x}")
            else:
                by_object[path].add(address)
        for path, group in by_object.items():
            absolute = elf_is_executable(path)
            base = 0 if absolute else self.base[path]
            ordered = sorted(group)
            query = "\n".join(f"0x{a - base:x}" for a in ordered) + "\n"
            out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path],
                                 input=query, capture_output=True, text=True).stdout
            functions = []
            for line in out.splitlines():
                if ADDRESS.match(line):
                    functions.append([])
                elif functions:
                    functions[-1].append(line)
            obj = os.path.basename(path)
            for address, lines in zip(ordered, functions):
                # Function/location pairs, innermost inlined frame first; the
                # last pair names the function that holds the code.
                function = lines[-2] if len(lines) >= 2 else "??"
                if function == "??":
                    function = f"{obj}+0x{address - base:x}"
                names[address] = (obj, function)
        return names


def report(stacks, names):
    inclusive = collections.Counter()
    own = collections.Counter()
    for stack in stacks:
        frames = [names[a] for a in stack]
        program = [function for obj, function in frames
                   if not RUNTIME.match(obj) and not ALLOCATOR.match(function)]
        if not program:
            program = [frames[0][1]]
        own[program[0]] += 1
        inclusive.update(set(program))
    total = len(stacks)
    for title, counter in (("inclusive", inclusive), ("self", own)):
        print(f"\ntop {TOP} by {title} share:")
        print(f"{'incl %':>7} {'self %':>7}  function")
        for function, _ in counter.most_common(TOP):
            print(f"{100.0 * inclusive[function] / total:7.2f} "
                  f"{100.0 * own[function] / total:7.2f}  {function}")


def main():
    argv = sys.argv[1:]
    if argv[:1] != ["--"] or len(argv) < 2:
        sys.exit(USAGE)
    command = argv[1:]

    build_sampler()
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="mcnet-profile-"))
    try:
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(filter(None, [str(LIBRARY), env.get("LD_PRELOAD")]))
        env["MCNET_PROFILE_OUT"] = str(scratch / "samples")
        try:
            child = subprocess.Popen(command, env=env)
        except OSError as e:
            sys.exit(f"profile: cannot run {command[0]}: {e.strerror}")
        status = child.wait()
        path = scratch / f"samples.{child.pid}"
        if not path.is_file():
            print(f"profile: {command[0]} wrote no profile (exit status {status})",
                  file=sys.stderr)
            return status or 1
        hz, samples, dropped, stacks, mappings = read_profile(path)
        if not stacks:
            print("profile: no samples recorded", file=sys.stderr)
            return status or 1
        names = Symbolizer(mappings).resolve({a for stack in stacks for a in stack})
        print(f"profile of {' '.join(command)}: {samples} samples at {hz} Hz"
              f" ({samples / hz:.2f} s), {dropped} dropped, exit status {status}")
        report(stacks, names)
        return status
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
