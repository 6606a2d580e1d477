#!/usr/bin/env python3
"""Host fingerprint for perf baselines.

    scripts/host_stamp.py <build_dir>          print the stamp as JSON
    scripts/host_stamp.py <build_dir> <file>   exit 0 if <file>'s "host"
                                               stamp matches, 1 if not

A perf number is only comparable with one recorded on the same host:
same usable core count, CPU model and compiler. bench_baseline.sh
writes this stamp (plus the commit) into BENCH_baseline.json, and
check.sh's perf smoke compares against the baseline only when the
stamps match.
"""
import json
import os
import re
import subprocess
import sys

FIELDS = ("nproc", "cpu", "compiler")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler(build_dir):
    """First line of `<CMAKE_CXX_COMPILER> --version` for the build tree."""
    cxx = "c++"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                m = re.match(r"CMAKE_CXX_COMPILER:\w+=(.+)", line)
                if m:
                    cxx = m.group(1).strip()
                    break
    except OSError:
        pass
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, check=True).stdout
        return out.splitlines()[0].strip()
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def host_stamp(build_dir):
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "compiler": compiler(build_dir)}


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    here = host_stamp(sys.argv[1])
    if len(sys.argv) == 2:
        print(json.dumps(here))
        return
    with open(sys.argv[2]) as f:
        recorded = json.load(f).get("host", {})
    recorded = {k: recorded.get(k) for k in FIELDS}
    if recorded != here:
        print(f"baseline host: {json.dumps(recorded)}")
        print(f"this host:     {json.dumps(here)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
