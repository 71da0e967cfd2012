"""Default-cap report: every construction at its largest allowed size, once.

    python3 bench/caps.py

These runs sit outside the gated workloads: each takes long enough that
repeating it would not fit a benchmark run.  Each invocation runs in a
child whose address space is limited to MEM_SHARE of the memory the
machine has available when the report starts, and whose run time is
limited to TIMEOUT_S; one that exceeds either is recorded as over
budget, with the reason, instead of being allowed to push the machine
into swap or the OOM killer.  Prints one line per invocation and writes
bench/out/caps.json.
"""

import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT, _spawn, sha256_file

# (label, argv) at the README's default caps.
CAPS = [
    ("tree 2^20 json", ["tree", str(1 << 20), "--format", "json"]),
    ("matrix depth 4096", ["matrix", "--kind", "depth", "--max", "4096"]),
    ("fractal 4095", ["fractal", "--max", "4095"]),
    ("goldbach to 2^24", ["goldbach", "--from", "4", "--to", str(1 << 24)]),
]

# Share of MemAvailable one invocation may map, and its time limit.
MEM_SHARE = 0.5
TIMEOUT_S = 300

_LIMITED = (
    "import resource, runpy, sys; lim = int(sys.argv.pop(1)); "
    "resource.setrlimit(resource.RLIMIT_AS, (lim, lim)); "
    "runpy.run_module('cvtxor', run_name='__main__')"
)


def _mem_limit_mib():
    """MEM_SHARE of MemAvailable in /proc/meminfo, in MiB."""
    with open("/proc/meminfo") as meminfo:
        kib = next(int(line.split()[1]) for line in meminfo if line.startswith("MemAvailable:"))
    return int(kib * MEM_SHARE) >> 10


def main():
    mem_mib = _mem_limit_mib()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="caps-", dir=OUT))
    rows = []
    try:
        for label, cmd in CAPS:
            out, log = tmp / "out", tmp / "log"
            wall, code, usage = _spawn(
                ["-c", _LIMITED, str(mem_mib << 20), *cmd, "--out", str(out)],
                log, timeout=TIMEOUT_S,
            )
            text = log.read_text(errors="replace")
            if code == 0:
                status = "ok"
            elif "MemoryError" in text:
                status = f"over budget: MemoryError under a {mem_mib} MiB address-space limit"
            elif code == -9:
                status = f"over budget: killed after the {TIMEOUT_S} s time limit"
            else:
                status = f"failed: exit {code}: {text.strip()[-200:]}"
            done = code == 0 and out.exists()
            rows.append({
                "label": label, "argv": cmd, "status": status, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mib": usage.ru_maxrss / 1024,
                "bytes": out.stat().st_size if done else None,
                "sha256": sha256_file(out) if done else None,
            })
            out.unlink(missing_ok=True)
            print(f"{label:20s} {wall:8.2f} s {usage.ru_maxrss / 1024:8.1f} MiB  {status}",
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "mem_mib": mem_mib, "timeout_s": TIMEOUT_S, "runs": rows,
    }
    (OUT / "caps.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
