"""Runs one rankaudit CLI command in this (fresh) interpreter and measures it.

    python3 child.py RESULT_JSON SRC_DIR [--trace SPANS_CSV RUN_ID] -- ARGV...

Times `import rankaudit.cli` (setup) and `rankaudit.cli.main(ARGV)` plus
the stdout flush (run), reads this process's own peak RSS and CPU time,
and writes them to RESULT_JSON.  With --trace the layer functions are
wrapped after the import and before the timed call, and the spans are
written to SPANS_CSV after it.  Exits with the command's exit code.

Peak RSS is the high-water mark of this process's own memory map
(VmHWM in /proc/self/status, so Linux only): `getrusage` carries the
parent's peak over fork and exec, which would hide the child's peak
below the harness's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    result_path, src = Path(opts[0]), Path(opts[1]).resolve()

    t0 = time.perf_counter()
    cli = importlib.import_module("rankaudit.cli")
    setup_s = time.perf_counter() - t0
    if src not in Path(cli.__file__).resolve().parents:
        print(f"child: rankaudit imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 90

    tracer = None
    if opts[2:3] == ["--trace"]:
        import spans

        tracer = spans.Tracer(opts[4])
        tracer.install()

    cpu0 = time.process_time()
    t1 = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    run_s = time.perf_counter() - t1
    cpu_s = time.process_time() - cpu0

    result = {
        "code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary(run_s)
        tracer.write(Path(opts[3]))
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
