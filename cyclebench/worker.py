"""One round of a workload in a fresh interpreter.

Usage: python3 worker.py OPS_JSON OUT_JSON REPORTS TRACE(0|1)

The first statement imports the CLI, which loads the kernel backend; the
clock read right after it ends the set-up time that the parent started
before launching this process.  The round then runs every operation
through ``cyclestab.cli.main`` with stdout and stderr captured.  It writes
each report to REPORTS as it goes, and at the end the exit codes,
times, peak resident memory and, when traced, the spans to OUT_JSON.
Untraced rounds also record when each speed probe ran (see ``speed.py``).
"""

import cyclestab.cli  # noqa: F401  (set-up ends here)
import time

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from speed import SpeedProbes, probe  # noqa: E402

probe()  # the first call in a fresh process runs cold; the parent's is warm
READY_PROBE = probe()


def run_batch(ops: list[list[str]], reports, probes) -> dict:
    """Exit codes, per-operation seconds and the batch's wall time, all
    without probe time; each report is written to the ``reports`` file,
    followed by a NUL byte."""
    cli = sys.modules["cyclestab.cli"]
    codes, spans = [], []
    started = time.perf_counter()
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed operation, not a crashed round
                code = -1
                out.write(traceback.format_exc())
        spans.append((t0, time.perf_counter()))
        codes.append(code)
        reports.write(out.getvalue() + "\0")
    ended = time.perf_counter()

    def without_probes(start, end):
        return end - start - (probes.within(start, end) if probes else 0)

    return {"codes": codes, "op_seconds": [without_probes(a, b) for a, b in spans],
            "wall_s": without_probes(started, ended)}


def peak_rss_mib() -> float:
    """This process's peak resident memory since its exec.  Not ru_maxrss:
    Linux carries that across exec, so it would report the parent's size
    at the fork when the parent is the larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    ops_path, out_path, reports_path, trace = sys.argv[1:5]
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    recorder = None
    if trace == "1":
        import tracing
        recorder = tracing.install()
    with open(reports_path, "w", encoding="utf-8") as reports:
        if recorder:  # probes would land inside the spans
            record = run_batch(ops, reports, None)
        else:
            with SpeedProbes() as probes:
                record = run_batch(ops, reports, probes)
            record["probe_marks"] = probes.marks
    record.update(
        ready=READY,
        ready_probe=READY_PROBE,
        peak_rss_mb=peak_rss_mib(),
        backend=sys.modules["cyclestab._kernel"].backend_name,
        spans=recorder.spans if recorder else None,
        span_names=recorder.names if recorder else None)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
