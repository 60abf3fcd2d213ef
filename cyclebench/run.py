#!/usr/bin/env python3
"""cyclestab benchmark: build, run one workload, check every report, print metrics.

Usage (from the repository root):
    python3 cyclebench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run starts by deleting ``.cyclebench-run/`` and building the package into
it with the repository's own ``setup.py`` (egg-info included, so nothing is
written under ``src/``).  It then writes the workload's inputs from the seed
and runs rounds until ``--seconds`` have passed.  A round is one fresh worker
process that imports ``cyclestab.cli`` and runs the workload's fixed batch of
operations through ``cyclestab.cli.main``.  The first round's reports are
checked by the independent checkers in ``checks.py``; every later round must
reproduce them byte for byte.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
(medians over rounds): ``wall_s``, ``setup_s`` and ``peak_rss_mb``, the
times scaled to a fixed machine speed by ``speed.py``.  With
``--trace 1`` the rounds run with spans around each module's public
functions, once per importable kernel backend, and the last line holds the
per-layer metrics of the backend the CLI selects; a table per backend goes
to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

RUN_DIR = ".cyclebench-run"
ROUND_LIMIT_S = 150  # a round that takes longer than this is a failed run


def build(root: Path, run: Path) -> Path:
    """Build the package as ``setup.py`` builds it, into ``run``; byte-compile
    it as an install would, so each worker imports compiled modules."""
    egg, base = run / "egg", run / "build"
    egg.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "setup.py", "-q", "egg_info", "--egg-base",
                           str(egg), "build", "--build-base", str(base)],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"setup.py build exited with {proc.returncode}")
    lib = base / "lib"
    if not (lib / "cyclestab" / "cli.py").is_file():
        raise RuntimeError(f"the build left no cyclestab package in {lib}")
    if not compileall.compile_dir(str(lib), quiet=1):
        raise RuntimeError("byte-compiling the built package failed")
    return lib


def worker_env(lib: Path, extra: dict) -> dict:
    """The environment of every worker: the built package alone on the path,
    no shard or backend overrides, no bytecode written."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CYCLESTAB_THREADS", "CYCLESTAB_PURE", "PYTHONPATH")}
    env.update(extra, PYTHONPATH=str(lib), PYTHONDONTWRITEBYTECODE="1")
    return env


def backends(lib: Path) -> list[tuple[str, dict]]:
    """(label, extra environment) for each importable kernel backend, the
    one the CLI selects first."""
    found = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util as u, cyclestab._kernel as k;"
         "print(k.backend_name, u.find_spec('cyclestab._core') is not None)"],
        env=worker_env(lib, {}), capture_output=True, text=True, check=True)
    default, has_core = found.stdout.split()
    out = [(default, {})]
    if default == "compiled":
        out.append(("pure", {"CYCLESTAB_PURE": "1"}))
    elif has_core == "True":
        print("cyclebench: cyclestab._core exists but does not import", file=sys.stderr)
    return out


def run_round(lib: Path, run: Path, index: int, ops_file: Path, trace: bool,
              extra_env: dict) -> dict:
    """One worker process over the batch: its record, with the set-up time
    and the reports it wrote."""
    out = run / f"round-{index}.json"
    reports = run / f"reports-{index}.txt"
    start_probe = speed.probe()
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "worker.py"), str(ops_file), str(out),
         str(reports), "1" if trace else "0"],
        cwd=run, env=worker_env(lib, extra_env), timeout=ROUND_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for round {index} exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_raw_s"] = record["ready"] - started
    record["setup_s"] = speed.scale(record["setup_raw_s"], (start_probe, record["ready_probe"]))
    record["reports"] = reports.read_text(encoding="utf-8").split("\0")[:-1]
    reports.unlink()
    return record


LAYER_METRICS = (
    # (metric, unit, span names, what: "self" seconds | "calls" | "work")
    ("kernel.fixed_miss_s", "s", ("kernel.fixed_miss",), "self"),
    ("kernel.fixed_misses", "count", ("kernel.fixed_miss",), "calls"),
    ("kernel.fixed_hit_s", "s", ("kernel.fixed_hit",), "self"),
    ("kernel.fixed_hits", "count", ("kernel.fixed_hit",), "calls"),
    ("kernel.longest_s", "s", ("kernel.longest",), "self"),
    ("kernel.longest_calls", "count", ("kernel.longest",), "calls"),
    ("kernel.sweep_s", "s", ("kernel.sweep",), "self"),
    ("kernel.sweep_colorings", "count", ("kernel.sweep",), "work"),
    ("ramsey.edge_masks_s", "s", ("ramsey.edge_masks",), "self"),
    ("ramsey.edge_masks", "count", ("ramsey.edge_masks",), "work"),
    ("ramsey.sweep_self_s", "s", ("ramsey.sweep",), "self"),
    ("ramsey.certificate_s", "s", ("ramsey.certificate",), "self"),
    ("ramsey.certificate_calls", "count", ("ramsey.certificate",), "calls"),
    ("ramsey.verify_s", "s", ("ramsey.verify",), "self"),
    ("ramsey.verdict_s", "s", ("ramsey.verdict", "ramsey.verdict_sweep"), "self"),
    ("cycles.self_s", "s", "cycles.", "self"),
    ("graph.build_s", "s", ("graph.build",), "self"),
    ("graph.built", "count", ("graph.build",), "calls"),
    ("coloring.build_s", "s", ("coloring.build",), "self"),
    ("coloring.built", "count", ("coloring.build",), "calls"),
    ("stability.decompose_s", "s", ("stability.decompose",), "self"),
    ("stability.verify_s", "s", ("stability.verify",), "self"),
    ("formats.parse_s", "s", ("formats.parse_graph",), "self"),
    ("formats.calls", "count", ("formats.parse_graph",), "calls"),
    ("coloring.parse_s", "s", ("coloring.parse_coloring",), "self"),
    ("reporting.serialize_s", "s", ("reporting.canonical_json",), "self"),
    ("reporting.bytes", "count", ("reporting.canonical_json",), "work"),
    ("cli.self_s", "s", ("cli.main",), "self"),
)


def layer_totals(record: dict) -> dict[str, dict[str, float]]:
    """Per span name: self seconds (span time minus the time its child spans
    cover), calls and summed work counts."""
    spans, names = record["spans"], record["span_names"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name_id, start, end, _, work), covered in zip(spans, child_time):
        t = totals.setdefault(names[name_id], {"self": 0.0, "calls": 0, "work": 0})
        t["self"] += end - start - covered
        t["calls"] += 1
        t["work"] += work
    return totals


def layer_metrics(record: dict) -> dict[str, float]:
    totals = layer_totals(record)
    out = {}
    for metric, _, spans, what in LAYER_METRICS:
        if isinstance(spans, str):
            spans = [name for name in totals if name.startswith(spans)]
        out[metric] = sum(totals.get(name, {}).get(what, 0) for name in spans)
    out["trace.wall_s"] = record["wall_s"]
    return out


def count_problems(ops: list[dict], reports: list[str], metrics: dict) -> list[str]:
    """Traced call counts against totals reached without the trace."""
    out = []
    exhaustive = sum(2 ** (op["check"]["p"] * (op["check"]["p"] - 1) // 2 - 1)
                     for op in ops if op["kind"] == "sweep"
                     and op["check"]["mode"] == "exhaustive")
    if metrics["kernel.sweep_colorings"] != exhaustive:
        out.append(f"kernel.sweep_colorings {metrics['kernel.sweep_colorings']}, "
                   f"exhaustive sweeps span {exhaustive} colourings")
    arrth = [(op, json.loads(text)) for op, text in zip(ops, reports) if op["kind"] == "arrth"]
    if arrth:
        # one colouring per sample, plus one rebuilt per 'neither' exemplar
        built = sum(op["check"]["samples"] + len(r["result"]["neither_exemplars"])
                    for op, r in arrth)
        if metrics["coloring.built"] != built:
            out.append(f"coloring.built {metrics['coloring.built']}, expected {built}")
    certs = sum(op["kind"] == "ramsey_cert" for op in ops)
    if certs and metrics["ramsey.certificate_calls"] != certs:
        out.append(f"ramsey.certificate_calls {metrics['ramsey.certificate_calls']}, "
                   f"{certs} ramsey-cert operations")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    schema = root / "schema" / "report.schema.json"
    if not (root / "setup.py").is_file() or not schema.is_file():
        print("cyclebench: run from the repository root (setup.py and "
              "schema/report.schema.json are needed)", file=sys.stderr)
        return 2
    run = root / RUN_DIR
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir()
    try:
        return measure(args, root, run, schema)
    finally:
        for sub in ("build", "egg", "inputs"):
            shutil.rmtree(run / sub, ignore_errors=True)


def measure(args, root: Path, run: Path, schema: Path) -> int:
    lib = build(root, run)
    ops = workloads.make(args.workload, args.seed, run / "inputs")
    ops_file = run / "ops.json"
    ops_file.write_text(json.dumps([op["argv"] for op in ops]))
    checker = checks.Checker(schema)
    labels = backends(lib)
    if not args.trace:
        labels = labels[:1]

    rounds: dict[str, list[dict]] = {label: [] for label, _ in labels}
    failed_ops = 0
    problems: list[str] = []
    started = time.perf_counter()
    for k, (label, env) in enumerate(labels):
        until = started + args.seconds * (k + 1) / len(labels)
        first = None  # this backend's first round, checked; later ones must match it
        while first is None or time.perf_counter() < until:
            index = sum(len(r) for r in rounds.values())
            record = run_round(lib, run, index, ops_file, bool(args.trace), env)
            if first is None:
                first, failed = record, set()
                for i, (op, code, text) in enumerate(zip(ops, record["codes"],
                                                         record["reports"])):
                    found = checker.problems(op, code, text)
                    if found:
                        failed.add(i)
                        print(f"cyclebench: FAILED {' '.join(op['argv'])}: "
                              f"{'; '.join(found)}", file=sys.stderr)
                problems += checks.self_test(checker, ops, record["reports"])
                backends_seen = {json.loads(text)["meta"]["backend"] for i, text
                                 in enumerate(record["reports"]) if i not in failed}
                print(f"cyclebench: {label} backend: reports say {sorted(backends_seen)}",
                      file=sys.stderr)
            failed_ops += sum(1 for i in range(len(ops)) if i in failed
                              or record["codes"][i] != first["codes"][i]
                              or record["reports"][i] != first["reports"][i])
            if args.trace:
                record["layers"] = layer_metrics(record)
                problems += count_problems(ops, first["reports"], record["layers"])
                del record["spans"]
            if not args.trace:
                record["scaled_s"] = speed.scaled(record.pop("probe_marks"),
                                                  workloads.SENSITIVITY[args.workload])
            if record is not first:
                del record["reports"]
            rounds[label].append(record)

    attempted = len(ops) * sum(len(r) for r in rounds.values())
    print(f"cyclebench: workload {args.workload}, seed {args.seed}, {len(ops)} operations "
          f"per round, rounds {[len(r) for r in rounds.values()]}", file=sys.stderr)
    for p in problems:
        print(f"cyclebench: PROBLEM {p}", file=sys.stderr)

    recs = rounds[labels[0][0]]  # the metrics are those of the backend the CLI selects
    if args.trace:
        units = {m: u for m, u, _, _ in LAYER_METRICS} | {"trace.wall_s": "s"}
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in recs),
                          "unit": units[name]} for name in recs[0]["layers"]}
        for label, backend_recs in rounds.items():
            print(f"cyclebench: per-layer medians, backend {label}, {len(backend_recs)} "
                  f"rounds", file=sys.stderr)
            for name in metrics:
                value = statistics.median(r["layers"][name] for r in backend_recs)
                print(f"  {label:8} {name:26} {value:.6g}", file=sys.stderr)
    else:
        metrics = {}
        for name, key, unit in (("wall_s", "scaled_s", "s"), ("setup_s", "setup_s", "s"),
                                ("peak_rss_mb", "peak_rss_mb", "MiB"),
                                ("unscaled wall_s", "wall_s", "s"),
                                ("unscaled setup_s", "setup_raw_s", "s")):
            values = [r[key] for r in recs]
            if " " not in name:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"cyclebench: {name} = {statistics.median(values):.6g} {unit}  (rounds: "
                  f"{', '.join(f'{v:.4g}' for v in values)})", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
