"""The holospaces benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

run from the root of a checkout.  Workloads: cli, kernels, kernels-edge,
verify (see README.md in this directory for why each exists).  The package is
imported from the checkout's ``src`` and is never modified.

``--trace 0`` prints the end-to-end metrics: ops_per_s, op_p50_ms,
op_tail_ms, ok_frac (the share of the seed's inputs computed correctly, the
kernel census included), setup_s and peak_rss_mb.  ``--trace 1``
prints the per-layer metrics: spans and counters around each layer, the
start-up split of a fresh interpreter, and the tracing overhead.  It also
checks that every count repeats exactly between two traced passes of the
seed and of a second seed, and exits 1 if one does not.

The timed loop runs only well-posed kernel requests (see oracle.py), on
which every op is expected to pass: ``correct`` is false and ``failed`` is
not 0 exactly when one of them fails.  Requests that are not well posed,
and those of kernels-edge's census regimes, form a census, evaluated once
per run outside any timing; its failures are
the known defects of the seed code and are reported, in ``ok_frac`` and by
regime, not counted in ``failed``.

The last line of standard output is the result object; the line before it
is the full record (environment, provenance, per-regime failures).  Both
are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import startup  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
INTERP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# Ops in one traced pass: a fixed count, so that counters can repeat exactly.
TRACE_OPS = {"cli": 6, "kernels": 1152, "kernels-edge": 212, "verify": 850}
# Set-up a user pays before the first op: a fresh interpreter importing the
# workload's entry module, and for verify the first (cold) grid construction.
ENTRY = {
    "cli": ("import holospaces.cli", ""),
    "kernels": ("import holospaces", ""),
    "kernels-edge": ("import holospaces", ""),
    "verify": ("import holospaces.quadrature as q", "q.QuadratureGrid.for_ball(2, 0.0)"),
}
END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_frac": "frac",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _spawn(argv, timeout=120) -> tuple:
    """Run a child to completion; (wall seconds, CompletedProcess)."""
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=timeout)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:4]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unavailable"
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def inputs_and_references(workload: str, seed: int) -> tuple:
    """Seeded inputs and their references, cached under .bench_out by content."""
    inputs = workloads.GENERATORS[workload](seed)
    key = hashlib.sha256(json.dumps([workload, inputs]).encode()
                         + (HERE / "oracle.py").read_bytes()).hexdigest()[:24]
    cache = OUT / f"refs-{key}.json"
    if cache.is_file():
        return inputs, json.loads(cache.read_text())
    import oracle  # mpmath stays out of the measured processes

    refs = oracle.references(workload, inputs)
    cache.write_text(json.dumps(refs))
    return inputs, refs


def run_worker(job: dict, timeout: float) -> dict:
    path = OUT / f"job-{job['workload']}-{job['seed']}-{job['mode']}.json"
    path.write_text(json.dumps(job))
    _, proc = _spawn([sys.executable, str(HERE / "worker.py"), str(path)], timeout=timeout)
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(workload: str) -> dict:
    """Median time of fresh interpreters doing the workload's set-up.

    One unmeasured start first, so that byte-compiling a fresh checkout is
    not counted: users pay that once, not on every run.  A child calibration
    unit runs before the first sample and after each, and the median sample
    is scaled by CHILD_REFERENCE_S over the median unit, as the worker
    scales the cli workload's calls (see calibrate.py).
    """
    entry, first_use = ENTRY[workload]
    code = ("from time import perf_counter as c; t0 = c(); " + entry + "; t1 = c(); "
            + (first_use or "pass") + "; print(t1 - t0, c() - t1)")
    _spawn([sys.executable, "-c", code])
    units = [calibrate.child_unit_s()]
    walls, imports, first_uses = [], [], []
    for _ in range(SETUP_SAMPLES):
        wall, proc = _spawn([sys.executable, "-c", code])
        units.append(calibrate.child_unit_s())
        walls.append(wall)
        a, b = proc.stdout.split()
        imports.append(float(a))
        first_uses.append(float(b))
    raw = statistics.median(walls)
    return {"setup_s": raw * calibrate.CHILD_REFERENCE_S / statistics.median(units),
            "raw_setup_s": raw, "raw_samples_s": walls,
            "calibration_units_s": units, "import_s": statistics.median(imports),
            "first_grid_cold_s": statistics.median(first_uses)}


def startup_split(workload: str, cli_calls) -> dict:
    """cli.* layer metrics: bare interpreter, then -X importtime of each call
    (cli) or of the workload's entry import (the other workloads)."""
    interp = [_spawn([sys.executable, "-c", "pass"])[0] for _ in range(INTERP_SAMPLES)]
    if workload != "cli":
        entry = ENTRY[workload][0]
        cli_calls = []
        for _ in range(IMPORTTIME_SAMPLES):
            wall, proc = _spawn([sys.executable, "-X", "importtime", "-c", entry])
            cli_calls.append((wall, startup.import_split(proc.stderr)))
    return startup.summarise(interp, cli_calls)


def ok_frac(result: dict, census) -> float:
    """Share of the seed's distinct inputs whose every evaluation passed its
    check, the kernel census included."""
    census = census or {"attempted": 0, "failed": 0}
    total = result["distinct_inputs"] + census["attempted"]
    bad = result["distinct_failed"] + census["failed"]
    return (total - bad) / total


def timed(workload: str, seed: int, seconds: int) -> tuple:
    inputs, refs = inputs_and_references(workload, seed)
    setup = measure_setup(workload)
    job = {"workload": workload, "seed": seed, "mode": "timed", "seconds": seconds,
           "inputs": inputs, "refs": refs}
    result = run_worker(job, timeout=seconds + 150)
    values = {
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_tail_ms": result["op_tail_ms"],
        "ok_frac": ok_frac(result, result["census"]),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    details = {"worker": result, "setup": setup}
    return result["failed"] == 0, result["attempted"], result["failed"], metrics, details


def _counts(result: dict) -> dict:
    counts = {"ops": result["traced"]["attempted"], "failed": result["traced"]["failed"]}
    if result["census"]:
        counts["census"] = result["census"]["attempted"]
        counts["census_failed"] = result["census"]["failed"]
    for key, value in result["layers"].items():
        if not key.endswith("_s"):
            counts[key] = value
    return counts


def _layer_unit(name: str) -> str:
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_s"):
        return "s"
    return "count"


def traced(workload: str, seed: int) -> tuple:
    """Traced passes of a fixed op count: the seed twice and a second seed twice.

    The first pass of the seed also runs the same ops untraced, which gives
    the tracing overhead; the per-layer metrics come from its traced pass.
    """
    passes = {}
    for run_seed in (seed, seed + 1):
        inputs, refs = inputs_and_references(workload, run_seed)
        for repeat in (0, 1):
            job = {"workload": workload, "seed": run_seed, "mode": "trace",
                   "trace_ops": TRACE_OPS[workload], "untraced_first": run_seed == seed and not repeat,
                   "inputs": inputs, "refs": refs,
                   "spans_path": str(OUT / f"spans-{workload}-{run_seed}-{repeat}.jsonl")}
            passes[run_seed, repeat] = run_worker(job, timeout=160)
    mismatched = {}
    for run_seed in (seed, seed + 1):
        first, second = _counts(passes[run_seed, 0]), _counts(passes[run_seed, 1])
        mismatched.update({f"{run_seed}:{k}": (first.get(k), second.get(k))
                           for k in first.keys() | second.keys() if first.get(k) != second.get(k)})
    main = passes[seed, 0]
    layers = dict(main["layers"])
    layers.update(startup_split(workload, main.get("startup_calls")))
    untraced_rate = main["untraced"]["ops_per_s_overall"]
    traced_rate = main["traced"]["ops_per_s_overall"]
    layers["trace.untraced_ops_per_s"] = untraced_rate
    layers["trace.traced_ops_per_s"] = traced_rate
    layers["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    layers["census.failed"] = main["census"]["failed"] if main["census"] else 0
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}
    details = {"passes": {f"{s}:{r}": p["traced"] for (s, r), p in passes.items()},
               "untraced": main["untraced"], "census": main["census"],
               "count_mismatches": mismatched}
    result = main["traced"]
    return (result["failed"] == 0, result["attempted"], result["failed"], metrics, details,
            mismatched)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holospaces" / "__init__.py").is_file():
        print(f"error: no holospaces package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace:
        correct, attempted, failed, metrics, details, mismatched = traced(args.workload, args.seed)
    else:
        correct, attempted, failed, metrics, details = timed(args.workload, args.seed, args.seconds)
        mismatched = {}
    record["details"] = details
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    stem = f"result-{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if mismatched:
        print(f"error: counts differ between two traced passes of one seed: {mismatched}",
              file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
