"""The measured process: runs one workload's ops in a closed loop and checks each.

Usage: ``python3 perfbench/worker.py JOB.json`` with ``PYTHONPATH`` set to
the checkout's ``src``.  The job file, written by ``run.py``, holds the
seeded inputs and their references.  The worker prints one JSON line.

One caller, no threads: each op starts when the previous one has been
checked.  Only the op's call is timed; building its arguments and checking
its output happen between ops.  An op fails on a raised error, a non-finite
or wrong value (relative error above 1e-10 against the mpmath reference), a
missing DomainError where the true value is beyond float range, a CLI exit
code other than 0 or CLI output that differs from the in-process library
value, or a verify residual above the CLI suite's tolerance.  The kernel
workloads loop over their well-posed requests only; the others are
evaluated once, before the loop, as a census (see ``census``).
"""

from __future__ import annotations

import cmath
import functools
import gc
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

import holospaces  # noqa: E402  (PYTHONPATH is the checkout's src)
from holospaces import asymptotics, bargmann, bergman, cli, multiindex, quadrature, taylor  # noqa: E402
from holospaces.errors import DomainError  # noqa: E402
import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402
from startup import import_split  # noqa: E402

if Path(holospaces.__file__).resolve().parent != ROOT / "src" / "holospaces":
    sys.exit(f"holospaces imported from {holospaces.__file__}, not from this checkout's src")

REL_TOL = 1e-10  # the repository's closed-vs-series bar
MODULES = {"bergman": bergman, "bargmann": bargmann, "asymptotics": asymptotics}


# ---------------------------------------------------------------- kernels

def _value_reason(value, ref):
    if ref.get("overflow"):
        return "overflow-unflagged"
    if not cmath.isfinite(value):
        return "nonfinite"
    expected = complex(*ref["value"])
    if not abs(value - expected) <= REL_TOL * abs(expected):
        return "accuracy"
    return None


def _kernel_check(ref):
    def check(out, err):
        if ref.get("overflow") and isinstance(err, DomainError):
            return None
        if err is not None:
            return type(err).__name__
        return _value_reason(complex(out), ref)
    return check


def _sweep_check(ref):
    def check(out, err):
        if err is not None:
            return type(err).__name__
        if len(out) != len(ref["rows"]):
            return "rows"
        for record, row in zip(out, ref["rows"]):
            reason = (_value_reason(record.kernel_value, row)
                      or _value_reason(record.limit_value, ref["limit"]))
            if reason:
                return reason
            if record.abs_error != abs(record.kernel_value - record.limit_value):
                return "abs_error"
        return None
    return check


def _space(spec):
    if "alpha" in spec:
        return bergman.BergmanDirichletSpace(spec["n"], spec["alpha"], spec["m"], spec["radius"])
    return bargmann.BargmannDirichletSpace(spec["n"], spec["nu"], spec["m"])


def _kernel_call(request, space, ref, phase=1.0):
    """The request's call, with both points turned by ``phase``, and its check."""
    z = tuple(complex(*c) * phase for c in request["z"])
    w = tuple(complex(*c) * phase for c in request["w"])
    module, name = request["fn"].split(".")
    fn = getattr(MODULES[module], name)
    if name == "convergence_sweep":
        return (functools.partial(fn, request["nu"], request["m"], request["n"], z, w,
                                  request["radii"]), _sweep_check(ref))
    args = (space, z) if name == "pointwise_bound" else (space, z, w)
    return functools.partial(fn, *args), _kernel_check(ref)


def _timed(request, ref) -> bool:
    return ref["well_posed"] and request["regime"] not in workloads.CENSUS_REGIMES


def kernel_ops(inputs, refs, rng):
    """Endless stream over the well-posed requests of the pool: blocks in a
    fresh seeded order on every pass, and both points of each request turned
    by a fresh common phase, which leaves <z, w> and so the reference
    unchanged but makes every request's arguments new."""
    pool = [[(i, request, ref, _space(request["space"]) if "space" in request else None)
             for i, (request, ref) in enumerate(zip(block, block_refs)) if _timed(request, ref)]
            for block, block_refs in zip(inputs, refs)]
    order = [b for b, block in enumerate(pool) if block]
    for round_index in itertools.count():
        rng.shuffle(order)
        for b in order:
            for i, request, ref, space in pool[b]:
                call, check = _kernel_call(request, space, ref,
                                           cmath.exp(2j * math.pi * rng.random()))
                yield call, check, request["regime"], round_index, (b, i)


def census(inputs, refs) -> dict:
    """Every request that is not timed, evaluated once outside any timing:
    those that are not well posed, and those of the census regimes.

    These are the regimes where the seed code is known to fail (ROADMAP item
    2: cancellation, series beyond the term budget, values beyond float
    range).  They are counted per regime and reason, and enter ``ok_frac``.
    """
    regimes = defaultdict(lambda: {"attempted": 0, "failed": 0})
    failures = Counter()
    for block, block_refs in zip(inputs, refs):
        for request, ref in zip(block, block_refs):
            if _timed(request, ref):
                continue
            space = _space(request["space"]) if "space" in request else None
            call, check = _kernel_call(request, space, ref)
            try:
                out, err = call(), None
            except Exception as exc:  # a failing request is counted, the census goes on
                out, err = None, exc
            reason = check(out, err)
            regimes[request["regime"]]["attempted"] += 1
            if reason:
                regimes[request["regime"]]["failed"] += 1
                failures[f"{request['regime']}:{reason}"] += 1
    return {"attempted": sum(r["attempted"] for r in regimes.values()),
            "failed": sum(r["failed"] for r in regimes.values()),
            "by_regime": dict(regimes), "failures": dict(failures)}


# ---------------------------------------------------------------- verify

def _residual_check(tolerance):
    def check(out, err):
        if err is not None:
            return type(err).__name__
        return None if out <= tolerance else "residual"
    return check


def verify_ops(inputs, refs, rng):
    """Per block: build a fresh grid (the cost every CLI verify run pays), then
    run the block's cases on it.  A round is VERIFY_ROUND_BLOCKS blocks."""
    del rng
    tolerance = {"norm": cli.NORM_TOL, "ortho": cli.ORTHO_TOL, "sobolev": cli.SOBOLEV_TOL}
    for index, (block, mass) in enumerate(itertools.cycle(zip(inputs, refs))):
        round_index = index // workloads.VERIFY_ROUND_BLOCKS
        spec, capacity = block["space"], block["capacity"]
        space = _space(spec)
        if spec["kind"] == "ball":
            build = functools.partial(quadrature.QuadratureGrid.for_ball, 2, spec["alpha"], capacity)
        else:
            build = functools.partial(quadrature.QuadratureGrid.for_gaussian, 2, capacity)
        built = []

        def grid_check(out, err, built=built, mass=mass):
            if err is not None:
                return type(err).__name__
            built.append(out)
            return None if abs(out.weights.sum() - mass) <= 1e-12 * mass else "grid-mass"

        key = index % len(inputs)
        yield build, grid_check, "grid", round_index, (key, -1)
        if not built:
            continue
        grid = built[0]
        for c, case in enumerate(block["cases"]):
            kind = case[0]
            if kind == "norm":
                call = functools.partial(quadrature.verify_monomial_norm, space, tuple(case[1]), grid)
            elif kind == "ortho":
                call = functools.partial(quadrature.verify_orthogonality, space, tuple(case[1]),
                                         tuple(case[2]), grid)
            else:
                f = taylor.TaylorSeries(2, {tuple(p): complex(re, im) for p, re, im in case[1]})
                call = functools.partial(quadrature.verify_sobolev_norm, space, f, grid)
            yield call, _residual_check(tolerance[kind]), f"{kind}-c{capacity}", round_index, (key, c)


# ---------------------------------------------------------------- cli

def _fmt(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _parse_output(text: str, fmt: str):
    if fmt == "json":
        payload = json.loads(text)
        return payload["meta"], payload["rows"]
    lines = text.splitlines()
    meta = dict(item.split("=", 1) for item in lines[0][2:].split(" "))
    columns = lines[1].split(",")
    return meta, [dict(zip(columns, line.split(","))) for line in lines[2:]]


def _same(got, want) -> bool:
    return got == _fmt(want) if isinstance(got, str) else got == want


def _parse_t(text: str) -> complex:
    parts = [float(p) for p in text.split(",")]
    return complex(parts[0], parts[1] if len(parts) > 1 else 0.0)


def _expected_rows(args):
    """Rows the CLI must print, computed by calling the library in-process."""
    if args.command == "kernel":
        if args.space == "ball":
            space = bergman.BergmanDirichletSpace(args.n, args.alpha, args.m, args.radius)
        else:
            space = bargmann.BargmannDirichletSpace(args.n, args.nu, args.m)
        family = bergman if args.space == "ball" else bargmann
        if args.t is not None:
            t = _parse_t(args.t)
        else:
            z = tuple(complex(p) for p in args.z.split(","))
            w = tuple(complex(p) for p in args.w.split(","))
            t = taylor.inner(z, w)
        if args.method == "closed":
            value, detail = family.kernel_closed_detail(space, t, args.tol, args.max_terms)
            terms, estimate = detail.terms_used, detail.error_estimate
        else:
            value, terms, estimate = family.kernel_series_with_tail(space, t, args.max_degree)
        return [{"re": value.real, "im": value.imag, "terms_used": terms, "error_estimate": estimate}]
    if args.command == "norms":
        rows = []
        for k in range(args.max_total_degree + 1):
            for p in multiindex.enumerate_indices(args.n, k):
                if args.space == "ball":
                    space = bergman.BergmanDirichletSpace(args.n, args.alpha, args.m, args.radius)
                    norm_sq, coeff = bergman.monomial_norm_sq(space, p), bergman.gamma_coeff(space, p)
                else:
                    space = bargmann.BargmannDirichletSpace(args.n, args.nu, args.m)
                    norm_sq = bargmann.monomial_norm_sq(space, p)
                    coeff = norm_sq / (math.pi / space.nu) ** space.n
                rows.append({"p": " ".join(map(str, p)), "coeff": coeff, "norm_sq": norm_sq})
        return rows
    # sweep
    t = _parse_t(args.t)
    z = (t,) + (0j,) * (args.n - 1)
    w = (1.0 + 0j,) + (0j,) * (args.n - 1)
    radii = [float(r) for r in args.radii.split(",")]
    records = asymptotics.convergence_sweep(args.nu, args.m, args.n, z, w, radii,
                                            tol=args.tol, max_terms=args.max_terms)
    return [{"R": r.radius, "Re(K_R)": r.kernel_value.real, "Im(K_R)": r.kernel_value.imag,
             "Re(K_inf)": r.limit_value.real, "Im(K_inf)": r.limit_value.imag,
             "abs_error": r.abs_error} for r in records]


# Case counts of the verify suites the mix calls: 11 degrees x 16 points plus
# 3 dimensions x 11 degrees of identities; |p| <= 4 in n = 2 for one space.
_VERIFY_CASES = {"identities": 209, "norms": 15}


def _cli_check(argv, split_log):
    args = cli.build_parser().parse_args(argv)

    def check(out, err):
        if split_log is not None:
            split_log.append(None if err is not None else import_split(out.stderr))
        if err is not None:
            return type(err).__name__
        if out.returncode != 0:
            return f"exit-{out.returncode}"
        try:
            meta, rows = _parse_output(out.stdout, args.format)
        except (ValueError, IndexError, KeyError):
            return "unparsable-output"
        if args.command == "verify":
            row = rows[0]
            if not (_same(row["status"], "pass") and float(row["residual"]) <= float(row["tolerance"])
                    and int(meta["cases"]) == _VERIFY_CASES[args.suite]):
                return "verify-verdict"
            return None
        expected = _expected_rows(args)
        if len(rows) != len(expected):
            return "rows"
        for got, want in zip(rows, expected):
            if not all(_same(got.get(key), value) for key, value in want.items()):
                return "output-differs"
        return None
    return check


def cli_ops(inputs, env, split_log=None):
    """Each op is one ``python -m holospaces.cli`` subprocess, and a round of
    its own; with a split log the call runs under ``-X importtime`` and its
    import split is logged."""
    prefix = [sys.executable] + (["-X", "importtime"] if split_log is not None else [])
    for index, argv in enumerate(itertools.cycle(inputs)):
        call = functools.partial(subprocess.run, prefix + ["-m", "holospaces.cli", *argv],
                                 capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        label = argv[0] if argv[0] != "verify" else f"verify-{argv[2]}"
        yield call, _cli_check(argv, split_log), label, index, index % len(inputs)


# ---------------------------------------------------------------- loop

def run_ops(ops, seconds=None, count=None, recorder=None, unit=None):
    """Closed loop over ``ops`` until ``seconds`` of wall time or ``count`` ops.

    Returns per-op latencies, per-op round indices, attempts and failures per
    regime, (with a calibration ``unit``) the unit's time at the start of
    each round, measured outside the ops' timings, and the numbers of
    distinct inputs run and failed.
    """
    # Compact arrays: the worker's peak RSS is a metric, and must not grow by
    # much more than 12 bytes per op when the package gets faster.
    latencies, rounds = array("d"), array("l")
    regimes = defaultdict(lambda: {"attempted": 0, "failed": 0})
    failures = Counter()
    units = {}
    seen, bad = set(), set()
    start = perf_counter()
    for index, (call, check, regime, round_index, key) in enumerate(ops):
        if unit is not None and round_index not in units:
            units[round_index] = unit()
        if count is not None and index >= count:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
        if recorder is not None:
            recorder.op_id = index
        t0 = perf_counter()
        try:
            out, err = call(), None
        except Exception as exc:  # a failing op is counted, the loop goes on
            out, err = None, exc
        latencies.append(perf_counter() - t0)
        rounds.append(round_index)
        reason = check(out, err)
        regimes[regime]["attempted"] += 1
        seen.add(key)
        if reason:
            regimes[regime]["failed"] += 1
            failures[f"{regime}:{reason}"] += 1
            bad.add(key)
    return latencies, rounds, dict(regimes), dict(failures), units, (len(seen), len(bad))


def _tail(latencies) -> tuple:
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _figures(latencies, rounds, complete) -> dict:
    """Rate, median and tail of one pass's latencies.

    ``ops_per_s`` is the median over complete rounds (one pass over the
    workload's mix) of ops per busy second, and ``op_tail_ms`` the median
    over complete rounds of each round's tail, so that a burst of contention
    from outside spoils one round instead of the whole figure, and the tail
    is that of the mix rather than one pause of the machine in 10^5 ops.
    With fewer than three complete rounds, or rounds of fewer than 11 ops,
    both are taken over all ops instead.
    """
    per_round = defaultdict(list)
    for latency, r in zip(latencies, rounds):
        per_round[r].append(latency)
    out = {"ops_per_s_overall": len(latencies) / sum(latencies),
           "op_p50_ms": statistics.median(latencies) * 1e3}
    by_round = len(complete) >= 3
    out["ops_per_s"] = (statistics.median(len(per_round[r]) / sum(per_round[r]) for r in complete)
                        if by_round else out["ops_per_s_overall"])
    if by_round and min(len(per_round[r]) for r in complete) >= 11:
        tails = [_tail(per_round[r]) for r in complete]
        out["op_tail_ms"] = statistics.median(t for t, _ in tails) * 1e3
        out["op_tail_percentile"] = statistics.median(p for _, p in tails)
        out["op_tail_over"] = "median of per-round tails"
    else:
        tail, percentile = _tail(latencies)
        out["op_tail_ms"], out["op_tail_percentile"] = tail * 1e3, percentile
        out["op_tail_over"] = "all ops"
    return out


def summarise(latencies, rounds, regimes, failures, units, distinct,
              reference=calibrate.REFERENCE_S, pooled=False) -> dict:
    """End-to-end figures of one pass.

    With calibration units (see calibrate.py), each round's latencies are
    scaled by ``reference`` over the mean unit time at the start of that
    round and of the next, which takes out most of the shared machine's
    drift in speed; the unscaled figures are kept under ``raw``.  With
    ``pooled``, every latency is scaled by ``reference`` over the median unit
    of the whole pass instead: for units as noisy as the ops they scale.
    """
    n = len(latencies)
    failed = sum(r["failed"] for r in regimes.values())
    complete = sorted(set(rounds))[:-1]
    scale = {r: 1.0 for r in set(rounds)}
    if units:
        middle = statistics.median(units.values())
        for r in scale:
            unit = (units[r] + units[r + 1]) / 2 if r + 1 in units else units[r]
            scale[r] = reference / (middle if pooled else unit)
    scaled = [latency * scale[r] for latency, r in zip(latencies, rounds)]
    return {
        "attempted": n,
        "failed": failed,
        "fail_frac": failed / n,
        "busy_s": sum(latencies),
        "rounds": len(complete),
        **_figures(scaled, rounds, complete),
        "raw": _figures(latencies, rounds, complete),
        "calibration_units_s": list(units.values()),
        "distinct_inputs": distinct[0],
        "distinct_failed": distinct[1],
        "by_regime": regimes,
        "failures": failures,
    }


def _ops(job, rng_tag, split_log=None):
    workload, inputs, refs = job["workload"], job["inputs"], job["refs"]
    rng = random.Random(f"ops:{job['seed']}:{rng_tag}")
    if workload == "cli":
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return cli_ops(inputs, env, split_log)
    if workload == "verify":
        return verify_ops(inputs, refs, rng)
    return kernel_ops(inputs, refs, rng)


def _unit(job) -> tuple:
    """The calibration unit of the job's workload, its reference time and
    whether it is pooled (see calibrate.py and ``summarise``): a child
    interpreter for cli, whose every op starts one, a pure-Python series
    for the kernel workloads, and the whole mixed unit for verify."""
    if job["workload"] == "cli":
        return calibrate.child_unit_s, calibrate.CHILD_REFERENCE_S, True
    if job["workload"] in ("kernels", "kernels-edge"):
        return calibrate.series_unit_s, calibrate.SERIES_REFERENCE_S, False
    return calibrate.unit_s, calibrate.REFERENCE_S, False


def main() -> None:
    with open(sys.argv[1]) as handle:
        job = json.load(handle)
    # Keep the job's inputs and references out of the collector's scans, so
    # that collection pauses reflect the package's allocations, not the harness's.
    gc.freeze()
    kernels = job["workload"] in ("kernels", "kernels-edge")
    checked = census(job["inputs"], job["refs"]) if kernels else None
    if job["mode"] == "timed":
        unit, reference, pooled = _unit(job)
        ran = run_ops(_ops(job, "timed"), seconds=job["seconds"], unit=unit)
        # Taken before summarising, whose sorted copies are the harness's, not the package's.
        usage = resource.RUSAGE_CHILDREN if job["workload"] == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        result = summarise(*ran, reference=reference, pooled=pooled)
        result["peak_rss_mb"] = peak_rss_mb
        result["census"] = checked
        print(json.dumps(result))
        return
    count = job["trace_ops"]
    result = {"census": checked}
    if job["untraced_first"]:
        # One pass to warm caches and lazy set-up first: the overhead compares
        # two warm passes over the same ops.
        run_ops(_ops(job, "trace"), count=count)
        result["untraced"] = summarise(*run_ops(_ops(job, "trace"), count=count))
    recorder = Recorder()
    # The CLI's layers run in child processes: their split is taken from
    # -X importtime, and no in-process span is recorded.
    split_log = [] if job["workload"] == "cli" else None
    if split_log is None:
        recorder.install()
    ran = run_ops(_ops(job, "trace", split_log), count=count, recorder=recorder)
    result["traced"] = summarise(*ran)
    result["layers"] = recorder.metrics()
    recorder.write(job["spans_path"])
    if split_log is not None:
        result["startup_calls"] = [[wall, split] for wall, split in zip(ran[0], split_log)
                                   if split is not None]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
