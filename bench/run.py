#!/usr/bin/env python3
"""Benchmark of the three log-Z routes of coulombgas.

    python3 bench/run.py                          # every workload, untraced
    python3 bench/run.py --trace 1                # every workload, traced
    python3 bench/run.py --workload exact-sweep --seed 3 --seconds 10 --trace 0

Each workload is a closed loop with one client in one process: the next op
starts when the previous one has returned and been checked.  The loop runs
whole passes over the workload's seeded op list until --seconds have
elapsed at a pass boundary, so a run is at least one pass.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; --out also writes the full result record.  See
README.md for the workloads, the metrics and the correctness bounds.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

T0 = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# name, unit, better, bound (share of the parent's median it may worsen by).
# BENCHMARK.json lists the same entries.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("pass_frac", "frac", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("norms_per_s", "1/s", "higher", 0.25),
)
# Printed and recorded, compared by compare.py, but not in BENCHMARK.json,
# whose metrics must never read 0: fail_frac is 0 wherever nothing fails.
EXTRA = (
    ("fail_frac", "frac", "lower", 0.05),
)

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def import_package():
    """Import coulombgas from the checkout's own src/, never from elsewhere."""
    pkg = SRC / "coulombgas"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no coulombgas sources at {pkg.relative_to(ROOT)}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import coulombgas

    if Path(coulombgas.__file__).resolve().parent != pkg:
        sys.exit(f"error: imported coulombgas from {coulombgas.__file__}, not {pkg}")
    return coulombgas


@dataclass
class OpResult:
    index: int
    ok: bool
    wrong: bool
    detail: str
    seconds: float
    probe: float = 0.0  # speed_probe() time just before the op


# The machine this runs on changes speed by up to 2x over tens of seconds
# (other tenants), and a kernel that uses nothing from coulombgas slows down
# with it.  Timed metrics are therefore reported in reference seconds: wall
# time divided by the pass's speed factor, its median probe time over
# SPEED_REF_S (set-up time by the run's median factor).  The raw values are
# recorded.
SPEED_REF_S = 0.004


def speed_probe():
    """A fixed interpreter-bound bisection plus small-array numpy kernel,
    about 4 ms, sharing no code with the package under test."""
    acc = 0.0
    x = np.linspace(0.5, 2.0, 15)
    for k in range(300):
        lo, hi = 0.0, 10.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mid * mid - 2.0 - k * 1e-3 > 0.0:
                hi = mid
            else:
                lo = mid
        y = np.exp(-(x * mid) ** 2) * np.log(x + k)
        acc += float(y @ x) + lo
    return acc


def speed_factors(results, size):
    """Per op: the median probe time of its pass (`size` ops) over SPEED_REF_S."""
    factors = []
    for start in range(0, len(results), size):
        chunk = results[start:start + size]
        factor = statistics.median(r.probe for r in chunk) / SPEED_REF_S
        factors += [factor] * len(chunk)
    return factors


TAIL_BEYOND = 10


def tail_percentile(pass_size):
    """The highest percentile with at least TAIL_BEYOND ops beyond it in a
    run of one pass.  Longer runs use the same percentile, so the tail does
    not move with the number of passes a run happens to complete.  A pass
    of TAIL_BEYOND ops or fewer has no such percentile: the maximum is used
    and the record marks it."""
    if pass_size <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (pass_size - TAIL_BEYOND) / pass_size


def tail(samples, pct):
    """Nearest-rank percentile pct of samples: (value, n)."""
    xs = sorted(samples)
    rank = max(math.ceil(pct / 100.0 * len(xs) - 1e-9), 1)
    return xs[rank - 1], len(xs)


def run_op(op, index, clock=time.perf_counter):
    """Call, then check.  A call that raises is a failure; a value that
    misses its bound, or a check that cannot read it, is a wrong value."""
    t0 = clock()
    try:
        value = op.call()
    except Exception as exc:  # the loop records every failing op and goes on
        return OpResult(index, False, False, f"{type(exc).__name__}: {exc}", clock() - t0)
    try:
        ok, detail = op.check(value)
    except Exception as exc:
        ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
    return OpResult(index, ok, not ok, detail, clock() - t0)


def run_loop(ops, seconds, sequence=None, tracer=None):
    """Closed loop over ops.  Without a sequence it runs whole passes over
    the list until `seconds` have elapsed at a pass boundary, timing
    speed_probe() before each op; with one it replays exactly those indices
    under the tracer.  Returns the op results and the loop wall time."""
    clock = time.perf_counter
    results = []
    root = tracer.enter("bench", "loop") if tracer else None
    start = clock()
    k = 0
    while True:
        if sequence is not None:
            if k >= len(sequence):
                break
            i = sequence[k]
        else:
            i = k % len(ops)
            if i == 0 and k and clock() - start >= seconds:
                break
        if tracer:
            results.append(tracer.span("bench", "op", run_op, ops[i], i))
        else:
            t0 = clock()
            speed_probe()
            probe = clock() - t0
            res = run_op(ops[i], i)
            res.probe = probe
            results.append(res)
        k += 1
    wall = clock() - start
    if tracer:
        tracer.exit(root)
    return results, wall


def end_to_end(ops, results, setup):
    """End-to-end metrics of an untraced run of whole passes, given the
    raw set-up samples.  Times are in reference seconds; rates are the
    median over passes."""
    size = len(ops)
    factors = speed_factors(results, size)
    times = [r.seconds / f for r, f in zip(results, factors)]
    passed = [r for r in results if r.ok]
    tail_pct = tail_percentile(size)
    tail_value, n = tail(times, tail_pct)
    passes = [range(p, p + size) for p in range(0, len(results), size)]

    def rate(weight):
        return statistics.median([sum(weight(results[i]) for i in ps if results[i].ok)
                             / sum(times[i] for i in ps) for ps in passes])

    values = {
        "setup_s": statistics.median(setup) / statistics.median(factors),
        "ops_per_s": rate(lambda r: 1),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "pass_frac": len(passed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "norms_per_s": rate(lambda r: ops[r.index].norms),
        "fail_frac": (n - len(passed)) / n,
    }
    raw = [r.seconds for r in results]
    extra = {
        "tail": {"percentile": tail_pct, "samples": n,
                 "too_few_samples": n - math.ceil(tail_pct / 100.0 * n - 1e-9) < TAIL_BEYOND},
        "speed_factor": statistics.median(factors),
        "raw": {"setup_s": statistics.median(setup),
                "op_p50_s": statistics.median(raw), "op_tail_s": tail(raw, tail_pct)[0],
                "ops_per_s": len(passed) / sum(raw)},
    }
    return values, extra


def per_layer(tracer, traced_wall, untraced_wall):
    t = tracer
    q = t.quad
    lne = t.durations[("norms", "log_norm_exact")]
    total_self = sum(row[1] for row in t.totals.values())
    pot_calls = t.layer_calls("potential")
    m = {
        "potential.calls": (pot_calls, "count"),
        "potential.points": (t.potential_points, "count"),
        "potential.points_per_call": (t.potential_points / pot_calls if pot_calls else 0.0, "count"),
        "potential.self_s": (t.layer_self("potential"), "s"),
        "droplet.solve_r_tau.calls": (t.row("droplet", "solve_r_tau")[0], "count"),
        "droplet.solve_r_tau.self_s": (t.row("droplet", "solve_r_tau")[1], "s"),
        "droplet.droplet_of.calls": (t.row("droplet", "droplet_of")[0], "count"),
        "droplet.droplet_of.self_s": (t.row("droplet", "droplet_of")[1], "s"),
        "quadrature.calls": (q["calls"], "count"),
        "quadrature.rounds": (q["rounds"], "count"),
        "quadrature.panels": (q["panels"], "count"),
        "quadrature.useful_frac": (q["final_panels"] / q["panels"] if q["panels"] else 0.0, "frac"),
        "quadrature.self_s": (t.layer_self("quadrature"), "s"),
        "quadrature.integrand_s": (q["integrand_s"], "s"),
        "quadrature.failed": (q["failed"], "count"),
        "quadrature.fail_s": (q["fail_s"], "s"),
        "norms.log_norm_exact.calls": (t.row("norms", "log_norm_exact")[0], "count"),
        "norms.log_norm_exact.p50_s": (statistics.median(lne) if lne else 0.0, "s"),
        "norms.self_s": (t.layer_self("norms"), "s"),
        "partition.log_z_exact.self_s": (t.row("partition", "log_z_exact")[1], "s"),
        "partition.lemma_sum.self_s": (t.row("partition", "lemma_sum")[1], "s"),
        "partition.convergence_study.self_s": (t.row("partition", "convergence_study")[1], "s"),
        "partition.expansion_terms.self_s": (t.row("partition", "expansion_terms")[1], "s"),
        "equilibrium.calls": (t.layer_calls("equilibrium"), "count"),
        "equilibrium.self_s": (t.layer_self("equilibrium"), "s"),
        "equilibrium.panels": (t.panels_by_caller.get("equilibrium", 0.0), "count"),
        "oracles.calls": (t.layer_calls("oracles"), "count"),
        "oracles.self_s": (t.layer_self("oracles"), "s"),
        "specialfn.ln_barnes_g.calls": (t.row("specialfn", "ln_barnes_g")[0], "count"),
        "specialfn.self_s": (t.layer_self("specialfn"), "s"),
        "cli.main.calls": (t.row("cli", "main")[0], "count"),
        "cli.self_s": (t.layer_self("cli"), "s"),
        "bench.self_s": (t.layer_self("bench"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.accounted_frac": ((total_self - t.excess) / traced_wall, "frac"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# Accounting tolerance: layer self times plus the benchmark's own time must
# cover the traced wall time to within this share.
ACCOUNTING_TOL = 0.01


def setup(name, seed):
    """Everything before the measured loop: import, inputs, potentials and
    one uncounted warm-up op."""
    import_package()
    import workloads

    wl = workloads.build(name, seed, threads=os.cpu_count() or 1)
    warm = run_op(wl.warmup, -1)
    if not warm.ok:
        sys.exit(f"error: warm-up op failed: {warm.detail}")
    return wl


def setup_samples(name, seed):
    """Set-up time of fresh processes, from spawn until the workload is ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up probe exited with {proc.returncode}")
        samples.append(elapsed)
    return samples


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment():
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def op_kinds(wl, results):
    """Count and median time per kind of op, for reading where time goes."""
    kinds = {}
    for r in results:
        spec = wl.ops[r.index].spec
        kind = spec["op"] if spec["op"] != "cli" else "cli " + spec["argv"][0]
        kinds.setdefault(kind, []).append(r.seconds)
    return {k: {"count": len(v), "median_s": statistics.median(v), "total_s": sum(v)}
            for k, v in sorted(kinds.items())}


def failures(wl, results):
    return [{"input": wl.ops[r.index].spec, "kind": "wrong" if r.wrong else "raised",
             "error": r.detail, "time_to_fail_s": r.seconds} for r in results if not r.ok]


def run_workload(args):
    wl = setup(args.workload, args.seed)
    main_setup = time.perf_counter() - T0
    samples = setup_samples(args.workload, args.seed)
    results, wall = run_loop(wl.ops, args.seconds)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_at": time.time(), **environment(),
        "setup_samples_s": samples, "setup_main_s": main_setup,
        "ops_in_list": len(wl.ops), "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "correct": not any(r.wrong for r in results),
    }
    values, extra = end_to_end(wl.ops, results, samples)
    record.update(extra)
    record["op_samples"] = [[r.index, r.seconds, r.probe, r.ok] for r in results]
    record["wall_s"] = wall
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit, _, _ in END_TO_END + EXTRA}
    if args.trace:
        sequence = [r.index for r in results]
        from spans import Tracer
        import coulombgas

        tracer = Tracer().install(coulombgas)
        try:
            traced, traced_wall = run_loop(wl.ops, 0, sequence=sequence, tracer=tracer)
        finally:
            tracer.uninstall()
        record["per_layer"] = per_layer(tracer, traced_wall, sum(r.seconds for r in results))
        record["absent"] = tracer.absent
        record["traced_failed"] = sum(not r.ok for r in traced)
        record["correct"] = record["correct"] and not any(r.wrong for r in traced)
        results = traced
    record["op_kinds"] = op_kinds(wl, results)
    record["failures"] = failures(wl, results)
    return record


def summary_lines(record):
    w = record["workload"]
    lines = [f"# {w} seed={record['seed']} ops={record['attempted']} "
             f"failed={record['failed']} correct={record['correct']} "
             f"nproc={record['nproc']} sha={record['git_sha'][:12]}"]
    for name, m in record["metrics"].items():
        lines.append(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    tail = record["tail"]
    lines.append(f"{w} op_tail_s is p{tail['percentile']:.1f} of {tail['samples']} ops"
                 + (" (fewer than 10 ops beyond it)" if tail["too_few_samples"] else ""))
    raw = record["raw"]
    lines.append(f"{w} times are reference seconds: machine speed factor "
                 f"{record['speed_factor']:.3f}; raw wall setup_s = {raw['setup_s']:.6g} s, "
                 f"op_p50_s = {raw['op_p50_s']:.6g} s, "
                 f"op_tail_s = {raw['op_tail_s']:.6g} s, ops_per_s = {raw['ops_per_s']:.6g} 1/s")
    for name, m in record.get("per_layer", {}).items():
        lines.append(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    if "per_layer" in record:
        acc = record["per_layer"]["trace.accounted_frac"]["value"]
        verdict = "ok" if abs(acc - 1.0) <= ACCOUNTING_TOL else "MISSED"
        lines.append(f"{w} accounting {verdict}: layers + bench = {acc:.4f} of traced wall "
                     f"(tolerance {ACCOUNTING_TOL})")
        if record["absent"]:
            lines.append(f"{w} absent attributes: {', '.join(record['absent'])}")
    for f in record["failures"]:
        lines.append(f"{w} FAILED ({f['kind']}, {f['time_to_fail_s']:.3f} s) "
                     f"{json.dumps(f['input'])}: {f['error'][:300]}")
    return lines


def result_line(record):
    key = "per_layer" if record["trace"] else "metrics"
    names = [n for n, *_ in END_TO_END] if not record["trace"] else list(record[key])
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record[key][n] for n in names},
    })


def kept_workloads():
    """The workloads BENCHMARK.json lists, in its order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    out_dir = Path(args.results_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in kept_workloads():
        out = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}: {proc.stderr.strip()}")
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result record here")
    parser.add_argument("--results-dir", default=str(BENCH / "results"),
                        help="where --workload all writes its records")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return
    if args.workload == "all":
        import_package()
        run_all(args)
        return
    record = run_workload(args)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary_lines(record)))
    print(result_line(record))


if __name__ == "__main__":
    main()
