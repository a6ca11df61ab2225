"""Tests of the benchmark's own logic: span arithmetic, tail selection,
seeded inputs, failure accounting, compare verdicts and BENCHMARK.json."""

import json
import statistics
import threading
import time

import pytest

import run

run.import_package()

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (1.5, 2.5)]) == 3.0
    assert spans.union_length([(0.0, 5.0), (1.0, 2.0)]) == 5.0


def test_self_time_with_overlapping_pool_children():
    # Two pool-thread children overlap on [2, 4]; a same-thread child sits after them.
    own, excess = spans.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 6.0), (7.0, 8.0)])
    assert own == pytest.approx(10.0 - 6.0)
    assert excess == pytest.approx((3.0 + 4.0 + 1.0) - 6.0)


def test_pool_spans_name_their_parent_and_account_for_wall():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    executor = tracer._executor(ThreadPoolExecutor)
    barrier = threading.Barrier(2)

    def child():
        frame = tracer.enter("norms", "child")
        barrier.wait(timeout=5)  # both children are open at once
        time.sleep(0.02)
        tracer.exit(frame)
        return frame.parent

    root = tracer.enter("bench", "loop")
    parent = tracer.enter("partition", "parent")
    with executor(max_workers=2) as pool:
        parents = list(pool.map(lambda _: child(), range(2)))
    tracer.exit(parent)
    wall = tracer.exit(root)

    assert parents == [parent, parent]
    assert tracer.excess > 0.0
    total_self = sum(row[1] for row in tracer.totals.values())
    assert total_self - tracer.excess == pytest.approx(wall, rel=1e-9)


def test_installed_tracer_counts_layers_and_restores_attributes():
    import coulombgas
    from coulombgas import norms, partition

    original = partition.log_norm_exact
    tracer = spans.Tracer().install(coulombgas)
    try:
        coulombgas.log_z_exact(coulombgas.Ginibre(), 5, "normal", threads=2)
    finally:
        tracer.uninstall()
    assert partition.log_norm_exact is original
    assert norms.integrate.__module__ == "coulombgas.quadrature"
    assert tracer.row("norms", "log_norm_exact")[0] == 5
    assert tracer.row("droplet", "solve_r_tau")[0] == 5
    assert tracer.quad["calls"] == 5
    assert tracer.layer_calls("potential") > 0
    assert tracer.absent == []


def test_tail_is_highest_percentile_with_ten_beyond_in_one_pass():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(8) == 100.0  # too small a pass: the record says so
    assert run.tail(list(range(1, 101)), 90.0) == (90, 100)
    # Three passes of 40 keep the one-pass percentile: 30 ops lie beyond it.
    assert run.tail([float(x) for x in range(120)], run.tail_percentile(40)) == (89.0, 120)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    def specs(seed):
        return [op.spec for op in workloads.build(name, seed).ops]

    first = specs(7)
    assert first == specs(7)
    assert json.loads(json.dumps(first)) == first
    assert first != specs(8)


def test_exact_large_seed_zero_is_the_reference_set():
    specs = [op.spec for op in workloads.build("exact-large", 0).ops]
    families = [(s["potential"]["family"], s["ensemble"]) for s in specs]
    assert len(specs) == 8 and all(s["N"] == 400 for s in specs)
    assert families.count(("ginibre", "symplectic")) == 1


def test_wrong_value_counts_as_failure():
    spec = {"family": "ml", "lam": 1.0, "c": 1.0}
    pots = workloads._Potentials()
    good = workloads.exact_op(pots, spec, 10, "normal")
    bad = workloads.exact_op(pots, spec, 10, "normal")
    truth = workloads.oracle_log_z(spec, 10, "normal")
    bad.call = lambda: truth + 1e-6
    results = [run.run_op(good, 0), run.run_op(bad, 1)]
    for r in results:
        r.seconds, r.probe = 0.5, run.SPEED_REF_S
    assert results[0].ok and not results[0].wrong
    assert not results[1].ok and results[1].wrong
    values, _ = run.end_to_end([good, bad], results, [0.1])
    assert values["fail_frac"] == 0.5
    assert values["pass_frac"] == 0.5
    assert values["norms_per_s"] == 10.0


def test_speed_factor_is_the_median_probe_of_each_pass():
    probes = [0.004, 0.040, 0.004, 0.008, 0.008, 0.004]
    results = [run.OpResult(i % 3, True, False, "", 1.0, probe) for i, probe in enumerate(probes)]
    assert run.speed_factors(results, 3) == pytest.approx([1.0] * 3 + [2.0] * 3)
    ops = [workloads.Op({}, None, None)] * 3
    values, extra = run.end_to_end(ops, results, [0.3])
    assert extra["raw"]["setup_s"] == 0.3
    assert values["setup_s"] == pytest.approx(0.3 / 1.5)  # median factor of (1, 1, 1, 2, 2, 2)
    # The second pass ran at half speed: its ops take 0.5 reference seconds.
    assert extra["raw"]["op_p50_s"] == 1.0
    assert values["op_p50_s"] == pytest.approx(0.75)
    assert values["ops_per_s"] == pytest.approx(statistics.median([1.0, 2.0]))


def test_raising_call_is_a_failure_not_a_wrong_value():
    op = workloads.Op({"op": "boom"}, lambda: 1 / 0, lambda v: (True, ""))
    res = run.run_op(op, 0)
    assert not res.ok and not res.wrong
    assert res.detail.startswith("ZeroDivisionError")


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [0.80 + 0.001 * i for i in range(10)]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, [1.3] * 10, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent[::-1], "lower", 0.1)[0] == "within bound"
    assert compare.verdict(parent[:9], faster[:9], "lower", 0.1)[0] == "unresolved"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    zeros = [0.0] * 10
    assert compare.verdict(zeros, zeros, "lower", 0.05)[0] == "within bound"
    assert compare.verdict(zeros, [0.01] * 10, "lower", 0.05)[0] == "worse"
    assert compare.alternating([0, 3, 4, 7], [1, 2, 5, 6])
    assert not compare.alternating([0, 2], [1, 3])


def test_benchmark_json_matches_the_metric_table():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]]
    assert listed == list(run.END_TO_END)
    assert all(w["name"] in workloads.WORKLOADS for w in doc["workloads"])
    assert doc["command"] == ["python3", "bench/run.py"]
    layer_names = list(run.per_layer(spans.Tracer(), 1.0, 1.0))
    assert [m["name"] for m in doc["per_layer"]] == layer_names
