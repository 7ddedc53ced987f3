"""Self-checks of the market-loop benchmark (not part of the tier-1 suite).

    python -m pytest marketbench/selftest.py -q

* the op sequence is a pure function of the seed;
* two runs of one seed repeat every count exactly;
* the probe correction recovers op timings through a known slow window,
  and sparse probing is refused while a single stall is tolerated;
* per-layer self time subtracts exactly the child spans;
* in a directory holding only the benchmark, the command fails without
  printing a result.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------------
# op sequences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: corpus.trade_cycles(seed, 40, corpus.DOMAIN_ORDER, False),
    lambda seed: corpus.trade_cycles(seed, 40, corpus.DOMAIN_ORDER[:2], True),
    lambda seed: corpus.ingest_cycles(seed, 40),
], ids=["trade", "http", "ingest"])
def test_op_sequence_is_a_pure_function_of_the_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_rows_are_a_pure_function_of_the_spec():
    spec = corpus.ingest_base(3)[0]
    assert corpus.build_rows(spec) == corpus.build_rows(spec)


def test_ingest_registers_equal_retires():
    cycles = corpus.ingest_cycles(5, 300)
    kinds = [cycle[0][0] for cycle in cycles]
    assert kinds.count("register") == kinds.count("retire") == 100


def test_domains_never_name_match_across_each_other():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.discovery.profiler import name_similarity

    names = {
        d: (key, *attrs) for d, (key, attrs) in corpus.DOMAINS.items()
    }
    for a, b in itertools.combinations(names, 2):
        for x, y in itertools.product(names[a], names[b]):
            assert name_similarity(x, y) < 0.55, (x, y)


# ---------------------------------------------------------------------------
# probe correction
# ---------------------------------------------------------------------------

def test_correction_recovers_timings_through_a_slow_window():
    slow = (5.0, 7.0)
    times = [0.05 * i for i in range(241)]                  # 0 .. 12 s
    durations = [
        probe.PROBE_REF_S * (1.5 if slow[0] <= t <= slow[1] else 1.0)
        for t in times
    ]
    true_ms = 10.0
    recovered = {"slow": [], "fast": []}
    for k in range(110):
        start = 0.1 * k + 0.013
        inside = slow[0] <= start <= slow[1]
        end = start + (1.5 if inside else 1.0) * true_ms / 1e3
        if min(abs(start - slow[0]), abs(start - slow[1])) < 0.25:
            continue        # the correction blends probes across an edge
        factor = probe.correction_factor(times, durations, start, end)
        recovered["slow" if inside else "fast"].append(
            1e3 * (end - start) * factor
        )
    assert len(recovered["slow"]) >= 10 and len(recovered["fast"]) >= 80
    for values in recovered.values():
        assert values == pytest.approx([true_ms] * len(values), rel=1e-9)


def test_probe_gap_rule_tolerates_one_stall_but_not_sparse_probes():
    even = [0.05 * i for i in range(401)]               # 20 s, every 50 ms
    assert probe.gap_p95(even, 0.0, 20.0) <= probe.MAX_PROBE_GAP_S
    stalled = [t for t in even if not 5.0 < t < 5.4]    # one 0.45 s op
    assert probe.gap_p95(stalled, 0.0, 20.0) <= probe.MAX_PROBE_GAP_S
    sparse = even[::6]                                  # every 0.3 s
    assert probe.gap_p95(sparse, 0.0, 20.0) > probe.MAX_PROBE_GAP_S


def test_probe_runs_with_the_collector_off():
    import gc

    assert gc.isenabled()
    assert probe.probe_once() > 0
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# per-layer self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_child_spans_and_pairs_the_wire():
    log = [
        [1, "integration.plan", 0.0, 10.0, None, None, {"hit": 0}],
        [2, "relation.exec", 2.0, 5.0, 1, None, {"rows": 7}],
        [3, "relation.exec", 3.0, 4.0, 2, None, {"rows": 1}],
        [4, "http.client", 20.0, 30.0, None, None, None],
        [5, "http.codec", 20.0, 21.0, 4, None, None],
    ]
    server = spans.shifted([[1, "http.server", 22.0, 28.0, None, None,
                             {"status": 200}]], 10**9)
    out = spans.layer_metrics(log + server, [(0.0, 100.0)], deliveries=0,
                              scale=lambda a, b: 1.0)
    assert out["integration.plan.busy_ms"] == pytest.approx(7e3)
    assert out["relation.exec.busy_ms"] == pytest.approx(3e3)
    assert out["relation.exec.calls"] == 1          # nested call is one
    assert out["relation.rows_out"] == 8
    assert out["http.server.busy_ms"] == pytest.approx(6e3)
    assert out["http.wire.busy_ms"] == pytest.approx(3e3)   # 10 - 1 - 6


def test_benchmark_json_names_exactly_the_reported_metrics():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def _run(workload: str, seed: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "marketbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def _counts(workload: str, seed: int) -> dict:
    out = _run(workload, seed)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    record = json.loads(next(
        line for line in lines if line.startswith("record: ")
    )[len("record: "):])
    ratio = result["metrics"]["store_bytes_per_input_byte"]["value"]
    return {**record["counts"], "store_bytes_per_input_byte": ratio}


@pytest.mark.parametrize("workload", ["trade", "ingest", "http"])
def test_two_runs_of_one_seed_repeat_every_count(workload):
    first, second = _counts(workload, 11), _counts(workload, 11)
    assert first == second
    if workload != "ingest":
        assert first["plan_cache_hits"] > 0 and first["deliveries"] > 0


def test_a_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "marketbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run("trade", 1, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
