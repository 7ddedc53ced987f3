"""Market-loop benchmark: the paper's trading loop, timed end to end.

One command runs one workload from a seed and checks its outputs::

    python3 marketbench/run.py --workload trade --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with one client, op sequence a pure function
of ``--seed``, live dataset count stationary):

``trade``   in-process ``DataMarket`` on a durable store; per cycle 1 seller
            update, 4 searches, 2 plans materialised, 3 buyer WTPs and one
            ``run_round`` over 4 independent domains.
``ingest``  in-process ``MarketService`` cold-started from a base store; per
            cycle one write ticket (register, update or retire of a tall or
            wide dataset) with 3 searches and 1 browse issued while the
            writer applies it.
``http``    the ``trade`` cycle over 2 domains plus 1 browse, driven through
            ``MarketClient`` against ``python -m repro.platform.http``.

Each run re-executes itself with a fixed ``PYTHONHASHSEED``, pinned to one
CPU (the gateway inherits the pin), and corrects every op's wall time by a
CPU-speed probe (see ``probe.py``).  The number of measured cycles is a
fixed function of ``--seconds`` (about that long at the reference speed),
so every count repeats exactly for one seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, without and then with the per-layer span wrappers of
``spans.py``, and prints the per-layer metrics of the second pass (its one
set-up and its measured cycles) plus ``trace.overhead``, the ratio of the
two passes' ``ops_per_s``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give every metric with its unit and sample count (including the per-class
``plan``/``round``/``browse`` latencies and ``failed_share``, which not
every workload has), any failed output check, and a ``record`` line with
raw wall times, the probe median, CPU used and the exact counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import workloads
from probe import MAX_PROBE_GAP_S, ProbeClock

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"
WORKLOADS = ("trade", "ingest", "http")

#: end-to-end metric -> unit, as in BENCHMARK.json; every workload reports
#: these (the per-class plan/round/browse latencies and ``failed_share``
#: are printed, with their units, for the workloads that have them)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cycle_p50_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "search_p50_ms": "ms",
    "search_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "store_bytes_per_input_byte": "ratio",
}
#: op classes with latency metrics printed for the workloads that issue them
OP_CLASSES = ("write", "search", "browse", "plan", "round")


def pin_and_reexec() -> None:
    """Pin to one CPU and re-exec under the fixed hash seed (once)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]], env)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Phase:
    """One pass of a workload: set-ups, warm-up, measured cycles, checks."""

    def __init__(self, loop, seconds: int, work: Path, setups: int):
        self.loop, self.work = loop, work
        self.clock = ProbeClock()
        self.setups = setups
        self.n_cycles = workloads.cycles_for(loop.name, seconds)

    def run(self) -> dict:
        loop, clock = self.loop, self.clock
        cycles = loop.cycles(workloads.WARMUP_CYCLES + self.n_cycles)
        setup_log = workloads.OpLog(recorder=loop.recorder)
        setup_s, setup_raw = [], []
        for k in range(self.setups):
            work = self.work / f"setup{k}"
            work.mkdir(parents=True)
            first = len(setup_log.ops)
            clock.probe()
            clock.probe()
            start = time.perf_counter()
            loop.setup(work, clock, setup_log)
            end = time.perf_counter()
            clock.probe()
            clock.probe()
            ops = setup_log.ops[first:]
            setup_s.append(sum(clock.corrected(a, b) for _, a, b in ops))
            setup_raw.append(sum(b - a for _, a, b in ops))
            self.setup_window = (start, end)

        warm = workloads.OpLog(recorder=loop.recorder)
        for ops in cycles[:workloads.WARMUP_CYCLES]:
            loop.run_cycle(ops, clock, warm)
        log = workloads.OpLog(recorder=loop.recorder)
        clock.probe()
        start, cpu = time.perf_counter(), time.process_time()
        for ops in cycles[workloads.WARMUP_CYCLES:]:
            loop.run_cycle(ops, clock, log)
        end, cpu = time.perf_counter(), time.process_time() - cpu
        clock.probe()
        self.window = (start, end)
        finish = loop.finish()
        failures = loop.check()
        for name, phase_log in (("set-up", setup_log), ("warm-up", warm),
                                ("measured", log)):
            if phase_log.failed:
                failures.append(
                    f"{phase_log.failed} {name} ops failed: "
                    f"{phase_log.errors}"
                )
        gap = clock.gap_p95(start, end)
        if gap > MAX_PROBE_GAP_S:
            raise InvalidRun(
                f"probe spacing broke the rule: 95th percentile gap "
                f"{gap:.3f} s (limit {MAX_PROBE_GAP_S} s)"
            )
        return self._summarize(log, setup_s, setup_raw, finish, failures,
                               cpu, gap)

    def _summarize(self, log, setup_s, setup_raw, finish, failures, cpu,
                   gap) -> dict:
        clock = self.clock
        by_class: dict[str, list[float]] = {}
        raw_by_class: dict[str, list[float]] = {}
        for kind, a, b in log.ops:
            by_class.setdefault(kind, []).append(1e3 * clock.corrected(a, b))
            raw_by_class.setdefault(kind, []).append(1e3 * (b - a))
        cycle_ms = [1e3 * sum(clock.corrected(a, b) for a, b in c)
                    for c in log.cycles]
        raw_cycle_ms = [1e3 * sum(b - a for a, b in c) for c in log.cycles]
        live_input = workloads.json_bytes(self.loop.live.values())
        metrics = {
            "setup_s": (median(setup_s), len(setup_s)),
            "ops_per_s": (len(log.ops) / (sum(cycle_ms) / 1e3), len(log.ops)),
            "cycle_p50_ms": (percentile(cycle_ms, 0.5), len(cycle_ms)),
            "cycle_p90_ms": (percentile(cycle_ms, 0.9), len(cycle_ms)),
            "peak_rss_mb": (finish["peak_rss_mb"], 1),
            "store_bytes_per_input_byte": (
                finish["store_bytes"]["used"] / live_input, 1
            ),
        }
        for kind in OP_CLASSES:
            if kind in by_class:
                values = by_class[kind]
                metrics[f"{kind}_p50_ms"] = (percentile(values, 0.5),
                                             len(values))
                metrics[f"{kind}_p90_ms"] = (percentile(values, 0.9),
                                             len(values))
        metrics["failed_share"] = (log.failed / log.attempted, log.attempted)
        record = {
            "raw_setup_s": median(setup_raw),
            "raw_ops_per_s": len(log.ops) / (sum(raw_cycle_ms) / 1e3),
            "raw_p50_ms": {k: percentile(v, 0.5)
                           for k, v in sorted(raw_by_class.items())},
            "raw_cycle_p50_ms": percentile(raw_cycle_ms, 0.5),
            "probe_median_ms": 1e3 * clock.median_probe(),
            "probes": len(clock.durations),
            "probe_gap_p95_s": gap,
            "cpu_s": cpu,
            "wall_s": self.window[1] - self.window[0],
            "cycles": len(log.cycles),
            "counts": dict(sorted(log.counts.items()), **{
                "store_file_bytes": finish["store_bytes"]["file"],
                "store_used_bytes": finish["store_bytes"]["used"],
                "live_input_bytes": live_input,
            }),
        }
        if "gateway_cpu_s" in finish:
            record["gateway_cpu_s"] = finish["gateway_cpu_s"]
        return {"metrics": metrics, "record": record, "failures": failures,
                "attempted": log.attempted, "failed": log.failed,
                "deliveries": log.counts.get("deliveries", 0),
                "store_bytes": finish["store_bytes"]["used"]}


class InvalidRun(RuntimeError):
    """The run broke a measurement rule; its numbers are not reported."""


def make_loop(workload: str, seed: int, work: Path, recorder=None,
              spans_path: Path | None = None):
    if workload == "trade":
        return workloads.TradeLoop(seed, recorder)
    if workload == "http":
        return workloads.HttpLoop(seed, ROOT, recorder, spans_path)
    base = work / "base.db"
    if not base.exists():
        workloads.IngestLoop.build_base(ROOT, seed, base)
    return workloads.IngestLoop(seed, ROOT, base, recorder)


def run_phase(workload, seed, seconds, work: Path, setups=None,
              recorder=None, spans_path=None) -> dict:
    loop = make_loop(workload, seed, work.parent, recorder, spans_path)
    phase = Phase(loop, seconds, work,
                  setups if setups is not None else workloads.SETUP_REPEATS)
    try:
        out = phase.run()
    finally:
        loop.close()
    out["windows"] = [phase.setup_window, phase.window]
    out["scale"] = phase.clock.factor
    return out


def traced_metrics(workload, seed, seconds, work: Path) -> dict:
    """The untraced and the traced pass of ``--trace 1``."""
    import spans

    untraced = run_phase(workload, seed, seconds, work / "untraced",
                         setups=1)
    recorder = spans.Recorder()
    spans.install(recorder)
    spans_path = work / "gateway-spans.jsonl"
    traced = run_phase(workload, seed, seconds, work / "traced", setups=1,
                       recorder=recorder, spans_path=spans_path)
    all_spans = list(recorder.spans)
    if spans_path.exists():
        all_spans += spans.shifted(spans.load(spans_path), 10**9)
    layer = spans.layer_metrics(all_spans, traced["windows"],
                                traced["deliveries"], traced["scale"])
    layer["store.bytes"] = traced["store_bytes"]
    layer["trace.overhead"] = (traced["metrics"]["ops_per_s"][0]
                               / untraced["metrics"]["ops_per_s"][0])
    failures = untraced["failures"] + traced["failures"]
    for name in spans.BYPASSED[workload]:
        if layer[f"{name}.calls"]:
            failures.append(
                f"{workload} reached bypassed layer {name} "
                f"({layer[f'{name}.calls']:.0f} calls)"
            )
    spans.dump(all_spans, work.parent / f"trace-{workload}-{seed}.jsonl")
    return {"layer": layer, "failures": failures,
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "record": {"untraced": untraced["record"],
                       "traced": traced["record"]}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Market-loop benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_and_reexec()
    sys.path.insert(0, str(ROOT / "src"))

    runs = ROOT / ".bench_runs"
    work = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            out = traced_metrics(args.workload, args.seed, args.seconds, work)
        else:
            out = run_phase(args.workload, args.seed, args.seconds,
                            work / "run")
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, out)


def report(args, out: dict) -> int:
    import spans

    print(f"marketbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        metrics = {name: {"value": out["layer"][name], "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    else:
        table = out["metrics"]
        for name, (value, n) in table.items():
            unit = END_TO_END.get(name, "ms" if name.endswith("_ms")
                                  else "ratio")
            print(f"  {name:30s} {value:14.4f} {unit:6s} n={n}")
        metrics = {name: {"value": table[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for failure in out["failures"]:
        print(f"CHECK FAILED: {failure}")
    print("record: " + json.dumps(out["record"], sort_keys=True))
    print(json.dumps({
        "correct": not out["failures"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
