"""Run one workload of the coxpres benchmark and print its metrics.

    python3 benchmark/run.py --workload groebner-frontier --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`. The
load is closed-loop: one client, one thread, each operation starting after
the previous one ends. With `--trace 0` the run repeats full passes over
the workload's operations until `--seconds` of pass time have elapsed and
reports the end-to-end metrics, every time on the reference-speed scale of
`speed.py`. With `--trace 1` it runs one plain pass and one traced pass,
reports the per-layer metrics and writes the spans to `.bench_out/`.

Every output is checked outside the timed region. The last line of
standard output is one JSON object; the exit code is 1 if any output was
wrong and 2 if the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_PASS = 3


def spec_metrics(kind: str) -> list[dict]:
    """The `end_to_end` or `per_layer` metrics BENCHMARK.json names: the
    names, units and directions the run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


class SetupTimer:
    """Seconds for a fresh interpreter to `import coxpres`, as measured and
    on the reference-speed scale. The first import, untimed, fills the
    bytecode cache."""

    def __init__(self, probe):
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        self.env = dict(os.environ, PYTHONPATH=path)
        self.cmd = [sys.executable, "-c", "import coxpres"]
        subprocess.run(self.cmd, env=self.env, check=True)
        self.probe = probe
        self.times: list[float] = []
        self.scaled: list[float] = []

    def measure(self) -> None:
        for _ in range(SETUP_PER_PASS):
            self.probe.sample()
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, check=True)
            t1 = time.perf_counter()
            self.probe.sample()
            self.times.append(t1 - t0)
            self.scaled.append(self.probe.scaled(t1 - t0, t0, t1))


def run_pass(ops, tracer=None, probe=None):
    """One pass: ((start, end, seconds) per operation, outputs). `seconds`
    leaves out the time the probe's samples took. An operation that raises
    yields its exception as output."""
    clock = time.perf_counter
    paused = (lambda: probe.paused) if probe else (lambda: 0.0)
    spans, outputs = [], []
    for op in ops:
        p0, t0 = paused(), clock()
        try:
            out = op.run() if tracer is None else tracer.run_op(op.name, op.run)
        except Exception as exc:  # a raising operation is a failed one
            traceback.print_exc()
            out = exc
        t1 = clock()
        spans.append((t0, t1, t1 - t0 - (paused() - p0)))
        outputs.append(out)
    return spans, outputs


def gate(ops, outputs, first=None):
    """(wrong outputs, summaries). Without `first`, every output goes through
    its operation's full check; otherwise it must equal the first pass."""
    wrong, summaries = 0, []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            wrong += 1
            summaries.append(None)
            continue
        try:
            summary = op.summary(out)
            bad = not op.ok(out) if first is None else summary != first[i]
        except Exception:
            traceback.print_exc()
            summary, bad = None, True
        if bad:
            print(f"wrong output: {op.name}", file=sys.stderr)
        wrong += bad
        summaries.append(summary)
    return wrong, summaries


def timed_run(ops, seconds, setup, probe):
    """Passes until `seconds` of pass time, each a list of (seconds,
    seconds on the reference-speed scale) per operation; between passes,
    and before the first, the set-up time is sampled, so the samples span
    the run."""
    passes, first = [], None
    attempted = failed = 0
    setup.measure()
    while not passes or sum(raw for p in passes for raw, _ in p) < seconds:
        with probe.sampling():
            spans, outputs = run_pass(ops, probe=probe)
        passes.append([(raw, probe.scaled(raw, t0, t1)) for t0, t1, raw in spans])
        bad, summaries = gate(ops, outputs, first)
        del outputs
        first = first or summaries
        attempted += len(ops)
        failed += bad
        setup.measure()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, rss_mb, attempted, failed


def traced_run(ops, workload, seed, names):
    from tracing import Tracer

    spans, outputs = run_pass(ops)
    wall_plain = sum(raw for _, _, raw in spans)
    failed, first = gate(ops, outputs)
    del outputs
    tracer = Tracer()
    tracer.install()
    try:
        spans, outputs = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    bad, _ = gate(ops, outputs, first)
    metrics = tracer.metrics(names)
    metrics["trace.overhead_frac"] = sum(raw for _, _, raw in spans) / wall_plain - 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return metrics, 2 * len(ops), failed + bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coxpres" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.build(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(ops)} operations per pass")

    if args.trace:
        metrics = spec_metrics("per_layer")
        values, attempted, failed = traced_run(
            ops, args.workload, args.seed, [m["name"] for m in metrics])
        for m in metrics:
            print(f"  {m['name']:42s} {values[m['name']]:>14.6g} {m['unit']}")
        print(f"  ops_failed_frac {failed / attempted:.4f}: "
              f"{failed} of {attempted} outputs")
    else:
        from speed import REF_S, SpeedProbe

        metrics = spec_metrics("end_to_end")
        probe = SpeedProbe()
        setup = SetupTimer(probe)
        passes, rss_mb, attempted, failed = timed_run(ops, args.seconds, setup, probe)
        walls = [sum(scaled for _, scaled in p) for p in passes]
        slowest = [max(range(len(ops)), key=lambda i: p[i][1]) for p in passes]
        values = {
            "wall_s": statistics.median(walls),
            "slowest_op_s": statistics.median(p[i][1] for p, i in zip(passes, slowest)),
            "setup_s": statistics.median(setup.scaled),
            "peak_rss_mb": rss_mb,
        }
        raw_walls = [sum(raw for raw, _ in p) for p in passes]
        print(f"  times on the scale where the reference takes {REF_S * 1e3:g} ms; "
              f"it took a median {statistics.median(probe.took) * 1e3:.2f} ms "
              f"over {len(probe.took)} samples")
        print("  passes (s):", " ".join(f"{w:.3f}" for w in walls))
        print("  as measured:", " ".join(f"{w:.3f}" for w in raw_walls))
        print(f"  wall_s          {values['wall_s']:10.4f} s   median of {len(passes)} "
              f"passes; as measured {statistics.median(raw_walls):.4f} s")
        print(f"  slowest_op_s    {values['slowest_op_s']:10.4f} s   median over "
              f"{len(passes)} passes of each pass's slowest operation; "
              f"{ops[statistics.mode(slowest)].name} most often")
        print(f"  ops_failed_frac {failed / attempted:10.4f}     "
              f"{failed} of {attempted} outputs")
        print(f"  setup_s         {values['setup_s']:10.4f} s   median of "
              f"{len(setup.times)} fresh interpreters; as measured "
              f"{statistics.median(setup.times):.4f} s")
        print(f"  peak_rss_mb     {rss_mb:10.1f} MB  1 process")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
