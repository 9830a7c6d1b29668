"""Self-test of the benchmark.

    python3 benchmark/selftest.py

Runs two traced passes of each workload with seed 1 and one with seed 2 and
requires identical values for every exact count (every `.calls`, the
S-pairs reduced, the zero reductions and the basis size and degree maxima),
no wrong output, and no work in the layers each workload is predicted not
to touch. Seed 2 must match because the check workloads ignore the seed and
the seed changes the inputs of `generic-ideals` but not its work. Exits 1
on any failure.
"""

from __future__ import annotations

import sys

from run import SRC, gate, run_pass, spec_metrics

SEED = 1

# (workload, metric that must stay 0 there)
UNTOUCHED = (
    ("fan-combinatorics", "groebner.groebner_basis.calls"),
    ("groebner-frontier", "geometry.gale_cone_test.calls"),
)


def traced_counts(ops, names):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        _, outputs = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    wrong, _ = gate(ops, outputs)
    return wrong, tracer.metrics(names)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import is_exact

    names = [m["name"] for m in spec_metrics("per_layer") if is_exact(m["name"])]
    problems = []
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, SEED)
        wrong1, first = traced_counts(ops, names)
        wrong2, second = traced_counts(ops, names)
        wrong3, other = traced_counts(workloads.build(workload, SEED + 1), names)
        if wrong1 or wrong2 or wrong3:
            problems.append(f"{workload}: {wrong1 + wrong2 + wrong3} wrong outputs")
        for name in names:
            if not first[name] == second[name] == other[name]:
                problems.append(f"{workload}: {name} {first[name]}, {second[name]}, "
                                f"{other[name]} with seed {SEED + 1}")
        for w, name in UNTOUCHED:
            if w == workload and first[name] != 0:
                problems.append(f"{workload}: {name} = {first[name]}, expected 0")
        print(f"{workload}: {len(names)} exact counts compared")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
