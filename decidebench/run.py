#!/usr/bin/env python3
"""Benchmark of `toralconj.decide(A, B)` on one seeded workload.

    python3 decidebench/run.py --workload conj_small --seed 1 --seconds 20 --trace 0

One single-threaded process decides every pair of the workload's stored
corpus, round after round in an order shuffled by `--seed`, until
`--seconds` have passed at the end of a round.  Between consecutive
`decide` calls it times a fixed reference job of its own (`ref`), and each
`decide` is measured in units of the mean of the job's times just before
and after it, so that changes in the host's speed cancel (see README.md).  Every output is then
checked independently (see checks.py); an operation fails when `decide`
raises or its output fails a check.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer metrics of layertrace.py
with `--trace 1`.  Details go to results/ beside this file.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import arith
import checks
import corpus

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("conj_small", "conj_bigorder", "similar_irreducible")
SETUP_PROBES = 11
TAIL_BEYOND = 10      # decide_tail_ref has this many pairs above it
REF_MATRIX = tuple(tuple((3 * i + 7 * j) % 11 - 5 for j in range(6)) for i in range(6))


def reference_seconds():
    """Seconds of the unit `ref`: a fixed pure-Python exact-arithmetic job
    (determinants and characteristic polynomials of a 6 x 6 matrix over Q)
    whose code belongs to the benchmark, so it moves only with the host."""
    t0 = perf_counter()
    for _ in range(8):
        arith.det(REF_MATRIX)
        arith.char_poly(REF_MATRIX)
    return perf_counter() - t0


def measure_setup(workload):
    """Median over fresh interpreters of import + corpus load, after one
    unmeasured start that leaves the bytecode caches written."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rounds(decide, pairs, seconds, rng, tracer):
    """Decide every pair once per round until `seconds` have passed.

    Returns per-pair lists of times (seconds, and refs unless tracing), of
    outputs and of errors, the number of rounds and the wall time."""
    times = [[] for _ in pairs]
    refs = [[] for _ in pairs]
    outputs = [[] for _ in pairs]
    errors = [[] for _ in pairs]
    rounds = 0
    ref = None if tracer else reference_seconds()
    start = perf_counter()
    while True:
        order = list(range(len(pairs)))
        rng.shuffle(order)
        if tracer is not None:
            tracer.recording = rounds == 0
        for i in order:
            A, B = pairs[i]["A"], pairs[i]["B"]
            t0 = perf_counter()
            try:
                v = decide(A, B)
            except Exception as exc:  # a raising decide is a failed operation
                errors[i].append(f"{type(exc).__name__}: {exc}")
                continue
            took = perf_counter() - t0
            times[i].append(took)
            if tracer is None:
                # the job's times just before and just after this decide
                after = reference_seconds()
                refs[i].append(2 * took / (ref + after))
                ref = after
            outputs[i].append((v.outcome, v.certificate, json.dumps(v.witness, sort_keys=True)))
        rounds += 1
        if perf_counter() - start >= seconds:
            return times, refs, outputs, errors, rounds, perf_counter() - start


def check_all(pairs, outputs, errors):
    """Failed operations, pairs with a checked decisive verdict in every
    round, and the distinct failure reasons."""
    failed = 0
    decisive = 0
    reasons = []
    for pair, outs, errs in zip(pairs, outputs, errors):
        verdicts = {}
        for out in outs:
            if out not in verdicts:
                outcome, cert, witness = out
                verdicts[out] = checks.check_output(pair, outcome, cert, json.loads(witness))
        bad = sum(1 for out in outs if verdicts[out]) + len(errs)
        failed += bad
        reasons += [r for rs in verdicts.values() for r in rs] + errs
        if not bad and all(out[0] != "unknown" for out in outs):
            decisive += 1
    return failed, decisive, sorted(set(reasons))


def oracle_is_valid():
    """The n = 2 oracle must call every 2 x 2 pair of the corpus that is
    conjugate by construction conjugate before it may judge `decide`."""
    return all(checks.conjugate_2x2(p["A"], p["B"])
               for name in WORKLOADS for p in corpus.load(name)
               if p["n"] == 2 and p["construction"] == "conjugate")


def tail(values):
    """The highest percentile with TAIL_BEYOND values above it."""
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "toralconj" / "__init__.py").is_file():
        print(f"toralconj sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = None if args.trace else measure_setup(args.workload)

    import toralconj

    pairs = corpus.load(args.workload)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    times, refs, outputs, errors, rounds, wall = run_rounds(
        toralconj.conjugacy_pipeline.decide if tracer else toralconj.decide,
        pairs, args.seconds, random.Random(args.seed), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = rounds * len(pairs)
    failed, decisive, reasons = check_all(pairs, outputs, errors)
    correct = oracle_is_valid()
    per_pair = [statistics.median(r) for r in refs if r]
    if tracer:
        metrics = tracer.metrics(rounds)
    else:
        metrics = {
            "pairs_per_kref": {"value": 1000 * len(per_pair) / sum(per_pair), "unit": "1/kref"},
            "decide_p50_ref": {"value": statistics.median(per_pair), "unit": "ref"},
            "decide_tail_ref": {"value": tail(per_pair), "unit": "ref"},
            "decisive_verdicts": {"value": decisive, "unit": "count"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "wall_s": wall, "failure_reasons": reasons,
        "pairs": [{"construction": p["construction"], "n": p["n"],
                   "outcomes": sorted({o[0] for o in outs}), "times_s": t, "times_ref": r}
                  for p, outs, t, r in zip(pairs, outputs, times, refs)],
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
