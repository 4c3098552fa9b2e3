#!/usr/bin/env python3
"""Self-test of the benchmark's verdict checks.

    python3 decidebench/selftest.py

Real `decide` outputs on corpus pairs must pass every check; the same
outputs with one certificate entry changed, with a witness's invariant
factors swapped between the sides, or with a 2 x 2 verdict flipped must be
rejected by the check aimed at them (and so by `check_output`).  Exits 0
when every case behaves, 1 otherwise.
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from toralconj import decide  # noqa: E402

FLIP = {"conjugate": "not_conjugate", "not_conjugate": "conjugate"}


def find(workload, construction, n=None, outcome=None):
    """First pair of a workload with the given construction (and size and
    `decide` outcome), with its verdict."""
    for pair in corpus.load(workload):
        if pair["construction"] != construction or (n and pair["n"] != n):
            continue
        verdict = decide(pair["A"], pair["B"])
        if outcome is None or verdict.outcome == outcome:
            return pair, verdict
    raise LookupError(f"no {construction} pair with n={n}, outcome={outcome} in {workload}")


def output_reasons(pair, v):
    return checks.check_output(pair, v.outcome, v.certificate, v.witness)


def main():
    results = []

    def expect(label, reasons, rejected):
        reasons = [r for r in reasons if r]
        ok = bool(reasons) == rejected
        results.append(ok)
        shown = "; ".join(reasons) if reasons else "passes"
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {shown}")

    conj_pair, conj_v = find("conj_small", "conjugate", n=3)
    wp1, wp1_v = find("similar_irreducible", "worked_pair_1")
    wp2, wp2_v = find("similar_irreducible", "worked_pair_2")
    yes2, yes2_v = find("similar_irreducible", "sublattice", n=2, outcome="conjugate")
    no2, no2_v = find("similar_irreducible", "sublattice", n=2, outcome="not_conjugate")

    for label, pair, v in (("conj_small certificate", conj_pair, conj_v),
                           ("worked pair 1 witness", wp1, wp1_v),
                           ("worked pair 2 verdict", wp2, wp2_v),
                           ("2x2 conjugate verdict", yes2, yes2_v),
                           ("2x2 not_conjugate verdict", no2, no2_v)):
        expect(f"unchanged {label}", output_reasons(pair, v), rejected=False)

    C = [list(row) for row in conj_v.certificate]
    C[0][0] += 1
    bad_cert = dataclasses.replace(conj_v, certificate=tuple(map(tuple, C)))
    expect("certificate entry changed",
           [checks.check_certificate(conj_pair["A"], conj_pair["B"], bad_cert.certificate)],
           rejected=True)
    expect("certificate entry changed (check_output)", output_reasons(conj_pair, bad_cert),
           rejected=True)

    w = dict(wp1_v.witness)
    w["left"], w["right"] = (dict(w["left"], invariant_factors=w["right"]["invariant_factors"]),
                             dict(w["right"], invariant_factors=w["left"]["invariant_factors"]))
    bad_wit = dataclasses.replace(wp1_v, witness=w)
    expect("witness invariant factors swapped",
           [checks.check_bf_witness(wp1["A"], wp1["B"], w)], rejected=True)
    expect("witness invariant factors swapped (check_output)", output_reasons(wp1, bad_wit),
           rejected=True)

    for pair, v in ((yes2, yes2_v), (no2, no2_v)):
        flipped = FLIP[v.outcome]
        expect(f"2x2 verdict {v.outcome} flipped to {flipped}",
               [checks.check_oracle(pair, flipped)], rejected=True)
        expect(f"2x2 verdict {v.outcome} flipped (check_output)",
               checks.check_output(pair, flipped, None, None), rejected=True)

    expect("conjugate-by-construction pair refuted",
           [checks.check_construction(conj_pair, "not_conjugate")], rejected=True)
    expect("worked pair 1 left unknown", [checks.check_construction(wp1, "unknown")],
           rejected=True)
    expect("worked pair 2 called conjugate", [checks.check_construction(wp2, "conjugate")],
           rejected=True)

    print(f"{sum(results)}/{len(results)} self-test cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
