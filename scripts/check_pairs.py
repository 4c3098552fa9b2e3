#!/usr/bin/env python3
"""Decide the 1,070 reference pairs and check every output independently.

The pairs are the 120 pairs of the benchmark corpus and the 950 pairs of
decidebench/corpus.sublattice_pairs drawn with Random(7919 k), k = 1..5,
and Random(104729 k), k = 1..20, each seed giving 30 pairs with n = 2 and
entries <= 5, then 8 pairs with n = 3 and entries <= 4.  Every output goes
through decidebench/checks.check_output.  Prints the outcome counts, one
line per outcome and sequence of evidence stages (similarity and
hyperbolicity left out) with the number of pairs that took it, and the
sha256 of the reports (one sorted-keys JSON line per pair, in that order),
and exits 1 when any check fails or the digest is not REPORTS_SHA256.  A
2 x 2 pair also fails when it ends unknown or when its evidence holds a
bounded search (unimodular_search or principal_search): the binary forms
decide every such pair before either search.

Usage: python scripts/check_pairs.py
"""

import hashlib
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "decidebench")]

import checks  # noqa: E402
import corpus  # noqa: E402

from toralconj.conjugacy_pipeline import decide  # noqa: E402

SEEDS = [7919 * k for k in range(1, 6)] + [104729 * k for k in range(1, 21)]
GROUPS = ((2, 5, 30), (3, 4, 8))
# stages that every similar pair passes through, left out of the stage paths
COMMON_STAGES = {"similarity", "hyperbolicity"}

# sha256 of the reports of the 1,070 pairs; a change that alters reports
# re-pins it from the digest printed on a mismatch and says so in CHANGES.md
REPORTS_SHA256 = "1471049b762e1a3730d87a2fe8c5e027c0195e51fc45453a27116915818a2fe6"


def reference_pairs() -> list[dict]:
    pairs = [p for name in ("conj_small", "conj_bigorder", "similar_irreducible") for p in corpus.load(name)]
    for seed in SEEDS:
        rng = random.Random(seed)
        for n, bound, count in GROUPS:
            pairs += corpus.sublattice_pairs(rng, n, bound, count)
    return pairs


def binary_form_faults(verdict) -> list[str]:
    """Why a 2 x 2 verdict did not come from the binary forms alone."""
    faults = ["2x2 pair ended unknown"] if verdict.outcome == "unknown" else []
    for e in verdict.evidence:
        if e["stage"].startswith("unimodular_search") or "principal_search" in e:
            faults.append(f"2x2 pair ran a bounded search in {e['stage']}")
    return faults


def main() -> int:
    t0 = time.monotonic()
    pairs = reference_pairs()
    outcomes: Counter = Counter()
    paths: Counter = Counter()
    reports = []
    failed = 0
    for i, pair in enumerate(pairs):
        verdict = decide(pair["A"], pair["B"])
        outcomes[verdict.outcome] += 1
        stages = [e["stage"] for e in verdict.evidence if e["stage"] not in COMMON_STAGES]
        paths[verdict.outcome, " > ".join(stages)] += 1
        reports.append(json.dumps(verdict.to_data(), sort_keys=True))
        reasons = checks.check_output(pair, verdict.outcome, verdict.certificate, verdict.witness)
        if pair["n"] == 2:
            reasons += binary_form_faults(verdict)
        if reasons:
            failed += 1
            print(f"pair {i}: {'; '.join(reasons)}")
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    print(
        f"{len(pairs)} pairs, {failed} failed: {outcomes['conjugate']} conjugate, "
        f"{outcomes['not_conjugate']} not_conjugate, {outcomes['unknown']} unknown "
        f"in {time.monotonic() - t0:.1f} s"
    )
    for (outcome, path), count in sorted(paths.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:5d} {outcome} via {path}")
    print(f"reports sha256 {digest}")
    if digest != REPORTS_SHA256:
        print(f"reports sha256 mismatch: expected {REPORTS_SHA256}, got {digest}")
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
