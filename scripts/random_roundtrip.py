#!/usr/bin/env python3
"""Round-trip experiment: conjugate random hyperbolic matrices by random
unimodular matrices, run the decision pipeline, and cross-check the
certificate against the tower pairing lattices.

Usage: python scripts/random_roundtrip.py [count] [seed]
"""

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "decidebench")]

from corpus import random_matrix, random_unimodular  # noqa: E402

from toralconj import exact_linalg as xl  # noqa: E402
from toralconj import tower as tw  # noqa: E402
from toralconj.bf_invariants import hyperbolicity_check  # noqa: E402
from toralconj.conjugacy_pipeline import decide  # noqa: E402


def random_hyperbolic(rng, n=3, bound=9):
    while True:
        M = random_matrix(rng, n, bound)
        if xl.det(M) != 0 and hyperbolicity_check(M):
            return M


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20250811
    rng = random.Random(seed)
    ok = 0
    t0 = time.monotonic()
    for i in range(count):
        A = random_hyperbolic(rng)
        U = random_unimodular(rng, 3)
        B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
        verdict = decide(A, B)
        if verdict.outcome != "conjugate":
            print(f"[{i}] FAILED: {verdict.outcome}")
            continue
        C = verdict.certificate
        assert xl.mat_mul(A, C) == xl.mat_mul(C, B) and xl.det(C) in (1, -1)
        towA, towB = tw.build_tower(A, 3), tw.build_tower(B, 3)
        fam = tw.transport_family(towA, towB, C)
        deltas = [tw.delta_lattice(towA, towB, fam, k) for k in (1, 2, 3)]
        cls = tw.classify_delta(towA, towB, fam, deltas)
        status = "ok" if cls.kind == "graph_of_conjugator" else cls.kind
        print(f"[{i}] conjugate, certificate det {xl.det(C)}, delta: {status}")
        ok += cls.kind == "graph_of_conjugator"
    print(f"{ok}/{count} full round-trips in {time.monotonic() - t0:.2f}s")
    return 0 if ok == count else 1


if __name__ == "__main__":
    sys.exit(main())
