#!/usr/bin/env python3
"""Reproduce the two worked matrix pairs end to end and print the evidence.

Usage: python scripts/reproduce_examples.py
"""

import time

from toralconj import exact_linalg as xl
from toralconj import ideal_theory as ideals
from toralconj import polys
from toralconj.bf_invariants import bf_group, strong_bf_screen
from toralconj.conjugacy_pipeline import decide

A1 = xl.mat([[0, 1, 0], [1, 0, 4], [6, -2, 23]])
B1 = xl.mat([[0, 1, 12], [1, 0, -4], [0, 2, 23]])
A2 = xl.mat([[0, 1, 0], [0, 0, 1], [1, 8, 2]])
B2 = xl.mat([[-1, 2, 0], [-1, 1, 1], [-5, 9, 2]])


def pair_one() -> None:
    print("=== pair 1: distinguished by a finite invariant ===")
    print("char poly:", polys.to_str(xl.char_poly(A1)))
    ga = bf_group(A1, (1, 1))
    gb = bf_group(B1, (1, 1))
    print(f"BF_(x+1): factors {ga.factors} vs {gb.factors}")
    t0 = time.monotonic()
    verdict = decide(A1, B1)
    print(f"decide: {verdict.outcome} (witness g = {verdict.witness['g']}) "
          f"in {time.monotonic() - t0:.3f}s")


def pair_two() -> None:
    print("\n=== pair 2: screen passes, class-level obstruction ===")
    p = xl.char_poly(A2)
    print("char poly:", polys.to_str(p), " discriminant:", xl.discriminant(p))
    screen = strong_bf_screen(A2, B2)
    print(f"screen over {len(screen.family)} polynomials: {screen.outcome}")
    I, v, nf = ideals.eigen_ideal(A2)
    J, w, _ = ideals.eigen_ideal(B2)
    OI, OJ = ideals.multiplier_ring(I), ideals.multiplier_ring(J)
    print("multiplier rings equal Z[beta]:", OI == OJ == ideals.FractionalIdeal.z_beta(nf))
    we = ideals.weak_equivalence(I, J, OI, OJ)
    print("weakly equivalent:", we.equivalent)
    pr = ideals.principal_search(we.X, OI, 8)
    print(f"principal search on (J:I) at bound 8: found={pr.found} "
          f"({pr.tried} candidates)")
    t0 = time.monotonic()
    verdict = decide(A2, B2)
    print(f"decide: {verdict.outcome} in {time.monotonic() - t0:.3f}s "
          "(honest: the search bounds cannot certify non-conjugacy here)")


if __name__ == "__main__":
    pair_one()
    pair_two()
