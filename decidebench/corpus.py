"""Seeded corpus of matrix pairs for the `decide` benchmark.

The pairs are built here with plain integer arithmetic (and mpmath/sympy
for root moduli and irreducibility), never with `toralconj`, so neither the
inputs nor the time to load them move when the program changes.

Regenerate the stored corpus byte for byte with

    python3 decidebench/corpus.py

and check that the stored file is current with `--check`.
"""

import json
import random
import sys
from pathlib import Path

from arith import char_poly, det, integral, inverse, mat_mul

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"

# The two worked pairs of the paper's examples (scripts/reproduce_examples.py).
WORKED_PAIR_1 = (
    ((0, 1, 0), (1, 0, 4), (6, -2, 23)),
    ((0, 1, 12), (1, 0, -4), (0, 2, 23)),
)
WORKED_PAIR_2 = (
    ((0, 1, 0), (0, 0, 1), (1, 8, 2)),
    ((-1, 2, 0), (-1, 1, 1), (-5, 9, 2)),
)

# name -> (seed, [(n, entry_bound, count), ...]); one generator per workload.
SPECS = {
    "conj_small": (101, [(2, 3, 12), (3, 3, 12), (4, 3, 10), (5, 3, 6)]),
    "conj_bigorder": (202, [(3, 12, 40)]),
    "similar_irreducible": (303, [(2, 5, 24), (3, 4, 14)]),
}
SUBLATTICE_PRIMES = (2, 3, 5, 7)


# ---------------------------------------------------------------- generators

def is_hyperbolic(M):
    """No eigenvalue within 1e-25 of the unit circle (60-digit roots).

    A root off the circle lies far further from it for these small integer
    polynomials, so this only ever rejects on-circle cases."""
    import mpmath

    mpmath.mp.dps = 60
    roots = mpmath.polyroots(char_poly(M), maxsteps=400, extraprec=400)
    return all(abs(abs(r) - 1) > mpmath.mpf("1e-25") for r in roots)


def is_irreducible(M):
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(char_poly(M), x).is_irreducible


def random_matrix(rng, n, bound):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))


def random_hyperbolic(rng, n, bound, irreducible=False):
    while True:
        M = random_matrix(rng, n, bound)
        if det(M) == 0 or not is_hyperbolic(M):
            continue
        if irreducible and not is_irreducible(M):
            continue
        return M


def random_unimodular(rng, n, entry_bound=3, ops=6):
    """Product of elementary shears and signed swaps, rejected until all
    entries fit the bound."""
    while True:
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(ops):
            kind = rng.randrange(3)
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            if kind == 0:
                c = rng.choice((-1, 1))
                U[i] = [x + c * y for x, y in zip(U[i], U[j])]
            elif kind == 1:
                U[i], U[j] = U[j], U[i]
            else:
                U[i] = [-x for x in U[i]]
        M = tuple(tuple(r) for r in U)
        if det(M) in (1, -1) and all(abs(x) <= entry_bound for r in M for x in r):
            return M


def scramble(rng, M):
    """U M U^-1 for a random unimodular U, redrawn while it equals M."""
    while True:
        U = random_unimodular(rng, len(M))
        B = integral(mat_mul(mat_mul(U, M), inverse(U)))
        if B != M:
            return B


def eigenvector_mod_p(A, p):
    """A column vector w != 0 (mod p) with A w = lam w (mod p), or None."""
    n = len(A)
    for lam in range(p):
        # null space of (A - lam I) mod p by Gaussian elimination
        rows = [[(A[i][j] - (lam if i == j else 0)) % p for j in range(n)] for i in range(n)]
        pivots = []
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], -1, p)
            rows[r] = [x * inv % p for x in rows[r]]
            for i in range(n):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        free = [c for c in range(n) if c not in pivots]
        if free:
            f = free[0]
            w = [0] * n
            w[f] = 1
            for i, c in enumerate(pivots):
                w[c] = -rows[i][f] % p
            return tuple(w)
    return None


def sublattice_restriction(A, p, w):
    """A acting on L = {v : v . w = 0 mod p} (row vectors, v -> v A), in the
    basis M of L: returns B with M A = B M."""
    n = len(A)
    k = next(i for i in range(n) if w[i] % p)
    inv = pow(w[k], -1, p)
    M = []
    for i in range(n):
        row = [0] * n
        if i == k:
            row[k] = p
        else:
            row[i] = 1
            row[k] = -w[i] * inv % p
        M.append(tuple(row))
    M = tuple(M)
    return integral(mat_mul(mat_mul(M, A), inverse(M)))


def _pair(A, B, construction, **extra):
    return {"A": [list(r) for r in A], "B": [list(r) for r in B],
            "construction": construction, "n": len(A), **extra}


def conjugate_pairs(rng, n, bound, count):
    return [_pair(A, scramble(rng, A), "conjugate")
            for A in (random_hyperbolic(rng, n, bound) for _ in range(count))]


def sublattice_pairs(rng, n, bound, count):
    out = []
    while len(out) < count:
        A = random_hyperbolic(rng, n, bound, irreducible=True)
        primes = [p for p in SUBLATTICE_PRIMES if eigenvector_mod_p(A, p)]
        if not primes:
            continue
        p = rng.choice(primes)
        B = sublattice_restriction(A, p, eigenvector_mod_p(A, p))
        out.append(_pair(A, scramble(rng, B), "sublattice", p=p))
    return out


def build_workload(name):
    seed, groups = SPECS[name]
    rng = random.Random(seed)
    make = sublattice_pairs if name == "similar_irreducible" else conjugate_pairs
    pairs = [pair for n, bound, count in groups for pair in make(rng, n, bound, count)]
    if name == "similar_irreducible":
        pairs.append(_pair(*WORKED_PAIR_1, "worked_pair_1"))
        pairs.append(_pair(*WORKED_PAIR_2, "worked_pair_2"))
    return {"seed": seed,
            "groups": [{"n": n, "entry_bound": b, "count": c} for n, b, c in groups],
            "pairs": pairs}


def render():
    lines = ["{"]
    names = list(SPECS)
    for wi, name in enumerate(names):
        w = build_workload(name)
        head = json.dumps({"seed": w["seed"], "groups": w["groups"]}, sort_keys=True)
        lines.append(f'"{name}": {head[:-1]}, "pairs": [')
        for pi, pair in enumerate(w["pairs"]):
            sep = "," if pi + 1 < len(w["pairs"]) else ""
            lines.append(json.dumps(pair, sort_keys=True) + sep)
        lines.append("]}" + ("," if wi + 1 < len(names) else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def load(name):
    """The stored pairs of one workload, matrices as tuples of tuples."""
    with open(CORPUS_PATH) as fh:
        data = json.load(fh)[name]
    return [
        dict(pair, A=tuple(map(tuple, pair["A"])), B=tuple(map(tuple, pair["B"])))
        for pair in data["pairs"]
    ]


def main(argv):
    text = render()
    if "--check" in argv:
        if CORPUS_PATH.read_text() != text:
            print("corpus.json is stale: run python3 decidebench/corpus.py", file=sys.stderr)
            return 1
        print("corpus.json matches its generator")
        return 0
    CORPUS_PATH.write_text(text)
    print(f"wrote {CORPUS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
