"""Truncated quotient towers G_k = Z^n / Z^n (A^(k!) - I): construction with
verified nesting and epimorphism compatibility, coherent elements, the
level-isomorphism family search between two towers, and the paired
congruence lattice that can certify a conjugator.

Only finite truncations are materialized; depth is capped because entries of
A^(k!) grow factorially.
"""

from dataclasses import dataclass
from math import factorial

from . import exact_linalg as xl
from . import polys
from .bf_invariants import bf_group, hyperbolicity_check, strong_bf_screen
from .errors import InternalInconsistencyError, ResourceLimitError, ToralConjError
from .finite_modules import FiniteModulePresentation, ModuleMap, intertwiner_kernel, map_from_ambient
from .intfactor import divisors

Mat = xl.Mat
Vec = xl.Vec


@dataclass(frozen=True)
class Tower:
    base: Mat
    depth: int
    levels: tuple[FiniteModulePresentation, ...]  # G_k = BF_g(A) at g = x^(k!) - 1, index k - 1
    epis: dict                 # (k, l) -> ModuleMap for l <= k

    @property
    def n(self) -> int:
        return len(self.base)

    def level(self, k: int) -> FiniteModulePresentation:
        if not 1 <= k <= self.depth:
            raise ValueError(f"tower level {k} outside 1..{self.depth}")
        return self.levels[k - 1]


def _check_depth(depth: int) -> None:
    if depth > xl.MAX_FACTORIAL_K:
        raise ResourceLimitError(f"tower depth cap exceeded: {depth} > {xl.MAX_FACTORIAL_K}")


def build_tower(A: Mat, depth: int) -> Tower:
    """Construct levels 1..depth, verifying nesting N_k <= N_l for l <= k and
    the compatibility of all canonical epimorphisms [m]_k -> [m]_l; fails
    loudly otherwise."""
    if depth < 1:
        raise ValueError("depth must be positive")
    _check_depth(depth)
    if not hyperbolicity_check(A):
        raise ToralConjError("matrix is not hyperbolic; tower quotients need det(A^r - I) != 0")
    A = xl.mat(A)
    levels = [bf_group(A, polys.x_pow_minus_one(factorial(k))) for k in range(1, depth + 1)]
    epis: dict = {}
    for k in range(1, depth + 1):
        for l in range(1, k + 1):
            epi = map_from_ambient(levels[k - 1], levels[l - 1], xl.identity(len(A)))
            if epi is None:
                raise InternalInconsistencyError(f"nesting N_{k} <= N_{l} failed")
            if not (epi.is_well_defined() and epi.intertwines() and epi.is_surjective()):
                raise InternalInconsistencyError("canonical epimorphism failed verification")
            epis[(k, l)] = epi
    _verify_epi_compatibility(levels, epis)
    return Tower(base=A, depth=depth, levels=tuple(levels), epis=epis)


def _verify_epi_compatibility(levels, epis) -> None:
    depth = len(levels)
    for m in range(1, depth + 1):
        for k in range(1, m + 1):
            for l in range(1, k + 1):
                lhs = epis[(m, k)].compose(epis[(k, l)])
                if lhs.mat != epis[(m, l)].mat:
                    raise InternalInconsistencyError(
                        f"epimorphism compatibility failed at {m}->{k}->{l}"
                    )


def verify_factorization(A: Mat, k: int) -> bool:
    """Exact identity A^((k+1)!) - I = (sum of A^((k+1)! - j k!)) (A^(k!) - I)."""
    n = len(A)
    T = xl.matrix_power_factorial(A, k)
    if k + 1 > xl.MAX_FACTORIAL_K:
        raise ResourceLimitError(f"factorial power cap exceeded: k={k + 1} > {xl.MAX_FACTORIAL_K}")
    lhs = xl.mat_sub(xl.mat_pow(T, k + 1), xl.identity(n))
    acc = xl.identity(n)
    total = xl.identity(n)
    for _ in range(k):
        acc = xl.mat_mul(acc, T)
        total = xl.mat_add(total, acc)
    rhs = xl.mat_mul(total, xl.mat_sub(T, xl.identity(n)))
    return lhs == rhs


def verify_filtered(A: Mat, k1: int, k2: int) -> bool:
    """N_(k1+k2) <= N_k1 intersect N_k2, checked on generators."""
    n = len(A)
    b1 = xl.hnf_basis(xl.mat_sub(xl.matrix_power_factorial(A, k1), xl.identity(n)))
    b2 = xl.hnf_basis(xl.mat_sub(xl.matrix_power_factorial(A, k2), xl.identity(n)))
    inter = xl.lattice_intersection(b1, b2)
    M3 = xl.mat_sub(xl.matrix_power_factorial(A, k1 + k2), xl.identity(n))
    return all(xl.lattice_membership(inter, row) is not None for row in M3)


@dataclass(frozen=True)
class CoherentElement:
    levels: tuple[Vec, ...]


def iota(tower: Tower, m: Vec) -> CoherentElement:
    """The canonical embedding of a lattice point: level-wise reduction."""
    return CoherentElement(tuple(lv.reduce(m) for lv in tower.levels))


def is_coherent(tower: Tower, c: CoherentElement) -> bool:
    for k in range(1, tower.depth + 1):
        for l in range(1, k):
            if tower.epis[(k, l)].apply(c.levels[k - 1]) != c.levels[l - 1]:
                return False
    return True


def gamma_action(tower: Tower, c: CoherentElement) -> CoherentElement:
    """Level-wise action of the base matrix; rejects incoherent input."""
    if not is_coherent(tower, c):
        raise ValueError("incoherent element")
    return CoherentElement(
        tuple(lv.act(e) for lv, e in zip(tower.levels, c.levels))
    )


def injectivity_probe(tower: Tower, bound: int) -> dict:
    """For every nonzero m with max-norm <= bound, find the least level whose
    lattice excludes m.

    Each exclusion is certified twice: a nonzero reduction in the level's
    verified Smith form, and the exact rational inverse (m (A^(k!)-I)^-1 not
    integral).  The per-level norm lower bound 1/colsum|M^-1| is reported
    as well; it can only certify vectors shorter than itself, which for a
    matrix with contracting directions never reaches far (the inverse has an
    eigenvalue near -1), so it is evidence, not the primary certificate.
    """
    n = tower.n
    inverses = []
    norm_bounds = []
    for lv in tower.levels:
        M = lv.relations
        inv, den = xl.invert_rational(M)
        inverses.append((inv, den))
        if n:  # Z^0 has no nonzero vector, and M no column to bound
            norm_bounds.append(xl.inverse_infinity_norm_bound(M))
    escape_at: dict[Vec, int] = {}
    stuck: list[Vec] = []
    disagreements = []
    # symmetric under negation: walk one of each +-m, mirror below
    for m in xl.shell_vectors(n, bound):
        least = None
        for k, (lv, (inv, den)) in enumerate(zip(tower.levels, inverses), 1):
            member = lv.contains(m)
            xi_num = xl.vec_mat(m, inv)
            member_inv = all(x % den == 0 for x in xi_num)
            if member != member_inv:
                disagreements.append({"m": list(m), "k": k})
            if not member:
                least = k
                break
        if least is None:
            stuck.append(m)
            stuck.append(tuple(-x for x in m))
        else:
            escape_at[m] = least
            escape_at[tuple(-x for x in m)] = least
    if disagreements:
        raise InternalInconsistencyError(f"membership routes disagree: {disagreements[:3]}")
    counts: dict[int, int] = {}
    for k in escape_at.values():
        counts[k] = counts.get(k, 0) + 1
    return {
        "bound": bound,
        "depth": tower.depth,
        "all_escape": not stuck,
        "escape_counts_by_level": dict(sorted(counts.items())),
        "inconclusive_at_depth": [list(v) for v in stuck],
        "inverse_norm_bounds": [
            {"k": k, "bound": f"{b.numerator}/{b.denominator}"}
            for k, b in enumerate(norm_bounds, 1)
        ],
    }


@dataclass(frozen=True)
class LevelIsoFamily:
    """Per-level isomorphisms Psi_k compatible with the canonical epis."""

    source: Tower
    target: Tower
    maps: tuple[ModuleMap, ...]

    def verify(self) -> bool:
        K = len(self.maps)
        for k in range(1, K + 1):
            if not self.maps[k - 1].is_isomorphism():
                return False
        for k in range(1, K + 1):
            for l in range(1, k + 1):
                lhs = self.maps[k - 1].compose(self.target.epis[(k, l)])
                rhs = self.source.epis[(k, l)].compose(self.maps[l - 1])
                if lhs.mat != rhs.mat:
                    return False
        return True


@dataclass(frozen=True)
class LevelIsoOutcome:
    kind: str                         # "found" | "not_found_at_level" | "unknown"
    family: LevelIsoFamily | None = None
    level: int | None = None
    witness: dict | None = None


def tower_polynomials(depth: int) -> list[polys.Poly]:
    """The divisors of x^(k!) - 1 for k = 1..depth, once each: per k the
    cyclotomics Phi_d for d | k!, then x^e - 1 for e | k!, ending with
    x^(k!) - 1 itself.  These are every BF_g that an isomorphism of the
    levels G_depth induces."""
    _check_depth(depth)
    out: list[polys.Poly] = []
    for k in range(1, depth + 1):
        ds = divisors(factorial(k))
        for g in [polys.cyclotomic(d) for d in ds] + [polys.x_pow_minus_one(e) for e in ds]:
            if g not in out:
                out.append(g)
    return out


def _family_depth(towA: Tower, towB: Tower, depth: int | None) -> int:
    """depth, or both towers' depth when None; it must lie in 1..that."""
    top = min(towA.depth, towB.depth)
    if depth is not None and not 1 <= depth <= top:
        raise ValueError(f"family depth {depth} outside 1..{top}")
    return top if depth is None else depth


def level_iso_family(
    towA: Tower,
    towB: Tower,
    depth: int | None = None,
    budget: int = 100_000,
) -> LevelIsoOutcome:
    """Search for a compatible family of level isomorphisms up to level K.

    One BF screen over tower_polynomials(K): an isomorphism of G_K induces
    one of every quotient BF_g with g | x^(K!) - 1, so a refuted g refutes
    from the least level k whose polynomials contain it (G_k is its own
    quotient).  An isomorphism of G_K = BF_(x^(K!) - 1) is pushed down by
    the canonical epimorphisms, which is automatically compatible, and the
    whole family is re-verified.
    """
    K = _family_depth(towA, towB, depth)
    screen = strong_bf_screen(towA.base, towB.base, tower_polynomials(K), budget=budget)
    g, GA, GB, res = screen.compared[-1]
    if res.verdict == "no":
        return LevelIsoOutcome(
            kind="not_found_at_level",
            level=next(k for k in range(1, K + 1) if g in tower_polynomials(k)),
            witness={
                "kind": "canonical_quotient",
                "divisor": polys.to_str(g),
                "mismatch": res.witness,
                "left": GA.fingerprint(),
                "right": GB.fingerprint(),
            },
        )
    if res.verdict != "yes":
        return LevelIsoOutcome(kind="unknown", witness={"kind": "budget", "level": K, "detail": res.witness})
    family = LevelIsoFamily(source=towA, target=towB, maps=_family_by_projection(towA, towB, K, res.iso))
    if not family.verify():
        raise InternalInconsistencyError("projected level family failed verification")
    return LevelIsoOutcome(kind="found", family=family)


def transport_family(towA: Tower, towB: Tower, C: Mat, depth: int | None = None) -> LevelIsoFamily:
    """The family [m]_k -> [m C]_k induced by an exact intertwiner C with
    A C = C B that is bijective at every level (e.g. a conjugator);
    compatibility is automatic and the whole family is re-verified."""
    K = _family_depth(towA, towB, depth)
    if xl.mat_mul(towA.base, C) != xl.mat_mul(C, towB.base):
        raise ValueError("transport matrix does not intertwine")
    maps = []
    for k in range(1, K + 1):
        m = map_from_ambient(towA.level(k), towB.level(k), C)
        if m is None or not m.is_isomorphism():
            raise ValueError(f"transport matrix is not bijective at level {k}")
        maps.append(m)
    family = LevelIsoFamily(source=towA, target=towB, maps=tuple(maps))
    if not family.verify():
        raise InternalInconsistencyError("transport family failed verification")
    return family


def _family_by_projection(towA: Tower, towB: Tower, K: int, sigma: ModuleMap) -> tuple[ModuleMap, ...]:
    """Derive Psi_l for l < K from the deepest isomorphism: lift each
    generator of G_l(A) to G_K(A), apply sigma, and project by the canonical
    epimorphism G_K(B) -> G_l(B); well-defined because an isomorphism maps
    the image submodule (x^(l!) - 1) G_K onto its counterpart."""
    GK_A = towA.level(K)
    maps: list[ModuleMap] = []
    for l in range(1, K + 1):
        Gl_A = towA.level(l)
        rows = tuple(
            towB.epis[(K, l)].apply(sigma.apply(GK_A.reduce(Gl_A.lift(e)))) for e in xl.identity(Gl_A.rank)
        )
        maps.append(ModuleMap(Gl_A, towB.level(l), rows))
    return tuple(maps)


@dataclass(frozen=True)
class PairLattice:
    """Full-rank sublattice of Z^(2n): pairs (m, m~) agreeing through the
    family up to the given depth."""

    depth: int
    basis: Mat


def _level_matrix(towA: Tower, towB: Tower, family: LevelIsoFamily, K: int) -> Mat:
    """C~ with Psi_K([m]_K) = [m C~]_K: row i lifts Psi_K([e_i]_K)."""
    GA, GB = towA.level(K), towB.level(K)
    return tuple(GB.lift(family.maps[K - 1].apply(GA.reduce(e))) for e in xl.identity(towA.n))


def delta_lattice(towA: Tower, towB: Tower, family: LevelIsoFamily, depth: int) -> PairLattice:
    """Delta_K = {(m, m~) : Psi_k([m]_k) = [m~]_k for all k <= depth}.

    Compatibility makes the lower levels automatic, and Psi_K([m]_K) =
    [m C~]_K, so Delta_K = graph(C~) + {0} x N_K: the HNF of the rows
    (e_i, C~_i) and (0, nu) for the relations nu of N_K.  Depth 0 is the
    empty constraint Z^(2n)."""
    n = towA.n
    if depth == 0:
        return PairLattice(depth=0, basis=xl.identity(2 * n))
    graph = tuple(e + row for e, row in zip(xl.identity(n), _level_matrix(towA, towB, family, depth)))
    kernel = tuple((0,) * n + nu for nu in towB.level(depth).relations)
    return PairLattice(depth=depth, basis=xl.hnf_basis(graph + kernel))


@dataclass(frozen=True)
class DeltaClassification:
    kind: str                         # "graph_of_conjugator" | "indeterminate"
    conjugator: Mat | None


def classify_delta(
    towA: Tower,
    towB: Tower,
    family: LevelIsoFamily,
    deltas: list[PairLattice],
    search_bound: int = 5,
) -> DeltaClassification:
    """Decide whether the deepest pair lattice is the graph of an honest
    conjugator plus {0} x N_K.

    The family induces an integer matrix C~ with Delta_K = graph(C~) +
    {0} x N_K; a conjugacy certificate is an exact intertwiner C
    (A C = C B) congruent to C~ row-wise mod N_K with det C = +-1.  Each
    coarser Delta_k contains Delta_K, so only Delta_K is searched.
    Existence of any such intertwiner is one membership test in the
    intertwiner lattice plus the row blocks of N_K; the unimodular one is
    then sought over small coefficient shells of the intertwiner lattice,
    one of each +-c, C or -C filtered by the congruence.
    """
    if not deltas or deltas[-1].depth < 1:
        raise ValueError("classify_delta needs a deepest pair lattice of depth >= 1")
    A, B = towA.base, towB.base
    n = towA.n
    for d1, d2 in zip(deltas, deltas[1:]):
        for row in d2.basis:
            if xl.lattice_membership(d1.basis, row) is None:
                raise InternalInconsistencyError("pair lattices are not nested")
    K = deltas[-1].depth
    GB = towB.level(K)
    ctil = _level_matrix(towA, towB, family, K)
    kern = intertwiner_kernel(A, B)
    if not _graph_repr_solvable(kern, ctil, GB.relations):
        return DeltaClassification("indeterminate", None)

    def accept(c):
        C = xl.unvec(xl.vec_mat(c, kern), n)
        for S in (C, xl.mat_neg(C)):
            if all(map(GB.contains, xl.mat_sub(S, ctil))) and xl.det(S) in (1, -1):
                return S
        return None

    found, _ = xl.bounded_search(len(kern), search_bound, accept, 200_000)
    if found is None:
        return DeltaClassification("indeterminate", None)
    if xl.mat_mul(A, found) != xl.mat_mul(found, B) or abs(xl.det(found)) != 1:
        raise InternalInconsistencyError("conjugator candidate failed re-verification")
    for e in xl.identity(n):
        if xl.lattice_membership(deltas[-1].basis, e + xl.vec_mat(e, found)) is None:
            raise InternalInconsistencyError("conjugator graph not inside pair lattice")
    return DeltaClassification("graph_of_conjugator", found)


def _graph_repr_solvable(kern: Mat, ctil: Mat, Nb: Mat) -> bool:
    """Whether any integer intertwiner is row-congruent to C~ mod N.

    C~ + E N intertwines for some integer E iff vec(C~) lies in the
    intertwiner lattice plus {vec(E N)}, the row span of I_n (x) N."""
    n = len(ctil)
    blocks = tuple(
        (0,) * (i * n) + nu + (0,) * ((n - 1 - i) * n) for i in range(n) for nu in Nb
    )
    vec = tuple(x for row in ctil for x in row)
    return xl.lattice_membership(xl.hnf_basis(kern + blocks), vec) is not None

