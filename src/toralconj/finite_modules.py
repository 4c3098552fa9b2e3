"""Finite quotients Z^n / Z^n M carrying an induced matrix action, and an
isomorphism decision procedure for them as modules over Z[x] (x acting by
the matrix).

Canonical element coordinates come from the Smith normal form of the
relation matrix: an element is a tuple (c_1, ..., c_r) with 0 <= c_i < d_i
over the nontrivial invariant factors d_i > 1.
"""

import functools
import itertools
import math
from dataclasses import dataclass

from . import exact_linalg as xl
from .errors import IllFormedActionError, InfiniteQuotientError, InternalInconsistencyError
from .intfactor import factorint

Vec = xl.Vec
Mat = xl.Mat


def _mod_cols(M: Mat, moduli: Vec) -> Mat:
    return tuple(
        tuple(x % m for x, m in zip(row, moduli)) for row in M
    )


@dataclass(frozen=True)
class FiniteModulePresentation:
    """Z^n / Z^n M with the action [m] -> [m A]."""

    n: int
    relations: Mat
    action: Mat
    vmat: Mat               # UMV = D; coordinates are m @ V
    vmat_inv: Mat
    order: int
    pos: tuple[int, ...]    # indices with d_i > 1
    factors: Vec            # nontrivial invariant factors
    act_red: Mat            # induced action on nontrivial canonical coords

    @property
    def rank(self) -> int:
        return len(self.factors)

    def reduce(self, m: Vec) -> Vec:
        """Canonical coordinates of m + Z^n M."""
        if len(m) != self.n:
            raise ValueError("dimension mismatch")
        c = xl.vec_mat(m, self.vmat)
        return tuple(c[p] % d for p, d in zip(self.pos, self.factors))

    def contains(self, m: Vec) -> bool:
        """Whether m lies in the relation lattice Z^n M."""
        return not any(self.reduce(m))

    def lift(self, e: Vec) -> Vec:
        """An integer representative of a canonical element."""
        full = [0] * self.n
        for p, c in zip(self.pos, e):
            full[p] = c
        return xl.vec_mat(tuple(full), self.vmat_inv)

    def act(self, e: Vec) -> Vec:
        """Image of an element under the induced automorphism."""
        c = xl.vec_mat(e, self.act_red)
        return tuple(x % d for x, d in zip(c, self.factors))

    def elements(self, cap: int = 1 << 20):
        if self.order > cap:
            raise ValueError(f"module too large to enumerate ({self.order})")
        return (tuple(e) for e in itertools.product(*(range(d) for d in self.factors)))

    def fingerprint(self) -> dict:
        return {"order": self.order, "invariant_factors": list(self.factors)}


def quotient(M: Mat, A: Mat) -> FiniteModulePresentation:
    """Present Z^n / Z^n M with action A in SNF-canonical coordinates.

    V is unimodular, column j of M V is divisible by d_j, and the positive
    d_j (each dividing the next) multiply to |det M|, so Z^n M V = Z^n D.  A
    preserves Z^n M iff V^-1 A V preserves Z^n D: d_i A'[i][j] = 0 mod d_j."""
    if not xl.is_square(M) or not xl.is_square(A) or len(M) != len(A):
        raise ValueError("relations and action must be square of equal size")
    A = xl.mat(A)  # hashable, as intertwiner_kernel's cache needs
    n = len(M)
    xl.guard_bits(M)
    det = xl.det(M)
    if det == 0:
        raise InfiniteQuotientError("relation matrix is singular")
    diag, V, vinv = xl.snf(M)
    if xl.mat_mul(V, vinv) != xl.identity(n):
        raise InternalInconsistencyError("Smith transform V and its inverse disagree")
    if not all(0 < d and e % d == 0 for d, e in zip(diag, diag[1:])) or math.prod(diag) != abs(det):
        raise InternalInconsistencyError("Smith diagonal is not a chain of positive divisors of det M")
    if any(x % d for row in xl.mat_mul(M, V) for x, d in zip(row, diag)):
        raise InternalInconsistencyError("Smith form does not present the relation lattice")
    abar = xl.mat_mul(xl.mat_mul(vinv, A), V)
    if any(di * x % dj for di, row in zip(diag, abar) for x, dj in zip(row, diag)):
        raise IllFormedActionError("action does not preserve the relation lattice")
    pos = tuple(i for i, d in enumerate(diag) if d > 1)
    factors = tuple(diag[i] for i in pos)
    act_red = _mod_cols(
        tuple(tuple(abar[i][j] for j in pos) for i in pos), factors
    )
    return FiniteModulePresentation(
        n=n,
        relations=M,
        action=A,
        vmat=V,
        vmat_inv=vinv,
        order=abs(det),
        pos=pos,
        factors=factors,
        act_red=act_red,
    )


@dataclass(frozen=True)
class ModuleMap:
    """Additive map between presentations, rows = images of the canonical
    generators in target coordinates."""

    source: FiniteModulePresentation
    target: FiniteModulePresentation
    mat: Mat

    def apply(self, e: Vec) -> Vec:
        c = xl.vec_mat(e, self.mat) if self.mat else (0,) * self.target.rank
        return tuple(x % d for x, d in zip(c, self.target.factors))

    def is_well_defined(self) -> bool:
        for d, row in zip(self.source.factors, self.mat):
            for x, m in zip(row, self.target.factors):
                if (d * x) % m != 0:
                    return False
        return True

    def intertwines(self) -> bool:
        lhs = xl.mat_mul(self.source.act_red, self.mat) if self.mat else ()
        rhs = xl.mat_mul(self.mat, self.target.act_red) if self.mat else ()
        mods = self.target.factors
        return _mod_cols(lhs, mods) == _mod_cols(rhs, mods)

    def is_surjective(self) -> bool:
        r = self.target.rank
        if r == 0:
            return True
        rel = tuple(
            tuple(d if i == j else 0 for j in range(r))
            for i, d in enumerate(self.target.factors)
        )
        return xl.hnf_basis(self.mat + rel) == xl.identity(r)

    def is_isomorphism(self) -> bool:
        return (
            self.source.order == self.target.order
            and self.is_well_defined()
            and self.intertwines()
            and self.is_surjective()
        )

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        m = xl.mat_mul(self.mat, then.mat) if self.mat and then.mat else xl.zeros(self.source.rank, then.target.rank)
        return ModuleMap(self.source, then.target, _mod_cols(m, then.target.factors))


def map_from_ambient(source: FiniteModulePresentation, target: FiniteModulePresentation, W: Mat) -> ModuleMap | None:
    """The map [m] -> [m W] if W carries the source relations into the target
    lattice; None otherwise."""
    if not all(map(target.contains, xl.mat_mul(source.relations, W))):
        return None
    rows = tuple(target.reduce(xl.vec_mat(source.lift(
        tuple(1 if i == j else 0 for i in range(source.rank))), W))
        for j in range(source.rank))
    return ModuleMap(source, target, rows)


def _primes(P: FiniteModulePresentation) -> list[int]:
    """The primes dividing the order, from the largest invariant factor:
    every d_i divides d_r, so d_r has the same primes and fewer bits."""
    return sorted(factorint(P.factors[-1])) if P.factors else []


def _primary_component(P: FiniteModulePresentation, p: int):
    """Component presentation at p plus embed/project coordinate matrices.

    embed: component coords -> coords of P (rows = images of component
    generators); project: coords of P -> component coords.  Both are exact
    splittings coming from the per-coordinate CRT idempotents.
    """
    es = []
    idx = []
    for i, d in enumerate(P.factors):
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e > 0:
            es.append(e)
            idx.append(i)
    r = len(idx)
    pe = tuple(p**e for e in es)
    u = tuple(P.factors[i] // q for i, q in zip(idx, pe))
    uinv = tuple(pow(ui, -1, q) for ui, q in zip(u, pe))
    # induced action: B = diag(u) . A'[idx,idx] . diag(uinv), columns mod p^e
    B = tuple(
        tuple((u[a] * P.act_red[idx[a]][idx[b]] * uinv[b]) % pe[b] for b in range(r))
        for a in range(r)
    )
    rel = tuple(tuple(pe[i] if i == j else 0 for j in range(r)) for i in range(r))
    comp = quotient(rel, B)
    if comp.factors != pe or comp.pos != tuple(range(r)):
        raise InternalInconsistencyError("primary component presentation degenerated")
    embed = tuple(
        tuple(u[a] if P_i == idx[a] else 0 for P_i in range(P.rank)) for a in range(r)
    )
    project = tuple(
        tuple(uinv[b] if i == idx[b] else 0 for b in range(r)) for i in range(P.rank)
    )
    return comp, embed, project


def _action_char_poly_mod_p(P: FiniteModulePresentation, p: int) -> tuple[int, ...]:
    """Characteristic polynomial over F_p of the action induced on G/pG."""
    sel = [i for i, d in enumerate(P.factors) if d % p == 0]
    if not sel:
        return (1,)
    sub = tuple(tuple(P.act_red[i][j] for j in sel) for i in sel)
    return tuple(c % p for c in xl.char_poly(sub))


def _group_mismatch(PA: FiniteModulePresentation, PB: FiniteModulePresentation) -> dict | None:
    """Order and invariant factors, which need no factoring."""
    if PA.order != PB.order:
        return {
            "reason": "order",
            "left": PA.order,
            "right": PB.order,
        }
    if PA.factors != PB.factors:
        return {
            "reason": "invariant_factors",
            "left": list(PA.factors),
            "right": list(PB.factors),
        }
    return None


def _action_mismatch(PA: FiniteModulePresentation, PB: FiniteModulePresentation, primes: list[int]) -> dict | None:
    """Per-prime characteristic polynomials of the actions on G/pG, for
    presentations with equal invariant factors."""
    for p in primes:
        ca = _action_char_poly_mod_p(PA, p)
        cb = _action_char_poly_mod_p(PB, p)
        if ca != cb:
            return {
                "reason": "action_char_poly_mod_p",
                "prime": p,
                "left": list(ca),
                "right": list(cb),
            }
    return None


def invariant_mismatch(PA: FiniteModulePresentation, PB: FiniteModulePresentation) -> dict | None:
    """Cheap decisive obstructions: order, invariant factors, and per-prime
    characteristic polynomial of the action on G/pG.  None when all agree."""
    mismatch = _group_mismatch(PA, PB)
    if mismatch is None:
        mismatch = _action_mismatch(PA, PB, _primes(PA))
    return mismatch


@dataclass(frozen=True)
class IsoResult:
    verdict: str                      # "yes" | "no" | "unknown"
    iso: ModuleMap | None = None
    witness: dict | None = None
    tried: int = 0

    def to_data(self) -> dict:
        out = {"verdict": self.verdict, "candidates_tried": self.tried}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.iso is not None:
            out["iso_matrix"] = [list(r) for r in self.iso.mat]
        return out


def intertwiner_system(A: Mat, B: Mat) -> Mat:
    """The n^2 x n^2 matrix of W -> A W - W B on row-vectorized W."""
    n = len(A)
    rows = []
    for k in range(n):
        for l in range(n):
            row = [0] * (n * n)
            for i in range(n):
                for j in range(n):
                    coeff = (A[i][k] if l == j else 0) - (B[l][j] if i == k else 0)
                    row[i * n + j] = coeff
            rows.append(tuple(row))
    return tuple(rows)


def _krylov_generators(A: Mat, B: Mat) -> Mat | None:
    """Rows vec(A^i P adj Q), i < n, each divided by its content, where P
    and Q are the Krylov matrices [e1 | M e1 | ... | M^(n-1) e1] of A and B;
    None when n = 0, P or Q is singular, or W0 = P Q^-1 fails A W0 = W0 B.

    Otherwise A P = P C and B Q = Q C for one companion matrix C, so A and
    B are cyclic and similar, and the rational intertwiners are Q[A] W0:
    the rows span {W : A W = W B} over Q."""
    n = len(A)
    if n == 0:
        return None
    krylov = []
    for M in (A, B):
        cols = [xl.identity(n)[0]]
        Mt = xl.transpose(M)
        for _ in range(n - 1):
            cols.append(xl.vec_mat(cols[-1], Mt))  # M v, as a row
        if xl.det(cols) == 0:
            return None
        krylov.append(xl.transpose(cols))
    P, Q = krylov
    W = xl.mat_mul(P, xl.invert_rational(Q)[0])
    AW = xl.mat_mul(A, W)
    if AW != xl.mat_mul(W, B):
        return None
    rows = []
    for k in range(n):
        if k:
            W = AW if k == 1 else xl.mat_mul(A, W)
        v = tuple(x for row in W for x in row)
        g = math.gcd(*v)
        rows.append(tuple(x // g for x in v))
    return tuple(rows)


@functools.lru_cache(maxsize=1)
def intertwiner_kernel(A: Mat, B: Mat) -> Mat:
    """HNF basis of {W : A W = W B} in row-vectorized form, each row
    verified to intertwine.

    The basis is the saturation of a rational basis of that space.  When
    e1 is cyclic for both A and B and P Q^-1 (Krylov matrices of e1)
    intertwines, the n rows of _krylov_generators are that basis; for every
    other pair (n = 0, non-cyclic such as M + M, e1 not cyclic, or not
    similar) one fraction-free elimination of the n^2 x n^2 system gives
    its rational kernel.  Either way the result is the canonical HNF of the
    same lattice.

    The only builder of this lattice.  Every stage of one decision asks for
    the same pair, so the last result is kept and the lattice is built once;
    A and B must therefore be hashable tuple matrices.
    """
    n = len(A)
    gens = _krylov_generators(A, B)
    if gens is None:
        gens = xl.rational_kernel(intertwiner_system(A, B))
    basis = xl.saturation(gens)
    for v in basis:
        K = xl.unvec(v, n)
        if xl.mat_mul(A, K) != xl.mat_mul(K, B):
            raise InternalInconsistencyError("intertwiner basis row fails A K = K B")
    return basis


def _hom_lattice_quotient(S: FiniteModulePresentation, T: FiniteModulePresentation):
    """All additive intertwining maps S -> T as a finite quotient.

    Returns (basis, reps_diag, vq_inv) where the maps are exactly
    {lift(c) @ vq_inv @ basis : c in prod(range(d) for d in reps_diag)},
    each row-vectorized over the target coordinates.
    """
    rs, rt = S.rank, T.rank
    N = rs * rt
    cols = []
    mods = []
    for i in range(rs):
        for j in range(rt):
            col = [0] * N
            col[i * rt + j] = S.factors[i]
            cols.append(col)
            mods.append(T.factors[j])
    for i in range(rs):
        for j in range(rt):
            col = [0] * N
            for k in range(rs):
                col[k * rt + j] += S.act_red[i][k]
            for k in range(rt):
                col[i * rt + k] -= T.act_red[k][j]
            cols.append(col)
            mods.append(T.factors[j])
    C = tuple(tuple(cols[c][v] for c in range(len(cols))) for v in range(N))
    basis = xl.congruence_kernel(C, tuple(mods))
    zero_lat = tuple(
        tuple(T.factors[v % rt] if w == v else 0 for w in range(N)) for v in range(N)
    )
    trows = []
    for zrow in zero_lat:
        sol = xl.lattice_membership(basis, zrow)
        if sol is None:
            raise InternalInconsistencyError("hom lattice does not contain the zero maps")
        trows.append(sol)
    diag, _, vq_inv = xl.snf(tuple(trows))
    return basis, diag, vq_inv


def _hom_from_coords(c: Vec, vq_inv: Mat, basis: Mat, rs: int, rt: int, tfactors: Vec) -> Mat:
    y = xl.vec_mat(c, vq_inv)
    f = xl.vec_mat(y, basis)
    return tuple(
        tuple(f[i * rt + j] % tfactors[j] for j in range(rt)) for i in range(rs)
    )


def _mixed_radix(index: int, box: Vec) -> Vec:
    """The index-th point of the box in lexicographic order (last
    coordinate fastest), without building the box's ranges."""
    coords = []
    for d in reversed(box):
        index, c = divmod(index, d)
        coords.append(c)
    return tuple(reversed(coords))


def _component_iso_search(S: FiniteModulePresentation, T: FiniteModulePresentation, p: int, budget: int):
    """Search for an intertwining isomorphism between p-primary components.

    Returns (F or None, tried, complete); complete=True means the whole hom
    set was decided, so F=None is then a certified non-existence.

    One lazy walk over at most budget points of a box of hom coordinates:
    the whole hom set, or the sub-box of coordinates <= rank when that fits
    the budget and the hom set does not, for square elementary-abelian
    components over p > rank.  There isomorphy is a nonzero det over F_p of
    degree <= rank in each coordinate, so the sub-box decides it.
    """
    basis, diag, vq_inv = _hom_lattice_quotient(S, T)
    box = diag
    if S.rank == T.rank < p and all(d == p for d in S.factors + T.factors):
        grid = tuple(min(d, T.rank + 1) for d in diag)
        if math.prod(diag) > budget >= math.prod(grid):
            box = grid
    walk = min(math.prod(box), budget)
    for index in range(walk):
        F = _hom_from_coords(_mixed_radix(index, box), vq_inv, basis, S.rank, T.rank, T.factors)
        if ModuleMap(S, T, F).is_surjective():
            return F, index + 1, True
    return None, walk, math.prod(box) <= budget


# max-norm radius of the ambient intertwiner candidates when the intertwiner
# lattice has rank <= 4 (radius 1 above that)
INTERTWINER_SHELLS = 3


def module_iso_exists(
    PA: FiniteModulePresentation,
    PB: FiniteModulePresentation,
    budget: int = 100_000,
) -> IsoResult:
    """Decide whether the presentations are isomorphic as modules with their
    matrix actions.

    Ladder: order and invariant factors; then the identity map and the
    candidate maps induced by exact ambient intertwiners; only then, with
    the largest invariant factor factored once, the per-prime action
    characteristic polynomials and a per-primary-component search through
    the full set of intertwining homomorphisms (exhaustion certifies No,
    budget overflow yields Unknown).  Isomorphic modules have equal per-prime polynomials,
    so trying maps first changes no verdict; it only skips the factoring.
    Any Yes carries a map re-verified exactly before return.
    """
    mismatch = _group_mismatch(PA, PB)
    if mismatch is not None:
        return IsoResult("no", witness=mismatch)
    if PA.order == 1:
        return IsoResult("yes", iso=ModuleMap(PA, PB, ()))
    tried = 0

    ident = ModuleMap(PA, PB, xl.identity(PA.rank))
    tried += 1
    if ident.is_isomorphism():
        return IsoResult("yes", iso=ident, tried=tried)

    if PA.n == PB.n:
        kern = intertwiner_kernel(PA.action, PB.action)

        def accept(c):
            m = map_from_ambient(PA, PB, xl.unvec(xl.vec_mat(c, kern), PA.n))
            return m if m is not None and m.is_isomorphism() else None

        # -W induces an isomorphism exactly when W does, so one of each +-W
        shells = INTERTWINER_SHELLS if len(kern) <= 4 else 1
        m, t = xl.bounded_search(len(kern), shells, accept, min(budget, 20_000) - tried)
        tried += t
        if m is not None:
            return IsoResult("yes", iso=m, tried=tried)

    primes = _primes(PA)
    mismatch = _action_mismatch(PA, PB, primes)
    if mismatch is not None:
        return IsoResult("no", witness=mismatch, tried=tried)

    comps_a = {p: _primary_component(PA, p) for p in primes}
    comps_b = {p: _primary_component(PB, p) for p in primes}
    per_prime: dict[int, Mat] = {}
    incomplete = []
    for p in comps_a:
        Sp, _, _ = comps_a[p]
        Tp, _, _ = comps_b[p]
        F, t, complete = _component_iso_search(Sp, Tp, p, budget)
        tried += t
        if F is not None:
            per_prime[p] = F
        elif complete:
            return IsoResult(
                "no",
                witness={
                    "reason": "exhausted_search",
                    "prime": p,
                    "hom_count_scanned": t,
                },
                tried=tried,
            )
        else:
            incomplete.append(p)
    if incomplete:
        return IsoResult(
            "unknown",
            witness={"reason": "budget_exhausted", "primes_undecided": incomplete},
            tried=tried,
        )

    # assemble the global map through the CRT splittings and re-verify
    total = xl.zeros(PA.rank, PB.rank)
    for p, F in per_prime.items():
        _, _, proj_a = comps_a[p]
        _, embed_b, _ = comps_b[p]
        total = xl.mat_add(total, xl.mat_mul(xl.mat_mul(proj_a, F), embed_b))
    iso = ModuleMap(PA, PB, _mod_cols(total, PB.factors))
    if not iso.is_isomorphism():
        raise InternalInconsistencyError("assembled module isomorphism failed verification")
    return IsoResult("yes", iso=iso, tried=tried)
