"""Decision pipeline: orchestrates similarity, the binary quadratic forms of
a 2 x 2 pair, a unimodular search in the intertwiner lattice walked in three
legs with the BF screens between them, the fractional-ideal route, and the
tower route into a single verdict with machine-checkable evidence.

For n = 2 the proper classes of the binary quadratic forms of A and B
decide every similar pair right after similarity (see binary_forms), with
a conjugator or a binary_form_class witness; only a pair whose reduction
walk runs past binary_forms.MAX_STEPS goes on to the stages below.

For n >= 3, and for such a pair, a certificate makes every BF_g isomorphic
and a refutation is sound whenever it runs, so the order of search and
screens changes the evidence only.  The search comes first because it is
cheap and certifies most conjugate pairs: leg 1 walks shell 1 (max-norm 1)
before the screen over the linear polynomials x - c, leg 2 walks on to
FIRST_SEARCH_CANDIDATES before the screen over the rest of the family, and
leg 3 walks the rest after it.  A pair refuted at degree 1 thus pays shell 1
only, and leg 1 is skipped where shell 1 is long (rank > 6).
The tower route is one more BF screen, over the divisors of x^(k!) - 1
that the family lacks.

For an irreducible characteristic polynomial (3 <= n <= 4) the periodic
data are read off the eigen ideals after leg 1, where their multiplier
rings are built once and passed to every later stage: when both are
invertible over one multiplier ring O, every BF_g(A) and BF_g(B) is
O / g(beta) O, so no screen can refute (Latimer-MacDuffee 1933).  Such a
pair skips both screens and the tower route, walks the rest of the search
in one leg, and only the ideal route, the homoclinic side, is left to
decide it.

A Conjugate verdict always carries C with A C = C B and det C = +-1,
re-verified at emission; NotConjugate always carries a finite witness that
re-verifies from scratch; everything else is an honest Unknown that embeds
its budgets.
"""

from dataclasses import asdict, dataclass

from . import binary_forms
from . import exact_linalg as xl
from . import ideal_theory as ideals
from . import polys
from .bf_invariants import (
    ScreenReport,
    bf_group,
    cached_char_poly,
    family_candidates,
    hyperbolicity_check,
    invertibility_check,
    strong_bf_screen,
)
from .errors import InternalInconsistencyError
from .finite_modules import intertwiner_kernel, intertwiner_system, module_iso_exists
from .tower import _check_depth, tower_polynomials

Mat = xl.Mat
Vec = xl.Vec


@dataclass(frozen=True)
class PipelineConfig:
    family_max_shift: int = 5
    family_max_power: int = 6
    cyclotomic_index: int = 12
    iso_budget: int = 100_000
    tower_depth: int = 4
    unimodular_bound: int = 5
    search_max_candidates: int = 200_000
    principal_bound: int = 8

    def __post_init__(self):
        # checked here rather than by the tower route, which a pair decided
        # earlier never reaches, so a depth is refused whatever the input
        if self.tower_depth < 0:
            raise ValueError(f"tower_depth must be >= 0, got {self.tower_depth}")
        _check_depth(self.tower_depth)

    def to_data(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = PipelineConfig()


def similarity_check(A: Mat, B: Mat) -> bool:
    """Similarity over Q.

    Characteristic polynomials must agree.  A squarefree one
    (polys.is_squarefree) is already decisive: every matrix with that
    polynomial is cyclic, so its rational canonical form is the companion
    matrix.  Otherwise A ~ B iff the spaces C(X, Y) = {W : X W = W Y} of
    (A, A), (A, B) and (B, B) have one dimension (Byrnes and Gauger, 1977).
    Their n^2 x n^2 systems have one size, so equal dimensions are equal
    ranks, read off as pivot counts of echelon forms.
    """
    if len(A) != len(B):
        raise ValueError("dimension mismatch")
    pa, pb = cached_char_poly(A), cached_char_poly(B)
    if pa != pb:
        return False
    if polys.is_squarefree(pa):
        return True
    systems = (intertwiner_system(X, Y) for X, Y in ((A, A), (A, B), (B, B)))
    return len({xl.rank(S) for S in systems}) == 1


@dataclass(frozen=True)
class IntertwinerBasis:
    """HNF-reduced basis (vectorized rows) of {C : A C = C B} over Z."""

    n: int
    basis: Mat

    @property
    def rank(self) -> int:
        return len(self.basis)

    def matrix(self, coeffs: Vec) -> Mat:
        return xl.unvec(xl.vec_mat(coeffs, self.basis), self.n)


def intertwiner_lattice(A: Mat, B: Mat) -> IntertwinerBasis:
    """Integer kernel of C -> A C - C B, rows verified to intertwine:
    saturated from the Krylov rows A^i P adj Q when e1 is cyclic for A and
    B and P Q^-1 intertwines, else from one elimination of the n^2 x n^2
    system (see finite_modules.intertwiner_kernel).  In decide it is built
    for every similar pair before any BF screen, since its rank sets the
    first leg of the search; the module screen's map candidates reuse it."""
    return IntertwinerBasis(n=len(A), basis=intertwiner_kernel(xl.mat(A), xl.mat(B)))


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    conjugator: Mat | None
    bound: int
    tried: int

    def to_data(self) -> dict:
        out = {"found": self.found, "bound": self.bound, "candidates": self.tried}
        if self.conjugator is not None:
            out["conjugator"] = [list(r) for r in self.conjugator]
        return out


def unimodular_search(
    basis: IntertwinerBasis, bound: int, max_candidates: int = 200_000, start: int = 0
) -> SearchOutcome:
    """Enumerate C = sum c_i K_i over max-norm shells |c| <= bound, sparse
    first, one of each +-c since -C is unimodular iff C is, and return the
    first C with det C = +-1.  With start, the walk resumes after its first
    start candidates, which count as tried.

    When the walk runs to the end of the box and the rank^n determinants
    of det_form are no more than the box holds, each shell is solved for
    det(sum c_i K_i) = +-1 first and only its solutions become matrices."""

    def accept(c):
        C = basis.matrix(c)
        return C if xl.det(C) in (1, -1) else None

    solutions = None
    if basis.rank**basis.n <= ((2 * bound + 1) ** basis.rank - 1) // 2 <= max_candidates:
        solutions = (xl.det_form([xl.unvec(row, basis.n) for row in basis.basis]), {1, -1})
    C, tried = xl.bounded_search(
        basis.rank, bound, accept, max_candidates, start=start, solutions=solutions
    )
    return SearchOutcome(C is not None, C, bound, tried)


# the claims of a binary_form_class witness, as binary_forms.compare names them
FORM_CLASS_KEYS = ("discriminant", "left", "right")


# decide walks the search up to this many candidates before the degree >= 2
# screen, and the rest, up to search_max_candidates, after it; shell 1 runs
# before the degree-1 screen only when it is no longer than this (rank <= 6)
FIRST_SEARCH_CANDIDATES = 1_000


@dataclass(frozen=True)
class Verdict:
    outcome: str                     # "conjugate" | "not_conjugate" | "unknown"
    certificate: Mat | None
    witness: dict | None
    evidence: tuple[dict, ...]
    config: PipelineConfig

    def to_data(self) -> dict:
        out: dict = {"outcome": self.outcome}
        if self.certificate is not None:
            out["certificate"] = [list(r) for r in self.certificate]
        if self.witness is not None:
            out["witness"] = self.witness
        out["evidence"] = list(self.evidence)
        out["config"] = self.config.to_data()
        return out


def _emit_conjugate(A: Mat, B: Mat, C: Mat, evidence, config) -> Verdict:
    if xl.mat_mul(A, C) != xl.mat_mul(C, B):
        raise InternalInconsistencyError("certificate fails A C = C B")
    if xl.det(C) not in (1, -1):
        raise InternalInconsistencyError("certificate determinant is not a unit")
    return Verdict("conjugate", C, None, tuple(evidence), config)


def _bf_witness(screen: ScreenReport) -> dict:
    g, GA, GB, _ = screen.compared[-1]
    return {"kind": "bf_screen", "g": polys.to_str(g), "left": GA.fingerprint(), "right": GB.fingerprint()}


def _emit_not_conjugate(A: Mat, B: Mat, witness: dict, evidence, config) -> Verdict:
    """Rebuild the witness from A and B alone: every claim in it must match
    the rebuilt data, and the rebuilt data must refute."""
    kind = witness.get("kind")
    if kind == "similarity":
        pa, pb = xl.char_poly(A), xl.char_poly(B)
        claims = {"char_poly_left": polys.to_str(pa), "char_poly_right": polys.to_str(pb)}
        refuted = not similarity_check(A, B)
    elif kind == "bf_screen":
        g = polys.parse(witness["g"])
        GA, GB = bf_group(A, g), bf_group(B, g)
        claims = {"left": GA.fingerprint(), "right": GB.fingerprint()}
        refuted = module_iso_exists(GA, GB, budget=config.iso_budget).verdict == "no"
    elif kind == "binary_form_class":
        rebuilt = binary_forms.compare(A, B)[0] if len(A) == 2 else {}
        claims = {key: rebuilt.get(key) for key in FORM_CLASS_KEYS}
        refuted = "right" in rebuilt and rebuilt["right"] not in rebuilt["left"]
    elif kind == "multiplier_ring":
        ra = ideals.multiplier_ring(ideals.eigen_ideal(A)[0])
        rb = ideals.multiplier_ring(ideals.eigen_ideal(B)[0])
        claims = {"left": ra.to_data(), "right": rb.to_data()}
        refuted = (ra.mat, ra.den) != (rb.mat, rb.den)
    else:
        raise InternalInconsistencyError(f"unknown witness kind {kind!r}")
    wrong = [key for key, rebuilt in claims.items() if witness.get(key) != rebuilt]
    if wrong:
        raise InternalInconsistencyError(f"{kind} witness claims {wrong} that A and B do not rebuild")
    if not refuted:
        raise InternalInconsistencyError(f"{kind} witness does not re-verify")
    return Verdict("not_conjugate", None, witness, tuple(evidence), config)


def decide(A: Mat, B: Mat, config: PipelineConfig = DEFAULT_CONFIG) -> Verdict:
    """Full decision pipeline; see the package README for the stage order."""
    evidence: list[dict] = []
    A, B = xl.mat(A), xl.mat(B)
    if len(A) != len(B) or not xl.is_square(A) or not xl.is_square(B):
        raise ValueError("inputs must be square matrices of equal size")

    if A == B:
        evidence.append({"stage": "identical_inputs"})
        return _emit_conjugate(A, B, xl.identity(len(A)), evidence, config)

    # (1) similarity
    similar = similarity_check(A, B)
    pa, pb = cached_char_poly(A), cached_char_poly(B)
    evidence.append(
        {
            "stage": "similarity",
            "similar": similar,
            "char_poly_left": polys.to_str(pa),
            "char_poly_right": polys.to_str(pb),
        }
    )
    if not similar:
        return _emit_not_conjugate(
            A,
            B,
            {
                "kind": "similarity",
                "char_poly_left": polys.to_str(pa),
                "char_poly_right": polys.to_str(pb),
            },
            evidence,
            config,
        )

    # (2) hyperbolicity gates
    hyp = hyperbolicity_check(A)
    evidence.append({"stage": "hyperbolicity", "hyperbolic": hyp})

    # (3) n = 2: the proper classes of binary quadratic forms decide every
    # pair whose walks stay under binary_forms.MAX_STEPS
    if len(A) == 2:
        classes, C = binary_forms.compare(A, B)
        evidence.append({"stage": "binary_forms", **classes})
        if C is not None:
            return _emit_conjugate(A, B, C, evidence, config)
        if "right" in classes:
            witness = {"kind": "binary_form_class", **{key: classes[key] for key in FORM_CLASS_KEYS}}
            return _emit_not_conjugate(A, B, witness, evidence, config)

    # (4-7) one unimodular search in the intertwiner lattice, walked in three
    # legs with the two BF screens between them.  A unimodular C with
    # A C = C B induces BF_g(A) = BF_g(B) for every g, so no screen can
    # refute a pair the search certifies: the order changes the evidence only
    lattice = intertwiner_lattice(A, B)
    bound = config.unimodular_bound
    walk = min(((2 * bound + 1) ** lattice.rank - 1) // 2, config.search_max_candidates)
    tried = 0

    def leg(limit: int) -> Mat | None:
        """Walk on from candidate tried up to limit; the first leg that
        tries anything is the unimodular_search record, later ones resume."""
        nonlocal tried
        if tried >= min(limit, walk):
            return None
        search = unimodular_search(lattice, bound, min(limit, walk), start=tried)
        stage = "unimodular_search_resumed" if tried else "unimodular_search"
        evidence.append({"stage": stage, "rank": lattice.rank, "result": search.to_data()})
        tried = search.tried
        return search.conjugator

    # (4) leg 1: shell 1, the (3^rank - 1) / 2 vectors of max-norm 1, where
    # most certificates lie; skipped when it is longer than the first
    # FIRST_SEARCH_CANDIDATES (rank > 6), so that a pair refuted at degree 1
    # pays a few candidates at most
    shell = (3**lattice.rank - 1) // 2
    C = leg(shell if shell <= FIRST_SEARCH_CANDIDATES else 0)
    if C is not None:
        return _emit_conjugate(A, B, C, evidence, config)

    # (5) periodic data: for irreducible chi, Z^n with A is the eigen ideal I
    # with beta, so BF_g(A) = I / g(beta) I.  An ideal invertible over its
    # ring O is locally principal, so then BF_g(A) = O / g(beta) O for every
    # g; with J invertible over the same O no BF screen can refute, and the
    # screens and the tower route are skipped.  The ideals and rings are
    # built here once and passed to the ideal route
    eigen, skip = None, False
    if hyp and 3 <= len(A) <= 4 and polys.is_irreducible_deg_le4(pa):
        I, v, _ = ideals.eigen_ideal(A)
        J, w, _ = ideals.eigen_ideal(B)
        OI, OJ = ideals.multiplier_ring(I), ideals.multiplier_ring(J)
        eigen = I, v, J, w, OI, OJ
        skip = OI == OJ and ideals.is_invertible(I, OI) and ideals.is_invertible(J, OJ)
    if skip:
        evidence.append({"stage": "periodic_data", "reason": "invertible_over_one_order"})
    else:
        # (6) BF screen over the degree-1 members x - c: BF_{x-c} carries the
        # scalar action c, so order and invariant factors settle each one
        # (equal groups make the identity an isomorphism) without a module map.
        # The family is default_family(A), filtered here one degree at a time
        # so that a pair refuted at degree 1 tests no member of degree >= 2
        candidates = family_candidates(config.family_max_shift, config.family_max_power, config.cyclotomic_index)
        linear = [g for g in candidates if polys.degree(g) == 1 and invertibility_check(A, g)]
        screen = strong_bf_screen(A, B, linear, budget=config.iso_budget)
        evidence.append({"stage": "bf_screen", "report": screen.to_data()})
        if screen.outcome == "not_equivalent":
            return _emit_not_conjugate(A, B, _bf_witness(screen), evidence, config)

        # (6) leg 2: the walk on to its first FIRST_SEARCH_CANDIDATES candidates
        C = leg(FIRST_SEARCH_CANDIDATES)
        if C is not None:
            return _emit_conjugate(A, B, C, evidence, config)

        # (7) BF screen over the members of degree >= 2; its candidate module
        # maps reuse the lattice
        rest = [g for g in candidates if polys.degree(g) >= 2 and invertibility_check(A, g)]
        family = linear + rest
        screen = strong_bf_screen(A, B, rest, budget=config.iso_budget)
        evidence.append({"stage": "bf_module_screen", "report": screen.to_data()})
        if screen.outcome == "not_equivalent":
            return _emit_not_conjugate(A, B, _bf_witness(screen), evidence, config)

    # (7) leg 3, or the one leg after leg 1 when the screens are skipped: the
    # rest of the walk over the ((2 bound + 1)^rank - 1) / 2 candidates, up
    # to search_max_candidates
    C = leg(walk)
    if C is not None:
        return _emit_conjugate(A, B, C, evidence, config)

    # (8) ideal route (irreducible characteristic polynomial only)
    if eigen is not None:
        verdict = _ideal_route(A, B, eigen, evidence, config)
        if verdict is not None:
            return verdict

    # (9) tower route: a level isomorphism G_K(A) = G_K(B) induces one of
    # every quotient BF_g for g | x^(K!) - 1, so screen the tower polynomials
    # that stages 6 and 7 have not
    if hyp and not skip:
        extra = [g for g in tower_polynomials(config.tower_depth) if g not in family]
        screen = strong_bf_screen(A, B, extra, budget=config.iso_budget)
        evidence.append({"stage": "tower_route", "report": screen.to_data()})
        if screen.outcome == "not_equivalent":
            return _emit_not_conjugate(A, B, _bf_witness(screen), evidence, config)

    return Verdict("unknown", None, None, tuple(evidence), config)


def _ideal_route(A: Mat, B: Mat, eigen: tuple, evidence: list, config: PipelineConfig) -> Verdict | None:
    """Stage 8 on eigen = (I, v, J, w, O(I), O(J)), built in stage 5."""
    I, v, J, w, OI, OJ = eigen
    rings_equal = OI == OJ
    record: dict = {
        "stage": "ideal_route",
        "ideal_left": I.to_data(),
        "ideal_right": J.to_data(),
        "ring_left": OI.to_data(),
        "ring_right": OJ.to_data(),
        "rings_equal": rings_equal,
    }
    if not rings_equal:
        evidence.append(record)
        return _emit_not_conjugate(
            A,
            B,
            {"kind": "multiplier_ring", "left": OI.to_data(), "right": OJ.to_data()},
            evidence,
            config,
        )
    we = ideals.weak_equivalence(I, J, OI, OJ)
    record["weak_equivalence"] = we.to_data()
    if we.equivalent:
        # X Y = O(I) is verified, so O(X) = O(X) X Y = X Y = O(I)
        pr = ideals.principal_search(we.X, OI, config.principal_bound)
        record["principal_search"] = pr.to_data()
        if pr.found:
            # z O(X) = X with O(X) = O(I) and I X = J gives z I = J
            z = pr.generator
            if I.scale(z) != J:
                raise InternalInconsistencyError("generator of (J : I) does not carry I onto J")
            T = ideals.xg_matrix(A, B, z, v, w)
            if xl.det(T) not in (1, -1):
                raise InternalInconsistencyError("change of basis is not unimodular")
            record["conjugator_from_generator"] = [list(r) for r in T]
            evidence.append(record)
            C = xl.unimodular_inverse(T)
            return _emit_conjugate(A, B, C, evidence, config)
    evidence.append(record)
    return None
