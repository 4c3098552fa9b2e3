"""Number-field side of the invariants: Q(beta) for a monic irreducible
defining polynomial, eigenvector fractional ideals, multiplier rings, colon
ideals, weak equivalence, a bounded principality search, and the
intertwining matrix built from a generator of a colon ideal.

Ideals are full-rank Z-lattices in power-basis coordinates, stored as an
integer HNF matrix over a positive denominator so equality is bit-exact.
Products, colons and containment work on integer rows: an element acts
through the integer multiplication matrix of its coordinate row.  A
multiplier ring is built by the caller and passed on, never cached.
"""

from dataclasses import dataclass
from math import gcd

from . import exact_linalg as xl
from . import polys
from .bf_invariants import cached_char_poly
from .errors import InternalInconsistencyError, UnsupportedError

Mat = xl.Mat
Vec = xl.Vec


@dataclass(frozen=True)
class NumberField:
    """Q(beta) for a fixed monic defining polynomial p of degree n >= 2."""

    p: polys.Poly
    n: int
    beta_n_row: Vec           # coordinates of beta^n in the power basis

    @classmethod
    def create(cls, p: polys.Poly) -> "NumberField":
        n = polys.degree(p)
        if n < 2 or not polys.is_monic(p):
            raise UnsupportedError("defining polynomial must be monic of degree >= 2")
        if n > 4:
            raise UnsupportedError(f"irreducibility is only decided up to degree 4, not {n}")
        if not polys.is_irreducible_deg_le4(p):
            raise UnsupportedError(f"reducible polynomial {polys.to_str(p)}")
        return cls(p=p, n=n, beta_n_row=tuple(-c for c in p[:-1]))


@dataclass(frozen=True)
class FieldElement:
    """num / den over the power basis 1, beta, ..., beta^(n-1), in lowest terms."""

    nf: NumberField
    num: Vec
    den: int

    @staticmethod
    def make(nf: NumberField, num, den: int = 1) -> "FieldElement":
        num = tuple(int(x) for x in num)
        if len(num) != nf.n:
            raise ValueError("coordinate length mismatch")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = tuple(-x for x in num), -den
        g = den
        for x in num:
            g = gcd(g, x)
        if g > 1:
            num = tuple(x // g for x in num)
            den //= g
        return FieldElement(nf, num, den)

    def to_str(self) -> str:
        terms = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 and i > 0 else str(abs(c))
            sign = "-" if c < 0 else ("+" if terms else "")
            if i == 0:
                body = str(abs(c))
            elif i == 1:
                body = f"{mag}b"
            else:
                body = f"{mag}b^{i}"
            terms.append(sign + body)
        body = "".join(terms) if terms else "0"
        return body if self.den == 1 else f"({body})/{self.den}"


def multiplication_matrix(nf: NumberField, row: Vec) -> Mat:
    """Row-action matrix M of the element z with integer coordinates row:
    coords(w z) = coords(w) @ M, so row i of M holds the coordinates of
    beta^i z.  Each row is beta times the one before: shifted up one
    place, its top coefficient times beta^n added."""
    rows = [tuple(row)]
    for _ in range(nf.n - 1):
        *low, top = rows[-1]
        rows.append((top * nf.beta_n_row[0], *(c + top * b for c, b in zip(low, nf.beta_n_row[1:]))))
    return tuple(rows)


def beta_matrix(nf: NumberField) -> Mat:
    """multiplication_matrix of beta: its rows are beta, ..., beta^n."""
    return multiplication_matrix(nf, xl.identity(nf.n)[1])


@dataclass(frozen=True)
class FractionalIdeal:
    """Full-rank Z-lattice in K closed under multiplication by beta.

    Lattice = {v @ mat / den : v integral}, mat in HNF, den > 0, and
    gcd(content(mat), den) = 1, so equality is plain tuple comparison.
    """

    nf: NumberField
    mat: Mat
    den: int

    @staticmethod
    def normalize(nf: NumberField, rows: Mat, den: int, check_beta: bool = True) -> "FractionalIdeal":
        if den <= 0:
            raise ValueError("denominator must be positive")
        basis = xl.hnf_basis(rows)
        if len(basis) != nf.n:
            raise ValueError("ideal lattice is not full rank")
        g = den
        for r in basis:
            for x in r:
                g = gcd(g, x)
        if g > 1:
            basis = tuple(tuple(x // g for x in r) for r in basis)
            den //= g
        ideal = FractionalIdeal(nf=nf, mat=basis, den=den)
        if check_beta and not ideal.is_beta_closed():
            raise ValueError("lattice is not closed under multiplication by beta")
        return ideal

    @staticmethod
    def z_beta(nf: NumberField) -> "FractionalIdeal":
        return FractionalIdeal.normalize(nf, xl.identity(nf.n), 1, check_beta=False)

    def contains(self, rows: Mat, den: int = 1) -> bool:
        """Every row / den lies in the lattice."""
        for row in rows:
            scaled = [x * self.den for x in row]
            if any(s % den for s in scaled):
                return False
            if xl.lattice_membership(self.mat, tuple(s // den for s in scaled)) is None:
                return False
        return True

    def is_beta_closed(self) -> bool:
        return self.contains(xl.mat_mul(self.mat, beta_matrix(self.nf)), self.den)

    def contains_one(self) -> bool:
        return self.contains(xl.identity(self.nf.n)[:1])

    def is_subset(self, other: "FractionalIdeal") -> bool:
        return other.contains(self.mat, self.den)

    def scale(self, z: FieldElement) -> "FractionalIdeal":
        M = multiplication_matrix(self.nf, z.num)
        return FractionalIdeal.normalize(
            self.nf, xl.mat_mul(self.mat, M), self.den * z.den, check_beta=False
        )

    def to_data(self) -> dict:
        return {"basis": [list(r) for r in self.mat], "den": self.den}


def ideal_product(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    """HNF span of all pairwise basis products: the rows of I.mat @ M(b)
    for each row b of J.mat, over I.den J.den."""
    rows = tuple(r for b in J.mat for r in xl.mat_mul(I.mat, multiplication_matrix(I.nf, b)))
    return FractionalIdeal.normalize(I.nf, rows, I.den * J.den, check_beta=False)


def colon_ideal(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    """(I : J) = {z in K : z J <= I}, from one dual basis.

    With zeta the coordinates of z and M_k the multiplication matrix of row k
    of J.mat, z J <= I iff zeta M_k adj(I.mat) I.den / (J.den det I.mat) is
    integral for every k.  So the zeta form J.den det(I.mat) / I.den times
    the dual of the lattice L spanned by the columns of the M_k adj(I.mat),
    and the dual of L is the row lattice of (H^T)^-1 for an HNF basis H of L.
    """
    adj, det = xl.invert_rational(I.mat)
    cols = []
    for row in J.mat:
        cols.extend(xl.transpose(xl.mat_mul(multiplication_matrix(I.nf, row), adj)))
    dual, dden = xl.invert_rational(xl.transpose(xl.hnf_basis(tuple(cols))))
    return FractionalIdeal.normalize(I.nf, xl.mat_scale(dual, J.den * det), dden * I.den, check_beta=False)


def multiplier_ring(I: FractionalIdeal) -> FractionalIdeal:
    """O(I) = (I : I), with the ring axioms and Z[beta]-containment verified.

    Nothing keeps the result: decide builds the rings of its two eigen
    ideals once and passes them to every stage that needs them.
    """
    O = colon_ideal(I, I)
    if not O.contains_one():
        raise InternalInconsistencyError("multiplier ring misses 1")
    if not FractionalIdeal.z_beta(I.nf).is_subset(O):
        raise InternalInconsistencyError("multiplier ring misses Z[beta]")
    if ideal_product(O, O) != O:
        raise InternalInconsistencyError("multiplier ring not multiplicatively closed")
    return O


def eigen_ideal(A: Mat) -> tuple[FractionalIdeal, Mat, NumberField]:
    """Fractional ideal spanned by the entries v_i of a row vector v over K
    with v A = beta v; returns (ideal, V, field), where row i of the
    integer matrix V holds the coordinates of v_i, made primitive.

    v is the first nonzero row of adj(beta I - A), assembled from the
    Horner matrices of char_poly(A).  Checked on integer rows: A^T V =
    V M(beta), which is v A = beta v coordinate by coordinate (so the span
    is beta-closed, since beta v_i = (v A)_i); the ideal's beta-closure;
    and its equality with the Z[beta]-span of the v_i, the rows of
    V M(beta)^i for i < n.
    """
    p = cached_char_poly(A)
    nf = NumberField.create(p)
    n = nf.n
    # adj(xI - A) = sum_j x^j B_j with B_(n-1) = I and B_(j-1) = A B_j + p_j I
    Bs = [xl.identity(n)]
    for j in range(n - 1, 0, -1):
        Bs.append(xl.mat_mul_rows(A, Bs[-1], p[j]))
    Bs.reverse()
    for i in range(n):
        # entry c of row i of adj(beta I - A) is sum_j B_j[i][c] beta^j
        V = tuple(tuple(B[i][c] for B in Bs) for c in range(n))
        if any(map(any, V)):
            break
    else:
        raise InternalInconsistencyError("adjugate of beta I - A vanished entirely")
    g = 0
    for r in V:
        for x in r:
            g = gcd(g, x)
    V = tuple(tuple(x // g for x in r) for r in V)
    Mb = beta_matrix(nf)
    if xl.mat_mul(xl.transpose(A), V) != xl.mat_mul(V, Mb):
        raise InternalInconsistencyError("eigenvector identity v A = beta v failed")
    ideal = FractionalIdeal.normalize(nf, V, 1)
    span, power = [], V
    for _ in range(n):
        span.extend(power)
        power = xl.mat_mul(power, Mb)
    if FractionalIdeal.normalize(nf, tuple(span), 1, check_beta=False) != ideal:
        raise InternalInconsistencyError("eigen ideal span mismatch")
    return ideal, V, nf


@dataclass(frozen=True)
class WeakEquivalence:
    equivalent: bool
    reason: str | None
    X: FractionalIdeal | None
    Y: FractionalIdeal | None

    def to_data(self) -> dict:
        out: dict = {"weakly_equivalent": self.equivalent}
        if self.reason:
            out["reason"] = self.reason
        if self.X is not None:
            out["X"] = self.X.to_data()
        if self.Y is not None:
            out["Y"] = self.Y.to_data()
        return out


def weak_equivalence(
    I: FractionalIdeal, J: FractionalIdeal, OI: FractionalIdeal, OJ: FractionalIdeal
) -> WeakEquivalence:
    """Test I X = J, J Y = I, X Y = O for X = (J : I), Y = (I : J), given
    the multiplier rings OI = O(I) and OJ = O(J).

    All three identities are verified exactly; none is assumed from the
    others.  When O(I) != O(J) the answer is ring_mismatch, and no colon
    ideal is built.
    """
    if (OI.mat, OI.den) != (OJ.mat, OJ.den):
        return WeakEquivalence(False, "ring_mismatch", None, None)
    X = colon_ideal(J, I)
    Y = colon_ideal(I, J)
    checks = {
        "IX=J": ideal_product(I, X) == J,
        "JY=I": ideal_product(J, Y) == I,
        "XY=O": ideal_product(X, Y) == OI,
    }
    if all(checks.values()):
        return WeakEquivalence(True, None, X, Y)
    failed = ",".join(k for k, ok in checks.items() if not ok)
    return WeakEquivalence(False, f"identity_failed:{failed}", X, Y)


@dataclass(frozen=True)
class PrincipalResult:
    found: bool
    generator: FieldElement | None
    bound: int
    tried: int

    def to_data(self) -> dict:
        out = {"principal": self.found, "bound": self.bound, "candidates": self.tried}
        if self.generator is not None:
            out["generator"] = self.generator.to_str()
        return out


def norm_form(X: FractionalIdeal) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The integer norm form N(c) = det(sum c_i M_i) of xl.det_form, M_i the
    multiplication matrix of row x_i of X.mat.  For z = sum c_i x_i / X.den,
    N(c) = det(multiplication_matrix(z.num)) (X.den / z.den)^n."""
    return xl.det_form([multiplication_matrix(X.nf, row) for row in X.mat])


def principal_search(
    X: FractionalIdeal, O: FractionalIdeal, bound: int, max_candidates: int = 200_000
) -> PrincipalResult:
    """Bounded search for z with z O = X over integer combinations of the
    basis of X with coefficients in [-bound, bound], at most max_candidates
    of them, for O = O(X), which the caller passes.

    Candidates run by max-norm shells, one of each +-z since z and -z
    generate the same ideal.  Each z lies in X and X is an O(X)-module, so
    z O <= X, with equality iff the two covolumes agree.  For
    z = sum c_i x_i / X.den over the rows x_i of X.mat that reads
    |N(c)| = t = |det X.mat| O.den^n / |det O.mat|, where N is the degree-n
    integer norm form of norm_form, built once per search; each shell is
    solved for N(c) = +-t first, there is no solution when t is not an
    integer, and only a solution becomes a field element, which the HNF
    equality z O = X confirms.  The solver (xl.box_solver) holds the values
    of N along a line of the box in the slots of one integer, each
    bit_length(2M) + 1 bits wide for M = the bound on |N| over the box plus
    t, so no slot reaches its top bit or borrows from the next; a line a
    word test flags is re-read slot by slot, since a borrow out of a hit
    may flag the slots above it.  Absence within the bound is reported as
    not-found, never as a proof of non-principality.
    """
    n = X.nf.n
    t, r = divmod(abs(xl.det(X.mat)) * O.den**n, abs(xl.det(O.mat)))

    def accept(coeffs):
        z = FieldElement.make(X.nf, xl.vec_mat(coeffs, X.mat), X.den)
        return z if O.scale(z) == X else None

    solutions = (norm_form(X), set() if r else {t, -t})
    z, tried = xl.bounded_search(n, bound, accept, max_candidates, solutions=solutions)
    return PrincipalResult(z is not None, z, bound, tried)


def xg_matrix(A: Mat, B: Mat, gamma: FieldElement, V: Mat, W: Mat) -> Mat:
    """Integer matrix X with gamma v = w X (entrywise over K), verified to
    satisfy X A = B X and det X != 0.

    V and W must be the eigenvector coordinate matrices of eigen_ideal,
    whose rows span I and J.
    """
    # column j of X solves sum_i w_i X_ij = gamma v_j over the power-basis
    # coordinates, i.e. x W = (V M(gamma))_j / gamma.den, through one inverse
    inv, den = xl.invert_rational(W)
    cols = xl.mat_mul(xl.mat_mul(V, multiplication_matrix(gamma.nf, gamma.num)), inv)
    d = den * gamma.den
    if any(x % d for r in cols for x in r):
        raise InternalInconsistencyError("X_g solution is not integral")
    X = xl.transpose(tuple(tuple(x // d for x in r) for r in cols))
    if xl.mat_mul(X, A) != xl.mat_mul(B, X):
        raise InternalInconsistencyError("X_g does not intertwine: X A != B X")
    if xl.det(X) == 0:
        raise InternalInconsistencyError("X_g is singular")
    return X
