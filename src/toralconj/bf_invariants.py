"""Generalized Bowen-Franks groups, hyperbolicity and invertibility gates,
and the strong-BF-equivalence screen over a finite polynomial family.

A screen pass is a necessary-condition filter only and is reported as
"passed_screen", never as full equivalence over all polynomials.
"""

import functools
from dataclasses import dataclass

from . import exact_linalg as xl
from . import polys
from .errors import InfiniteQuotientError, InternalInconsistencyError
from .finite_modules import FiniteModulePresentation, IsoResult, module_iso_exists, quotient

Mat = xl.Mat


@functools.lru_cache(maxsize=2)
def _char_poly_memo(A: Mat) -> polys.Poly:
    return xl.char_poly(A)


def cached_char_poly(A: Mat) -> polys.Poly:
    """char_poly(A), computed once per matrix.

    Every stage of one decision asks for the polynomials of the same two
    matrices, so the last two are kept.  The memo is separate from
    xl.char_poly, whose other callers (sub-matrices of module actions)
    cannot evict A and B.
    """
    return _char_poly_memo(xl.mat(A))


def hyperbolicity_check(A: Mat) -> bool:
    """True iff no eigenvalue has modulus one, decided exactly.

    Root-of-unity eigenvalues and all other unit-modulus eigenvalues are both
    caught by polys.has_root_on_unit_circle on the characteristic polynomial
    (closed forms up to degree 3, a reciprocal gcd and a Sturm count
    above), so no numerical fallback is needed.
    """
    return not polys.has_root_on_unit_circle(cached_char_poly(A))


@functools.lru_cache(maxsize=64)
def _reduce_memo(chi: polys.Poly, g: polys.Poly) -> tuple[polys.Poly, int]:
    """(g mod chi, |res(chi, g)|) for a monic chi, computed once per pair:
    the family's invertibility test and the BF groups of both matrices of a
    similar pair, whose characteristic polynomials agree, all ask for them.

    For g = x + a below the degree of chi, g mod chi is g and
    |res(chi, g)| = |chi(-a)|, one Horner pass instead of a determinant."""
    if len(g) == 2 and g[1] == 1 and polys.degree(chi) >= 2:
        return g, abs(polys.eval_at(chi, -g[0]))
    return polys.divmod_exact(g, chi)[1], abs(xl.resultant(chi, g))


def invertibility_check(A: Mat, g: polys.Poly) -> bool:
    """det g(A) != 0, read as res(char_poly(A), g) != 0: the two are equal
    because the characteristic polynomial is monic."""
    return _reduce_memo(cached_char_poly(A), tuple(g))[1] != 0


def bf_group(A: Mat, g: polys.Poly) -> FiniteModulePresentation:
    """BF_g(A) = Z^n / Z^n g(A) with the action of A; a singular g(A) raises
    InfiniteQuotientError.

    g(A) is evaluated as r(A) for r = g mod char_poly(A), of degree < n;
    the two matrices are equal by Cayley-Hamilton (char_poly is the closed
    form for n <= 3 and verifies the identity exactly otherwise).  The order
    is cross-checked against |res(char_poly(A), g)| at construction.
    """
    r, expected = _reduce_memo(cached_char_poly(A), tuple(g))
    try:
        module = quotient(xl.eval_poly_at_matrix(r, A), A)
    except InfiniteQuotientError:
        raise InfiniteQuotientError(f"g(A) singular (det=0) for g={polys.to_str(g)}") from None
    if module.order != expected:
        raise InternalInconsistencyError("BF order disagrees with the resultant")
    return module


def family_candidates(max_shift: int = 5, max_power: int = 6, cyclotomic_index: int = 12) -> list[polys.Poly]:
    """{x -+ c} + {x^m -+ 1} + small cyclotomics, deduplicated in a fixed
    order; every member of degree 1 comes before every other one, since
    x -+ 1 and Phi_1, Phi_2 lead their lists."""
    cands: list[polys.Poly] = []
    for c in range(1, max_shift + 1):
        cands.append((-c, 1))
        cands.append((c, 1))
    for m in range(1, max_power + 1):
        cands.append(polys.x_pow_minus_one(m))
        cands.append(polys.x_pow_plus_one(m))
    for d in range(1, cyclotomic_index + 1):
        cands.append(polys.cyclotomic(d))
    return list(dict.fromkeys(cands))


def default_family(
    A: Mat,
    max_shift: int = 5,
    max_power: int = 6,
    cyclotomic_index: int = 12,
) -> list[polys.Poly]:
    """The screening family: family_candidates filtered by invertibility
    for A."""
    return [g for g in family_candidates(max_shift, max_power, cyclotomic_index) if invertibility_check(A, g)]


@dataclass(frozen=True)
class ScreenReport:
    """The comparisons of one screen, (g, BF_g(A), BF_g(B), result) per
    polynomial screened; the last is the refutation when there is one."""

    family: tuple[polys.Poly, ...]
    compared: tuple[tuple[polys.Poly, FiniteModulePresentation, FiniteModulePresentation, IsoResult], ...]

    @property
    def outcome(self) -> str:
        """not_equivalent, partial_unknown or passed_screen."""
        verdicts = {res.verdict for *_, res in self.compared}
        if "no" in verdicts:
            return "not_equivalent"
        return "partial_unknown" if "unknown" in verdicts else "passed_screen"

    @property
    def witness(self) -> polys.Poly | None:
        return self.compared[-1][0] if self.outcome == "not_equivalent" else None

    @property
    def records(self) -> tuple[dict, ...]:
        return tuple(
            {
                "g": polys.to_str(g),
                "order_left": ga.order,
                "order_right": gb.order,
                "factors_left": list(ga.factors),
                "factors_right": list(gb.factors),
                "iso": res.to_data(),
            }
            for g, ga, gb, res in self.compared
        )

    def to_data(self) -> dict:
        out = {
            "family": [polys.to_str(g) for g in self.family],
            "outcome": self.outcome,
            "records": list(self.records),
        }
        if self.witness is not None:
            out["witness"] = polys.to_str(self.witness)
        if self.outcome == "partial_unknown":
            out["undecided"] = [polys.to_str(g) for g, *_, res in self.compared if res.verdict == "unknown"]
        return out


def strong_bf_screen(
    A: Mat,
    B: Mat,
    family: list[polys.Poly] | None = None,
    budget: int = 100_000,
) -> ScreenReport:
    """Per-polynomial module comparison of BF_g(A) against BF_g(B).

    Assumes the caller has already established similarity of A and B.  Stops
    at the first certified non-isomorphism; a full pass is only the finite
    screen passing, never equivalence over every polynomial.
    """
    if family is None:
        family = default_family(A)
    compared = []
    for g in family:
        ga, gb = bf_group(A, g), bf_group(B, g)
        res = module_iso_exists(ga, gb, budget=budget)
        compared.append((g, ga, gb, res))
        if res.verdict == "no":
            break
    return ScreenReport(family=tuple(family), compared=tuple(compared))
