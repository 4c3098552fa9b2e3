"""Command-line surface: bf, screen, tower, ideal, decide.

Matrix files hold either a JSON object {"n": int, "rows": [[...], ...]} or a
whitespace grid of integers (n lines of n entries); both are detected
automatically and parsed exactly.  Reports go to stdout as human text, or as
a structured JSON document with --json whose bytes are deterministic (wall
time is shown only in the human rendering).

Exit codes: 0 decisive result, 2 unknown or partially-unknown result,
1 input or resource error.
"""

import argparse
import json
import sys
import time

from . import exact_linalg as xl
from . import ideal_theory as ideals
from . import polys
from .bf_invariants import bf_group, default_family, hyperbolicity_check, strong_bf_screen
from .conjugacy_pipeline import DEFAULT_CONFIG, PipelineConfig, decide, similarity_check
from .errors import InputError, ToralConjError
from .tower import build_tower, injectivity_probe, verify_factorization, verify_filtered

Mat = xl.Mat


def parse_matrix_text(text: str, origin: str = "<input>") -> Mat:
    stripped = text.strip()
    if not stripped:
        raise InputError(f"{origin}: empty matrix file")
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped, parse_float=_reject_float)
        except ValueError as e:
            raise InputError(f"{origin}: bad JSON: {e}") from None
        if not isinstance(obj, dict) or "rows" not in obj:
            raise InputError(f"{origin}: JSON matrix needs a 'rows' field")
        rows = obj["rows"]
        n = obj.get("n", len(rows))
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError(f"{origin}: 'rows' must be a list of lists")
        for r in rows:
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"{origin}: non-integer entry {x!r}")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError(f"{origin}: matrix is not {n} x {n}")
        return tuple(tuple(r) for r in rows)
    lines = [ln for ln in stripped.splitlines() if ln.strip()]
    rows = []
    for ln in lines:
        try:
            rows.append(tuple(int(tok) for tok in ln.split()))
        except ValueError:
            raise InputError(f"{origin}: non-integer token in line {ln!r}") from None
    if any(len(r) != len(rows) for r in rows):
        raise InputError(f"{origin}: grid is not square")
    return tuple(rows)


def _reject_float(s: str):
    raise ValueError(f"float literal {s!r} not allowed; entries must be exact integers")


def load_matrix(path: str) -> Mat:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    return parse_matrix_text(text, origin=path)


def load_pair(path_a: str, path_b: str) -> tuple[Mat, Mat]:
    A, B = load_matrix(path_a), load_matrix(path_b)
    if len(A) != len(B):
        raise InputError(f"{path_a} is {len(A)} x {len(A)} but {path_b} is {len(B)} x {len(B)}")
    return A, B


def parse_poly_arg(text: str) -> polys.Poly:
    try:
        g = polys.parse(text)
    except ValueError as e:
        raise InputError(f"bad polynomial {text!r}: {e}") from None
    if not g:
        raise InputError("zero polynomial is not admissible")
    return g


def _matrix_data(M: Mat) -> dict:
    return {"n": len(M), "rows": [list(r) for r in M]}


def _report(command: str, inputs: dict, config: dict, result: dict, evidence=()) -> dict:
    """The one report skeleton every command emits, keys in a fixed order."""
    return {
        "command": command,
        "inputs": inputs,
        "config": config,
        "result": result,
        "evidence": list(evidence),
    }


def _emit(report: dict, as_json: bool, human_lines: list[str], started: float) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        for line in human_lines:
            print(line)
        print(f"elapsed: {time.monotonic() - started:.3f}s")


def cmd_bf(args) -> int:
    started = time.monotonic()
    A = load_matrix(args.matrix)
    g = parse_poly_arg(args.g)
    group = bf_group(A, g)
    report = _report(
        "bf",
        {"matrix": _matrix_data(A), "g": polys.to_str(g)},
        {},
        {"order": group.order, "invariant_factors": list(group.factors)},
    )
    _emit(
        report,
        args.json,
        [
            f"BF_{{{polys.to_str(g)}}} of the {len(A)}x{len(A)} input:",
            f"  order: {group.order}",
            f"  invariant factors: {list(group.factors)}",
        ],
        started,
    )
    return 0


def cmd_screen(args) -> int:
    started = time.monotonic()
    A, B = load_pair(args.matrix_a, args.matrix_b)
    inputs = {"matrix_a": _matrix_data(A), "matrix_b": _matrix_data(B)}
    config = {"family_c": args.family_c, "family_m": args.family_m, "budget": args.budget}
    if not similarity_check(A, B):
        result = {
            "outcome": "not_similar",
            "char_poly_left": polys.to_str(xl.char_poly(A)),
            "char_poly_right": polys.to_str(xl.char_poly(B)),
        }
        report = _report("screen", inputs, config, result)
        _emit(report, args.json, ["not similar: rational canonical data differ"], started)
        return 0
    family = default_family(A, max_shift=args.family_c, max_power=args.family_m)
    rep = strong_bf_screen(A, B, family, budget=args.budget)
    report = _report("screen", inputs, config, rep.to_data())
    lines = [f"screen outcome: {rep.outcome}"]
    if rep.witness is not None:
        lines.append(f"witness polynomial: {polys.to_str(rep.witness)}")
    for g, ga, gb, res in rep.compared:
        lines.append(
            f"  g={polys.to_str(g)}: orders {ga.order}/{gb.order}"
            f" factors {list(ga.factors)}/{list(gb.factors)} iso={res.verdict}"
        )
    _emit(report, args.json, lines, started)
    return 2 if rep.outcome == "partial_unknown" else 0


def cmd_tower(args) -> int:
    started = time.monotonic()
    A = load_matrix(args.matrix)
    if not hyperbolicity_check(A):
        print("error: input is not hyperbolic (an eigenvalue has modulus one)", file=sys.stderr)
        return 1
    tower = build_tower(A, args.levels)
    levels = [
        {"k": k, "order": lv.order, "invariant_factors": list(lv.factors)}
        for k, lv in enumerate(tower.levels, 1)
    ]
    result: dict = {"levels": levels}
    lines = ["tower levels:"]
    for lv in levels:
        lines.append(f"  k={lv['k']}: order {lv['order']} factors {lv['invariant_factors']}")
    if args.verify:
        checks: dict = {"nesting_verified": True}
        maxk = min(args.levels - 1, 3)
        checks["factorization"] = {
            str(k): verify_factorization(A, k) for k in range(1, maxk + 1)
        }
        checks["filtered_from_below"] = {
            f"{k1},{k2}": verify_filtered(A, k1, k2)
            for k1, k2 in ((1, 1), (1, 2), (2, 2))
            if k1 + k2 <= args.levels
        }
        probe = injectivity_probe(tower, args.probe_bound)
        checks["injectivity_probe"] = probe
        result["verify"] = checks
        lines.append(f"  factorization identities: {checks['factorization']}")
        lines.append(f"  filtered-from-below: {checks['filtered_from_below']}")
        lines.append(
            f"  injectivity probe (bound {args.probe_bound}): all_escape={probe['all_escape']}"
        )
    config = {"levels": args.levels, "verify": bool(args.verify), "probe_bound": args.probe_bound}
    report = _report("tower", {"matrix": _matrix_data(A)}, config, result)
    _emit(report, args.json, lines, started)
    return 0


def cmd_ideal(args) -> int:
    started = time.monotonic()
    A = load_matrix(args.matrix)
    I, v, nf = ideals.eigen_ideal(A)
    config: dict = {"sub": args.sub}
    result: dict = {"defining_polynomial": polys.to_str(nf.p), "ideal": I.to_data()}
    lines = [f"field: Q(beta), beta root of {polys.to_str(nf.p)}"]
    inputs = {"matrix": _matrix_data(A)}
    if args.sub == "show":
        lines.append(f"eigen ideal basis (HNF over den={I.den}): {[list(r) for r in I.mat]}")
        entries = [ideals.FieldElement.make(nf, row).to_str() for row in v]
        lines.append(f"eigenvector entries: {entries}")
        result["eigenvector"] = entries
    elif args.sub == "ring":
        O = ideals.multiplier_ring(I)
        result["multiplier_ring"] = O.to_data()
        full = (O.mat, O.den) == (xl.identity(nf.n), 1)
        result["equals_z_beta"] = full
        lines.append(f"multiplier ring basis: {[list(r) for r in O.mat]} / {O.den}")
        lines.append(f"equals Z[beta]: {full}")
    else:
        _, B = load_pair(args.matrix, args.matrix_b)
        pb = xl.char_poly(B)
        if pb != nf.p:
            raise InputError(
                f"{args.matrix} and {args.matrix_b} are not similar: characteristic "
                f"polynomials {polys.to_str(nf.p)} and {polys.to_str(pb)} differ"
            )
        inputs["matrix_b"] = _matrix_data(B)
        J, w, _ = ideals.eigen_ideal(B)
        result["ideal_right"] = J.to_data()
        if args.sub == "weak-equiv":
            we = ideals.weak_equivalence(I, J, ideals.multiplier_ring(I), ideals.multiplier_ring(J))
            result["weak_equivalence"] = we.to_data()
            lines.append(f"weakly equivalent: {we.equivalent}" + (f" ({we.reason})" if we.reason else ""))
        else:  # principal
            X = ideals.colon_ideal(J, I)
            pr = ideals.principal_search(X, ideals.multiplier_ring(X), args.bound)
            result["colon_ideal"] = X.to_data()
            result["principal_search"] = pr.to_data()
            lines.append(
                f"principal search on (J : I) at bound {args.bound}: "
                + ("found " + pr.generator.to_str() if pr.found else "not found within bound")
            )
            config["bound"] = args.bound
    _emit(_report("ideal", inputs, config, result), args.json, lines, started)
    return 0


def cmd_decide(args) -> int:
    started = time.monotonic()
    A, B = load_pair(args.matrix_a, args.matrix_b)
    config = PipelineConfig(
        family_max_shift=args.family_c,
        family_max_power=args.family_m,
        iso_budget=args.iso_budget,
        tower_depth=args.tower_depth,
        unimodular_bound=args.search_bound,
        principal_bound=args.principal_bound,
    )
    verdict = decide(A, B, config)
    data = verdict.to_data()
    report = _report(
        "decide",
        {"matrix_a": _matrix_data(A), "matrix_b": _matrix_data(B)},
        config.to_data(),
        data,
        data["evidence"],
    )
    lines = [f"verdict: {verdict.outcome}"]
    if verdict.certificate is not None:
        lines.append(f"conjugator C (A C = C B, det C = {xl.det(verdict.certificate)}):")
        for row in verdict.certificate:
            lines.append(f"  {list(row)}")
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness}")
    _emit(report, args.json, lines, started)
    return 0 if verdict.outcome in ("conjugate", "not_conjugate") else 2


def build_parser() -> argparse.ArgumentParser:
    cfg = DEFAULT_CONFIG
    ap = argparse.ArgumentParser(
        prog="toralconj",
        description="Exact conjugacy invariants for hyperbolic integer matrices",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bf", help="Bowen-Franks group of a matrix for a polynomial")
    p.add_argument("matrix")
    p.add_argument("g", help="polynomial, e.g. 'x+1' or 'x^3-23x^2+7x-1'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bf)

    p = sub.add_parser("screen", help="strong BF-equivalence screen over a finite family")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--family-c", type=int, default=cfg.family_max_shift, dest="family_c")
    p.add_argument("--family-m", type=int, default=cfg.family_max_power, dest="family_m")
    p.add_argument("--budget", type=int, default=cfg.iso_budget)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("tower", help="truncated quotient tower with optional verification")
    p.add_argument("matrix")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--probe-bound", type=int, default=5, dest="probe_bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("ideal", help="eigenvector fractional ideal computations")
    p.add_argument("matrix")
    p.add_argument("sub", choices=["show", "ring", "weak-equiv", "principal"])
    p.add_argument("matrix_b", nargs="?", default=None)
    p.add_argument("--bound", type=int, default=cfg.principal_bound)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("decide", help="full conjugacy decision pipeline")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--family-c", type=int, default=cfg.family_max_shift, dest="family_c")
    p.add_argument("--family-m", type=int, default=cfg.family_max_power, dest="family_m")
    p.add_argument("--iso-budget", type=int, default=cfg.iso_budget, dest="iso_budget")
    depth_help = f"screen the divisors of x^(k!)-1 for k <= N (default {cfg.tower_depth})"
    p.add_argument("--tower-depth", type=int, default=cfg.tower_depth, dest="tower_depth", metavar="N", help=depth_help)
    p.add_argument("--search-bound", type=int, default=cfg.unimodular_bound, dest="search_bound")
    p.add_argument("--principal-bound", type=int, default=cfg.principal_bound, dest="principal_bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decide)
    return ap


def _check_args(args) -> None:
    """What argparse leaves unchecked; checked here because argparse exits
    with 2, which means "unknown"."""
    if args.cmd == "ideal" and args.sub in ("weak-equiv", "principal") and not args.matrix_b:
        raise InputError("this ideal subcommand needs a second matrix file")
    for name, value in vars(args).items():
        if isinstance(value, int) and not isinstance(value, bool) and value < 0:
            raise InputError(f"--{name.replace('_', '-')} must be >= 0, got {value}")
    if getattr(args, "levels", 1) < 1:
        raise InputError(f"--levels must be >= 1, got {args.levels}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except ToralConjError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # an int-to-string conversion past the interpreter's digit limit, as
        # for a deep tower order of a matrix with large entries; the limit
        # also guards the parsing of matrix files, so it stays in place
        if "integer string conversion" not in str(e):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: an integer of the result has more than {limit} digits, the int-to-string limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
