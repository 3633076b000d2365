"""Command-line front end.

Every command emits a deterministic JSON document by default (sorted
keys, all numbers serialized as decimal or "p/q" strings so nothing is
ever truncated); --format text gives a human-readable summary whose
enumerator lines show the first few nonzero terms.

Exit codes: 0 success, 1 a verification failed to reproduce, 2 usage,
parse or input-domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import AffineForm, VerificationFailure, format_exact
from .gf2 import (BetaMismatchError, GeneratorFileError, extract_beta,
                  format_generator_file, is_minimal_shadow, is_self_dual,
                  min_weight, neighbor, parity_class, parse_generator_file,
                  reference_code_46, shadow, verify_neighbor_table)
from .gleason import (FamilyParams, ParametricEnumerator,
                      build_transform_tables, code_inverse_col0,
                      shadow_inverse_entry)
from .solver import (BETA, FAMILY_CASES, UNIQUE_FAMILIES,
                     beta_family_for_length, beta_range, family_case,
                     max_admissible, minimal_shadow_r, nonexistence_scan,
                     rains_bound, solve)


def _fmt(x) -> str:
    if isinstance(x, AffineForm):
        return str(x)
    return format_exact(x)


def _enumerator_doc(enum: ParametricEnumerator) -> dict:
    fam = enum.fam
    return {
        "n": str(fam.n),
        "family": {"m": str(fam.m), "l": str(fam.l), "r": str(fam.r)},
        "free_parameters": list(enum.free),
        "code_coefficients": [[str(2 * i), _fmt(v)] for i, v in enumerate(enum.a)],
        "shadow_coefficients": [[str(fam.shadow_exponent(i)), _fmt(v)]
                                for i, v in enumerate(enum.b)],
    }


def _enumerator_text(enum: ParametricEnumerator, terms: int = 5) -> list[str]:
    def series(pairs):
        shown = []
        for exp, v in pairs:
            if not v:
                continue
            body = _fmt(v)
            if " " in body or "/" in body:
                body = f"({body})"
            shown.append("1" if (body == "1" and exp == 0)
                         else (body if exp == 0 else
                               (f"y^{exp}" if body == "1" else f"{body} y^{exp}")))
            if len(shown) == terms:
                shown.append("...")
                break
        return " + ".join(shown) if shown else "0"

    fam = enum.fam
    return [
        "W_C = " + series(((2 * i, v) for i, v in enumerate(enum.a))),
        "W_S = " + series(((fam.shadow_exponent(i), v) for i, v in enumerate(enum.b))),
    ]


def _emit(doc: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def _scan_certificate(case, m, cert) -> dict:
    """The first offending coefficient of an inadmissible scan row."""
    weight = (2 * cert.index if cert.side == "a"
              else case.params(m).shadow_exponent(cert.index))
    return {"side": cert.side, "index": str(cert.index), "weight": str(weight),
            "value": format_exact(cert.value),
            "reason": "negative" if cert.value < 0 else "non-integer"}


def cmd_scan(args) -> int:
    case = family_case(args.family)
    results = nonexistence_scan(case, args.m_max, jobs=args.jobs)
    top = max_admissible(results)
    rows, lines = [], []
    for m, cert in results:
        row = {"m": str(m), "admissible": cert.ok}
        line = f"{case.tag}: m={m} admissible"
        if not cert:
            why = row["certificate"] = _scan_certificate(case, m, cert)
            line = (f"{case.tag}: m={m} not admissible ({why['side']}"
                    f"[{why['index']}] at weight {why['weight']}, "
                    f"{why['reason']})")
        rows.append(row)
        lines.append(line)
    doc = {
        "command": "scan",
        "family": case.tag,
        "m_max": str(args.m_max),
        "results": rows,
        "max_admissible": None if top is None else str(top),
    }
    lines.append(f"max admissible m = {top}")
    _emit(doc, lines, args.format)
    return 0


def cmd_solve(args) -> int:
    case = family_case(args.family)
    enum = solve(case, args.m)
    doc = {"command": "solve", "family": case.tag, "m": str(args.m)}
    warn = None
    if args.beta is not None:
        lo, hi = beta_range(case, args.m)
        if not lo <= args.beta <= hi:
            warn = (f"beta={args.beta} is outside the admissible "
                    f"interval [{lo}, {hi}]")
        enum = enum.substitute({BETA: args.beta})
        doc["beta"] = str(args.beta)
        doc["beta_in_range"] = warn is None
    doc.update(_enumerator_doc(enum))
    lines = _enumerator_text(enum)
    if warn:
        doc["warning"] = warn
        lines.append(f"warning: {warn}")
    _emit(doc, lines, args.format)
    return 0


def cmd_beta_range(args) -> int:
    case = family_case(args.family)
    lo, hi = beta_range(case, args.m)
    n = case.n(args.m)
    doc = {"command": "beta-range", "family": case.tag, "m": str(args.m),
           "n": str(n), "beta_min": str(lo), "beta_max": str(hi)}
    _emit(doc, [f"n={n}: beta ranges over [{lo}, {hi}]"], args.format)
    return 0


def cmd_tables(args) -> int:
    case = family_case(args.family)
    fam = case.params(args.m) if args.m >= case.min_m else FamilyParams(
        args.m, case.l, case.r)
    if fam.c_count > args.print_cap:
        raise ValueError(
            f"c_count {fam.c_count} exceeds the print cap {args.print_cap}; "
            "raise --print-cap to dump larger tables")
    tables = build_transform_tables(fam)
    k = fam.c_count

    col0_ok = all(code_inverse_col0(i, fam.n) == tables.code_inverse[i][0]
                  for i in range(1, k))
    shadow_ok = all(shadow_inverse_entry(i, j, fam) == tables.shadow_inverse[i][j]
                    for i in range(1, k) for j in range(k - i))

    def grid(mat):
        return [[_fmt(x) for x in row] for row in mat]

    doc = {
        "command": "tables", "family": case.tag, "m": str(args.m),
        "n": str(fam.n), "c_count": str(k),
        "code_basis": grid(tables.code_basis),
        "code_inverse": grid(tables.code_inverse),
        "shadow_basis": grid(tables.shadow_basis),
        "shadow_inverse": grid(tables.shadow_inverse),
        "closed_form_code_inverse_col0_ok": col0_ok,
        "closed_form_shadow_inverse_ok": shadow_ok,
    }
    lines = [f"n={fam.n}: {k}x{k} transform tables"]
    for name, mat in (("code_basis", tables.code_basis),
                      ("code_inverse", tables.code_inverse),
                      ("shadow_basis", tables.shadow_basis),
                      ("shadow_inverse", tables.shadow_inverse)):
        lines.append(f"{name}:")
        lines.extend("  [" + ", ".join(_fmt(x) for x in row) + "]" for row in mat)
    lines.append(f"closed-form checks: col0 {'OK' if col0_ok else 'MISMATCH'}, "
                 f"shadow {'OK' if shadow_ok else 'MISMATCH'}")
    if not (col0_ok and shadow_ok):
        _emit(doc, lines, args.format)
        raise VerificationFailure("closed forms disagree with matrix inverses")
    _emit(doc, lines, args.format)
    return 0


def cmd_bounds(args) -> int:
    n = args.n
    fam = FamilyParams.from_length(n)
    doc = {"command": "bounds", "n": str(n),
           "rains_bound": str(rains_bound(n)),
           "minimal_shadow_weight": str(minimal_shadow_r(n)),
           "family": {"m": str(fam.m), "l": str(fam.l), "r": str(fam.r)}}
    _emit(doc, [f"n={n}: d <= {rains_bound(n)}, minimal shadow weight "
                f"{minimal_shadow_r(n)} (m={fam.m}, l={fam.l}, r={fam.r})"],
          args.format)
    return 0


def _read_code(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_generator_file(fh.read())
    except OSError as exc:
        raise GeneratorFileError(f"cannot read {path}: {exc}") from exc


def _code_summary(code) -> dict:
    return {
        "n": str(code.n), "k": str(code.k), "d": str(min_weight(code)),
        "self_dual": is_self_dual(code),
        "parity_class": parity_class(code),
    }


def cmd_code(args) -> int:
    if args.subcommand == "table1":
        checks = verify_neighbor_table()
        doc = {
            "command": "code table1",
            "rows": [{
                "index": str(c.index),
                "support": [str(p) for p in c.support],
                "beta": str(c.beta),
                "self_dual": c.self_dual,
                "singly_even": c.singly_even,
                "min_weight": str(c.min_weight),
                "shadow_min_weight": str(c.shadow_min_weight),
                "minimal_shadow": c.minimal_shadow,
            } for c in checks],
            "verified": f"{sum(c.ok for c in checks)}/{len(checks)}",
        }
        lines = [f"N46,{c.index}: beta={c.beta} d={c.min_weight} "
                 f"d(S)={c.shadow_min_weight}" for c in checks]
        lines.append(f"{doc['verified']} verified")
        _emit(doc, lines, args.format)
        return 0

    if args.subcommand == "c46":
        code = reference_code_46()
        text = format_generator_file(code)
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        doc = {"command": "code c46", **_code_summary(code),
               "written_to": args.out}
        lines = [f"[{code.n}, {code.k}, {min_weight(code)}] "
                 f"{parity_class(code)} self-dual code"]
        if args.out:
            lines.append(f"generator matrix written to {args.out}")
        else:
            lines.append(text.rstrip("\n"))
        _emit(doc, lines, args.format)
        return 0

    code = _read_code(args.gen_file)

    if args.subcommand == "verify":
        doc = {"command": "code verify", "file": args.gen_file,
               **_code_summary(code)}
        lines = [f"[{code.n}, {code.k}, {min_weight(code)}], "
                 f"self-dual: {is_self_dual(code)}, {parity_class(code)}"]
        _emit(doc, lines, args.format)
        return 0

    if args.subcommand == "shadow":
        part = shadow(code)
        dist = [[str(w), str(c)] for w, c in enumerate(part.shadow_weights) if c]
        minimal = is_minimal_shadow(code)
        doc = {"command": "code shadow", "file": args.gen_file,
               "shadow_min_weight": str(part.min_weight),
               "minimal_shadow": minimal,
               "shadow_distribution": dist}
        lines = [f"d(S) = {part.min_weight}, minimal shadow: {minimal}",
                 "shadow weights: " + ", ".join(f"{w}:{c}" for w, c in dist)]
        _emit(doc, lines, args.format)
        return 0

    if args.subcommand == "neighbor":
        support = _parse_support(args.support)
        nb = neighbor(code, support)
        case, _ = beta_family_for_length(nb.n)
        beta = extract_beta(nb, case)
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(format_generator_file(nb))
        doc = {"command": "code neighbor", "file": args.gen_file,
               "support": [str(p) for p in support],
               "beta": str(beta), **_code_summary(nb),
               "minimal_shadow": is_minimal_shadow(nb),
               "written_to": args.out}
        lines = [f"neighbor: [{nb.n}, {nb.k}, {min_weight(nb)}] "
                 f"{parity_class(nb)}, beta = {beta}"]
        if args.out:
            lines.append(f"generator matrix written to {args.out}")
        _emit(doc, lines, args.format)
        return 0

    raise AssertionError(f"unhandled subcommand {args.subcommand}")


def _parse_support(text: str) -> tuple[int, ...]:
    try:
        parts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise GeneratorFileError(
            f"support must be comma-separated integers, got {text!r}") from None
    if not parts:
        raise GeneratorFileError("empty support set")
    return tuple(parts)


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minshadow",
        description="Exact weight-enumerator analysis of singly even "
                    "self-dual binary codes with minimal shadow.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default: json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", parents=[common],
                       help="admissibility scan over m for a unique-enumerator "
                            "family (parametrized families: use beta-range)")
    p.add_argument("--family", required=True, choices=UNIQUE_FAMILIES)
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("solve", parents=[common],
                       help="exact minimal-shadow enumerator for a family and m")
    p.add_argument("--family", required=True, choices=tuple(FAMILY_CASES))
    p.add_argument("--m", type=_nonnegative_int, required=True)
    p.add_argument("--beta", type=int, default=None,
                   help="substitute an integer value for the free parameter")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("beta-range", parents=[common],
                       help="admissible beta interval for a parametrized family")
    p.add_argument("--family", required=True, choices=("24m+6", "24m+22"))
    p.add_argument("--m", type=_nonnegative_int, required=True)
    p.set_defaults(func=cmd_beta_range)

    p = sub.add_parser("tables", parents=[common],
                       help="dump the four transform tables and check the "
                            "closed forms against them")
    p.add_argument("--family", required=True, choices=tuple(FAMILY_CASES))
    p.add_argument("--m", type=_nonnegative_int, required=True)
    p.add_argument("--print-cap", type=int, default=64)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("bounds", parents=[common],
                       help="minimum-weight bound and required shadow weight")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("code", parents=[common],
                       help="GF(2) code operations on generator matrix files")
    p.add_argument("subcommand",
                   choices=("verify", "shadow", "neighbor", "table1", "c46"))
    p.add_argument("--gen-file", help="generator matrix file")
    p.add_argument("--support",
                   help="comma-separated 1-based coordinates of the neighbor vector")
    p.add_argument("--out", help="write a generator matrix to this file")
    p.set_defaults(func=cmd_code)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "code":
        if args.subcommand in ("verify", "shadow", "neighbor") and not args.gen_file:
            parser.error(f"code {args.subcommand} requires --gen-file")
        if args.subcommand == "neighbor" and not args.support:
            parser.error("code neighbor requires --support")
    if getattr(args, "command", None) == "solve" and args.beta is not None \
            and not family_case(args.family).parametrized:
        parser.error(f"family {args.family} has a unique enumerator; "
                     "--beta does not apply")
    try:
        return args.func(args)
    except (BetaMismatchError, VerificationFailure) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
