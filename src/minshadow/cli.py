"""Command-line front end, a thin layer over the library.

Each command is a function from the parsed arguments to a pair (doc,
lines): a JSON document (sorted keys, all numbers serialized as decimal
or "p/q" strings so nothing is ever truncated) and the text lines that
--format text prints instead, whose enumerator lines show the first few
nonzero terms.  `main` alone prints the chosen one and maps exceptions
to exit codes: 0 success, 1 a verification failed to reproduce, 2
usage, parse or input-domain errors, including an input above one of
the caps M_CAP and PRINT_CAP here or the GF(2) enumeration caps that
`gf2.parse_generator_file`, `gf2.weight_distribution` and
`gf2.low_weight_distribution` check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .exact import VerificationFailure
from .gf2 import (BetaMismatchError, GeneratorFileError, extract_beta,
                  format_generator_file, is_minimal_shadow, is_self_dual,
                  min_weight, neighbor, parity_class, parse_generator_file,
                  reference_code_46, shadow, verify_neighbor_table)
from .gleason import FamilyParams, ParametricEnumerator, build_transform_tables
from .solver import (BETA_FAMILIES, FAMILY_CASES, UNIQUE_FAMILIES,
                     beta_range, family_case, max_admissible, minimal_shadow_r,
                     nonexistence_scan, rains_bound, solve)

M_CAP = 400      # solve and beta-range --m, scan --m-max; the paper needs m <= 240
PRINT_CAP = 64   # tables grid side K + 1; bounds the output, 4 (K+1)^2 entries

Output = tuple[dict, list[str]]   # a command's JSON document and text lines


def affine_text(pair) -> str:
    """The value p + q beta of a pair (p, q) as text: str(p) when q = 0,
    else as in "35 - 8*beta", "2*beta" and "-10 + beta"."""
    p, q = pair
    if not q:
        return str(p)
    body = "beta" if abs(q) == 1 else f"{abs(q)}*beta"
    if not p:
        return body if q > 0 else f"-{body}"
    return f"{p} {'+' if q > 0 else '-'} {body}"


def _enumerator_doc(enum: ParametricEnumerator) -> dict:
    fam = enum.fam
    return {
        "n": str(fam.n),
        "family": {"m": str(fam.m), "l": str(fam.l), "r": str(fam.r)},
        "free_parameters": ["beta"] if any(q for _, q in enum.a + enum.b) else [],
        "code_coefficients": [[str(2 * i), affine_text(v)]
                              for i, v in enumerate(enum.a)],
        "shadow_coefficients": [[str(fam.shadow_exponent(i)), affine_text(v)]
                                for i, v in enumerate(enum.b)],
    }


def _enumerator_text(enum: ParametricEnumerator) -> list[str]:
    def series(pairs):
        shown = []
        for exp, v in pairs:
            if not any(v):
                continue
            body = affine_text(v)
            if " " in body or "/" in body:
                body = f"({body})"
            shown.append("1" if (body == "1" and exp == 0)
                         else (body if exp == 0 else
                               (f"y^{exp}" if body == "1" else f"{body} y^{exp}")))
            if len(shown) == 5:
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
            "value": str(cert.value),
            "reason": "negative" if cert.value < 0 else "non-integer"}


def cmd_scan(args) -> Output:
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
    return doc, lines


def cmd_solve(args) -> Output:
    case = family_case(args.family)
    enum = solve(case, args.m)
    doc = {"command": "solve", "family": case.tag, "m": str(args.m)}
    warn = None
    if args.beta is not None:
        lo, hi = beta_range(case, args.m)
        if not lo <= args.beta <= hi:
            warn = (f"beta={args.beta} is outside the admissible "
                    f"interval [{lo}, {hi}]")
        enum = enum.substitute(args.beta)
        doc["beta"] = str(args.beta)
        doc["beta_in_range"] = warn is None
    doc.update(_enumerator_doc(enum))
    lines = _enumerator_text(enum)
    if warn:
        doc["warning"] = warn
        lines.append(f"warning: {warn}")
    return doc, lines


def cmd_beta_range(args) -> Output:
    case = family_case(args.family)
    lo, hi = beta_range(case, args.m)
    n = case.n(args.m)
    doc = {"command": "beta-range", "family": case.tag, "m": str(args.m),
           "n": str(n), "beta_min": str(lo), "beta_max": str(hi)}
    return doc, [f"n={n}: beta ranges over [{lo}, {hi}]"]


def cmd_tables(args) -> Output:
    case = family_case(args.family)
    fam = FamilyParams(args.m, case.l, case.r)
    if fam.c_count > PRINT_CAP:
        raise ValueError(f"c_count {fam.c_count} exceeds the print cap {PRINT_CAP}")
    tables = build_transform_tables(fam)    # raises unless basis x inverse = I
    k = fam.c_count
    doc = {"command": "tables", "family": case.tag, "m": str(args.m),
           "n": str(fam.n), "c_count": str(k),
           "closed_form_code_inverse_col0_ok": True,
           "closed_form_shadow_inverse_ok": True}
    lines = [f"n={fam.n}: {k}x{k} transform tables"]
    for name in ("code_basis", "code_inverse", "shadow_basis", "shadow_inverse"):
        doc[name] = [[str(x) for x in row] for row in getattr(tables, name)]
        lines.append(f"{name}:")
        lines.extend("  [" + ", ".join(row) + "]" for row in doc[name])
    lines.append("closed-form checks: col0 OK, shadow OK")
    return doc, lines


def cmd_bounds(args) -> Output:
    n = args.n
    fam = FamilyParams.from_length(n)
    doc = {"command": "bounds", "n": str(n),
           "rains_bound": str(rains_bound(n)),
           "minimal_shadow_weight": str(minimal_shadow_r(n)),
           "family": {"m": str(fam.m), "l": str(fam.l), "r": str(fam.r)}}
    return doc, [f"n={n}: d <= {rains_bound(n)}, minimal shadow weight "
                 f"{minimal_shadow_r(n)} (m={fam.m}, l={fam.l}, r={fam.r})"]


def _read_code(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_generator_file(fh.read())
    except OSError as exc:
        raise GeneratorFileError(f"cannot read {path}: {exc}") from exc


def _write_code(path: str, code) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_generator_file(code))
    except OSError as exc:
        raise GeneratorFileError(f"cannot write {path}: {exc}") from exc


def _code_summary(code) -> dict:
    return {
        "n": str(code.n), "k": str(code.k), "d": str(min_weight(code)),
        "self_dual": is_self_dual(code),
        "parity_class": parity_class(code),
    }


def code_table1(args) -> Output:
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
    return doc, lines


def code_c46(args) -> Output:
    code = reference_code_46()
    if args.out:
        _write_code(args.out, code)
    doc = {"command": "code c46", **_code_summary(code), "written_to": args.out}
    lines = [f"[{code.n}, {code.k}, {min_weight(code)}] "
             f"{parity_class(code)} self-dual code"]
    if args.out:
        lines.append(f"generator matrix written to {args.out}")
    else:
        lines.append(format_generator_file(code).rstrip("\n"))
    return doc, lines


def code_verify(args) -> Output:
    code = _read_code(args.gen_file)
    doc = {"command": "code verify", "file": args.gen_file,
           **_code_summary(code)}
    return doc, [f"[{code.n}, {code.k}, {min_weight(code)}], "
                 f"self-dual: {is_self_dual(code)}, {parity_class(code)}"]


def code_shadow(args) -> Output:
    code = _read_code(args.gen_file)
    part = shadow(code)
    dist = [[str(w), str(c)] for w, c in enumerate(part.shadow_weights) if c]
    minimal = is_minimal_shadow(code)
    doc = {"command": "code shadow", "file": args.gen_file,
           "shadow_min_weight": str(part.min_weight),
           "minimal_shadow": minimal,
           "shadow_distribution": dist}
    return doc, [f"d(S) = {part.min_weight}, minimal shadow: {minimal}",
                 "shadow weights: " + ", ".join(f"{w}:{c}" for w, c in dist)]


def code_neighbor(args) -> Output:
    code = _read_code(args.gen_file)
    support = _parse_support(args.support)
    nb = neighbor(code, support)
    beta = extract_beta(nb)
    if args.out:
        _write_code(args.out, nb)
    doc = {"command": "code neighbor", "file": args.gen_file,
           "support": [str(p) for p in support],
           "beta": str(beta), **_code_summary(nb),
           "minimal_shadow": is_minimal_shadow(nb),
           "written_to": args.out}
    lines = [f"neighbor: [{nb.n}, {nb.k}, {min_weight(nb)}] "
             f"{parity_class(nb)}, beta = {beta}"]
    if args.out:
        lines.append(f"generator matrix written to {args.out}")
    return doc, lines


CODE_COMMANDS = {"verify": code_verify, "shadow": code_shadow,
                 "neighbor": code_neighbor, "table1": code_table1,
                 "c46": code_c46}


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


def _int_at_least(low: int):
    """An argparse type: an integer >= low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared:
    parsing keeps no state between calls."""
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
    p.add_argument("--m-max", type=_int_at_least(1), required=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("solve", parents=[common],
                       help="exact minimal-shadow enumerator for a family and m")
    p.add_argument("--family", required=True, choices=tuple(FAMILY_CASES))
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p.add_argument("--beta", type=int, default=None,
                   help="substitute an integer value for the free parameter")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("beta-range", parents=[common],
                       help="admissible beta interval for a parametrized family")
    p.add_argument("--family", required=True, choices=BETA_FAMILIES)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_beta_range)

    p = sub.add_parser("tables", parents=[common],
                       help="dump the four transform tables and check the "
                            "closed forms against them")
    p.add_argument("--family", required=True, choices=tuple(FAMILY_CASES))
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("bounds", parents=[common],
                       help="minimum-weight bound and required shadow weight")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("code", parents=[common],
                       help="GF(2) code operations on generator matrix files")
    p.add_argument("subcommand", choices=tuple(CODE_COMMANDS))
    p.add_argument("--gen-file", help="generator matrix file")
    p.add_argument("--support",
                   help="comma-separated 1-based coordinates of the neighbor vector")
    p.add_argument("--out", help="write a generator matrix to this file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "code":
        if args.subcommand in ("verify", "shadow", "neighbor") and not args.gen_file:
            parser.error(f"code {args.subcommand} requires --gen-file")
        if args.subcommand == "neighbor" and not args.support:
            parser.error("code neighbor requires --support")
        args.func = CODE_COMMANDS[args.subcommand]
    if args.command in ("solve", "beta-range", "scan") and \
            max(getattr(args, "m", 0), getattr(args, "m_max", 0)) > M_CAP:
        parser.error(f"--m and --m-max must be <= {M_CAP}")
    if args.command == "solve" and args.beta is not None \
            and not family_case(args.family).parametrized:
        parser.error(f"family {args.family} has a unique enumerator; "
                     "--beta does not apply")
    try:
        doc, lines = args.func(args)
    except (BetaMismatchError, VerificationFailure) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, lines, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
