"""Command-line front end.

Results go to standard output, diagnostics to standard error. Exit codes:
0 success, 2 load/validation error, 3 mathematical refusal (non-integral
quantities, inadmissible degrees, congruences beyond a truncation cap),
4 inconsistency findings, 1 selftest failure or internal error.

Vectors on the command line are comma-separated integers; the single token
`0` abbreviates the zero vector of the right rank.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import (DimensionMismatch, InadmissibleDeltaError, LevelError,
                     LoadError, NonCharacteristicError, NonIntegralError,
                     TruncationError, UnimodularityError)
from .invariants import (check_theorem_hypotheses, expected_sw_dimension,
                         km_series, sw_dimension_warnings, witten_rhs)
from .manifold_io import load_fit_problem, load_km, load_manifold
from .monopole_levels import (check_delta_window, delta_admissible,
                              enumerate_contributions, i_lambda)
from .series import first_difference, monomial_label
from .universal_fit import solve_coefficients, validate_solution


def parse_cli_vector(text: str, rank: int) -> tuple[int, ...]:
    text = text.strip()
    if text == "0":
        return (0,) * rank
    try:
        coords = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise LoadError(f"bad vector {text!r}: expected comma-separated integers")
    if len(coords) != rank:
        raise DimensionMismatch(
            f"vector {text!r} has {len(coords)} entries, expected {rank}")
    return coords


def _fmt_vec(v) -> str:
    return ",".join(str(x) for x in v)


def cmd_info(args) -> int:
    m = load_manifold(args.file)
    _, _, b_minus = m.form.signature_decomposition()
    print(f"name={m.name}")
    print(f"chi={m.chi}")
    print(f"sigma={m.sigma}")
    print(f"b_plus={m.b_plus}")
    print(f"b_minus={b_minus}")
    print(f"rank={m.rank}")
    print(f"c={m.characteristic_number()}")
    print(f"w2={_fmt_vec(m.w2)}")
    w2_ok = m.form.is_characteristic(m.w2)
    print(f"w2_matches_characteristic_class={'true' if w2_ok else 'false'}")
    print(f"sw_simple_type={'true' if m.sw_simple_type else 'false'} (asserted)")
    print(f"spinc_count={len(m.spinc)}")
    for entry in m.spinc:
        dim = expected_sw_dimension(m.form, entry.c1, m.chi, m.sigma)
        print(f"spinc c1={_fmt_vec(entry.c1)} sw={entry.sw} "
              f"characteristic=true expected_dim={dim}")
    for note in sw_dimension_warnings(m):
        print(f"warning {note}", file=sys.stderr)
    return 0


def cmd_witten(args) -> int:
    if args.compare is None:
        # both flags only shape the comparison; without one they would be
        # dropped and the whole series printed
        for flag, given in (("--mod-degree", args.mod_degree is not None),
                            ("--inclusive", args.inclusive)):
            if given:
                raise ValueError(f"{flag} needs --compare")
    if args.mod_degree is not None and args.mod_degree < 0:
        raise ValueError(f"--mod-degree {args.mod_degree} is negative")
    m = load_manifold(args.file)
    w = parse_cli_vector(args.w, m.rank)
    n = args.degree
    if args.compare is None:
        rhs = witten_rhs(m, w, n)
        # streamed in chunks: the whole text is never held at once
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    rhs.write_text(fh)
            except OSError as exc:
                raise LoadError(str(exc), path=args.output) from None
        else:
            rhs.write_text(sys.stdout)
        return 0
    # the km file and the comparison degree are checked before any series
    # is computed
    km = load_km(args.compare)
    if len(km.w) != m.rank:
        raise LoadError(f"{args.compare}: w has wrong rank")
    for _, k in km.terms:
        if not m.form.is_characteristic(k):
            raise LoadError(f"{args.compare}: class {_fmt_vec(k)} is not "
                            "characteristic for this form")
    mod = args.mod_degree if args.mod_degree is not None else n
    if args.inclusive:
        mod += 1  # inclusive reading: compare all degrees <= the stated one
    if mod > n:
        raise TruncationError(
            f"cannot certify congruence mod degree {mod} at cap {n}; "
            "raise --degree")
    rhs = witten_rhs(m, w, n)
    lhs = km_series(km, m.form, n)
    diff = first_difference(lhs, rhs, mod)
    if diff is None:
        print(f"congruent mod {mod}")
        return 0
    exps, ca, cb = diff
    label = monomial_label(exps) or "1"
    print(f"first differing monomial: {label} (km={ca}, witten={cb})")
    return 4


def cmd_hypotheses(args) -> int:
    m = load_manifold(args.file)
    lam = None
    if args.lambda_ is not None:
        lam = parse_cli_vector(args.lambda_, m.rank)
    w = parse_cli_vector(args.w, m.rank) if args.w is not None else None
    report = check_theorem_hypotheses(
        m, w, lam, args.variant, search_bound=args.bound, budget=args.budget)
    print(report.to_text())
    return 0


def cmd_levels(args) -> int:
    m = load_manifold(args.file)
    w = parse_cli_vector(args.w, m.rank)
    lam = parse_cli_vector(args.lambda_, m.rank)
    table = enumerate_contributions(m, w, lam, args.delta, args.m, args.ell_max)
    admissible = delta_admissible(args.delta, m.form.square(w), m.chi, m.sigma)
    bound = i_lambda(m.form.square(lam), m.chi, m.sigma)
    window = check_delta_window(args.delta, bound)
    print(f"delta={args.delta} m={args.m} ell_max={args.ell_max} "
          f"w={_fmt_vec(w)} lambda={_fmt_vec(lam)}")
    print(f"delta_admissible={'true' if admissible else 'false'}")
    print(f"i_lambda={bound}")
    print(f"delta_window={'true' if window else 'false'}")
    if bound <= 0:
        print("caveat i(lambda) <= 0: no non-negative delta fits the window")
    for row in table.rows:
        print(f"contribution c1={_fmt_vec(row.entry.c1)} sw={row.entry.sw} "
              f"ell={row.ell} sign={row.sign} i_range_max={row.i_range_max}")
    for note in table.notes:
        print(f"note {note}")
    return 0


def cmd_fit(args) -> int:
    problem = load_fit_problem(args.file)
    report = solve_coefficients(problem)
    print(f"delta={problem.delta} m={problem.m} "
          f"observations={len(problem.observations)}")
    for idx, obs in enumerate(problem.observations):
        print(f"observation {idx}: manifold={obs.manifold.name} "
              f"provenance={obs.provenance}")
    print(report.to_text())
    validation = validate_solution(problem, report)
    if report.consistent:
        for idx, zero in enumerate(validation.residual_zero):
            print(f"residual observation={idx} "
                  f"exact_zero={'true' if zero else 'false'}")
    for finding in validation.findings:
        print(f"finding {finding}")
    return 0 if report.consistent else 4


def cmd_selftest(args) -> int:
    from .selftest import run_all
    results = run_all(seed=args.seed)
    ok = True
    for res in results:
        status = "ok" if res.ok else "FAIL"
        print(f"selftest {res.name}: {status} ({res.detail})")
        ok = ok and res.ok
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args fills a new
    namespace on every call, so no state carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="wittenform",
        description="Exact arithmetic for Donaldson / Seiberg-Witten "
                    "series identities")
    parser.add_argument("--degree", type=int, default=12,
                        help="series degree cap (default 12)")
    parser.add_argument("--inclusive", action="store_true",
                        help="read 'mod degree N' inclusively (<= N instead of < N)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print invariants of a manifold file")
    p.set_defaults(func=cmd_info)
    p.add_argument("file")

    p = sub.add_parser("witten", help="canonical text of 2^(2-c) e^(Q/2) SW(h)")
    p.set_defaults(func=cmd_witten)
    p.add_argument("file")
    p.add_argument("--w", default="0", help="comma-separated class (default 0)")
    p.add_argument("--compare", metavar="KMFILE", default=None,
                   help="compare against a basic-class data file")
    p.add_argument("--mod-degree", type=int, default=None,
                   help="comparison degree for --compare (default: the cap)")
    p.add_argument("--output", default=None, help="write the series text here")

    p = sub.add_parser("hypotheses",
                       help="check the level-0/level-1 theorem hypotheses")
    p.set_defaults(func=cmd_hypotheses)
    p.add_argument("file")
    p.add_argument("--variant", choices=("level0", "level1"), required=True)
    p.add_argument("--lambda", dest="lambda_", default=None,
                   help="candidate class; omit to search")
    p.add_argument("--w", default=None,
                   help="class w; default lambda + w2, which satisfies the congruence")
    p.add_argument("--bound", type=int, default=20,
                   help="search the complement's coordinates in "
                        "[-bound, bound] (default 20)")
    p.add_argument("--budget", type=int, default=2_000_000,
                   help="candidates each search may draw before it reports "
                        "unknown-bounded (default 2000000)")

    p = sub.add_parser("levels", help="enumerate contributing spin-c strata")
    p.set_defaults(func=cmd_levels)
    p.add_argument("file")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--ell-max", type=int, default=4)
    p.add_argument("--lambda", dest="lambda_", default="0")
    p.add_argument("--w", default="0")

    p = sub.add_parser("fit", help="solve for universal coefficients")
    p.set_defaults(func=cmd_fit)
    p.add_argument("file")

    p = sub.add_parser("selftest", help="run the bundled invariant suites")
    p.set_defaults(func=cmd_selftest)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadError, DimensionMismatch, UnimodularityError,
            NonCharacteristicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonIntegralError, InadmissibleDeltaError, TruncationError,
            LevelError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except BrokenPipeError:
        # downstream closed the pipe (wittenform ... | head); not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
