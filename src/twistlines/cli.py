"""Command-line front end: check, sweep, ses, orbit.

Exit codes: 0 = verified (or an expected refusal), 1 = a verification
failed, 2 = usage error.  JSON reports follow a fixed schema per case:
{case, n, k, flavor, flag_quotients, tev_pieces, psi_degree, verdict,
notes}.
"""

import argparse
import sys
from collections import Counter
from math import comb

from .families import (
    ExceptionalCaseError,
    HypothesisError,
    build_classical,
    build_classical_orbit,
    build_family,
)
from .fields import QQ, PrimeField
from .sheaves import same_subsheaf
from .verify import Certificate, certify, run_sweep, sweep_consistent, verify_claim_ses

__all__ = ["main"]

USAGE_EXIT = 2
FAIL_EXIT = 1


class _UsageError(Exception):
    pass


def _parse_field(spec: str, binom_bound: int):
    if spec == "rational":
        return QQ
    if spec.startswith("prime:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"cannot parse prime in --field {spec!r}")
        try:
            field = PrimeField(p)
        except ValueError as e:
            raise _UsageError(f"--field prime:{p}: {e}")
        if p <= 2 * binom_bound:
            raise _UsageError(
                f"--field prime:{p}: p must exceed twice the largest binomial "
                f"coefficient in play ({binom_bound})"
            )
        return field
    raise _UsageError(f"unknown field {spec!r} (use rational or prime:P)")


def _binom_bound_for_dim(n: int) -> int:
    # n < 0 is left for the builder to refuse as a usage error
    b = max(n, 0) // 2
    return comb(b, b // 2) if b else 1


def _emit(args, payload_json: dict, payload_text: str) -> None:
    import json  # here, so that a text report does not load it

    out = json.dumps(payload_json, indent=2) if args.format == "json" else payload_text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write --out {args.out!r}: {exc.strerror or exc}")
    else:
        print(out)


def _cert_text(cert) -> str:
    c = cert.to_json_dict()
    lines = [
        f"case {c['case']}: n={c['n']} k={c['k']} flavor={c['flavor']}",
        f"  flag quotient types: {c['flag_quotients']}",
        f"  tangent piece types: {c['tev_pieces']}",
        f"  psi degree: {c['psi_degree']}",
        f"  verdict: {'very twisting' if c['verdict'] else 'NOT very twisting'}",
    ]
    lines.extend(f"  note: {note}" for note in c["notes"])
    if cert.first_violation is not None:
        lines.append(f"  first violated predicate: {cert.first_violation}")
    return "\n".join(lines)


_FLAVOR_FLAGS = (("classical", None), ("symmetric", "symmetric"), ("skew", "skew"))


def _flavors(args) -> list:
    """The flavors whose flags are set, in flag order."""
    return [flavor for flag, flavor in _FLAVOR_FLAGS if getattr(args, flag)]


def cmd_check(args) -> int:
    field = _parse_field(args.field, _binom_bound_for_dim(args.n))
    flavors = _flavors(args)
    if len(flavors) != 1:
        raise _UsageError("choose one of --classical / --symmetric / --skew")
    flavor = flavors[0]
    try:
        fam = build_family(field, args.n, args.k, flavor)
    except ExceptionalCaseError as exc:
        refusal = Certificate.refusal("exceptional", args.n, args.k, flavor, [str(exc)])
        _emit(args, refusal.to_json_dict(), f"{exc}")
        if args.expect_exceptional:
            return 0
        print("exceptional case (pass --expect-exceptional to accept)", file=sys.stderr)
        return FAIL_EXIT
    except HypothesisError as exc:
        raise _UsageError(str(exc))
    cert = certify(fam)
    _emit(args, cert.to_json_dict(), _cert_text(cert))
    if args.expect_exceptional:
        print("expected an exceptional case but a family was built", file=sys.stderr)
        return FAIL_EXIT
    if cert.very_twisting:
        return 0
    print(f"verification failed: {cert.first_violation}", file=sys.stderr)
    return FAIL_EXIT


def cmd_sweep(args) -> int:
    if not (2 <= args.n_min <= args.n_max <= 24):
        raise _UsageError("sweep range must satisfy 2 <= n-min <= n-max <= 24")
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    field = _parse_field(args.field, _binom_bound_for_dim(args.n_max))
    flavors = _flavors(args) or [flavor for _, flavor in _FLAVOR_FLAGS]
    rows = run_sweep(field, args.n_min, args.n_max, flavors)
    count = Counter(r.status for r in rows)
    ok = sweep_consistent(rows)
    summary = (
        f"verified={count['very-twisting']} exceptional={count['exceptional']} "
        f"failed={count['failed']} consistent={'yes' if ok else 'NO'}"
    )
    _emit(
        args,
        {"rows": [r.to_json_dict() for r in rows], "summary": summary, "consistent": ok},
        "\n".join([*(r.text_line() for r in rows), summary]),
    )
    return 0 if ok else FAIL_EXIT


def cmd_ses(args) -> int:
    given = (args.a is not None) + (args.b is not None)
    if given == 2 and args.max is None:
        pairs = [(args.a, args.b)]
        bmax = args.b
    elif given == 0 and args.max is not None:
        if args.max < 1:
            raise _UsageError(f"--max must be at least 1, got {args.max}")
        pairs = [(a, b) for b in range(1, args.max + 1) for a in range(1, b + 1)]
        bmax = args.max
    else:
        raise _UsageError("ses needs either --a and --b, or --max B, and not both")
    if any(a < 1 or a > b for a, b in pairs):
        raise _UsageError("ses needs 1 <= a <= b")
    field = _parse_field(args.field, comb(bmax, bmax // 2))
    reports = [verify_claim_ses(field, a, b) for a, b in pairs]
    all_ok = all(r.exact for r in reports)
    json_payload = {
        "pairs": [{**r._asdict(), "exact": r.exact} for r in reports],
        "all_exact": all_ok,
    }
    text = "\n".join(
        f"(a={r.a}, b={r.b}) exact={r.exact}" for r in reports
    ) + f"\nall exact: {all_ok}"
    _emit(args, json_payload, text)
    return 0 if all_ok else FAIL_EXIT


def cmd_orbit(args) -> int:
    field = _parse_field(args.field, _binom_bound_for_dim(args.n))
    try:
        datum, orbit_fam = build_classical_orbit(field, args.n, args.k)
        direct_fam = build_classical(field, args.n, args.k)
    except (ExceptionalCaseError, HypothesisError) as exc:
        raise _UsageError(str(exc))
    cert = certify(orbit_fam)
    weight_sum = datum.weight_sum()
    agree = all(
        same_subsheaf(a, b) for a, b in zip(orbit_fam.members, direct_fam.members)
    )
    payload = cert.to_json_dict()
    payload["weights"] = list(datum.weights)
    payload["weight_sum"] = weight_sum
    payload["matches_direct_construction"] = agree
    text = "\n".join(
        [
            _cert_text(cert),
            f"  one-parameter weights: {list(datum.weights)} (sum {weight_sum})",
            f"  matches direct construction: {agree}",
        ]
    )
    _emit(args, payload, text)
    ok = cert.very_twisting and agree and weight_sum == 0
    return 0 if ok else FAIL_EXIT


def _add_common(p):
    p.add_argument("--field", default="rational", help="rational | prime:P (odd prime)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlines",
        description="Construct and certify twisting families of pointed lines "
        "on classical and isotropic Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify one (n, k, flavor) case")
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--k", type=int, required=True)
    flavor = p_check.add_mutually_exclusive_group()
    flavor.add_argument("--classical", action="store_true")
    flavor.add_argument("--symmetric", action="store_true")
    flavor.add_argument("--skew", action="store_true")
    p_check.add_argument("--expect-exceptional", action="store_true")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="certify every case in a range")
    p_sweep.add_argument("--n-min", type=int, default=2)
    p_sweep.add_argument("--n-max", type=int, default=8)
    p_sweep.add_argument("--classical", action="store_true")
    p_sweep.add_argument("--symmetric", action="store_true")
    p_sweep.add_argument("--skew", action="store_true")
    jobs_help = "ignored, but at least 1: the sweep runs in one process (kept for old scripts)"
    p_sweep.add_argument("--jobs", type=int, default=1, help=jobs_help)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ses = sub.add_parser("ses", help="exactness report for the binomial pair")
    p_ses.add_argument("--a", type=int, default=None)
    p_ses.add_argument("--b", type=int, default=None)
    p_ses.add_argument("--max", type=int, default=None, help="all pairs with b <= MAX")
    _add_common(p_ses)
    p_ses.set_defaults(func=cmd_ses)

    p_orbit = sub.add_parser("orbit", help="orbit-curve construction and comparison")
    p_orbit.add_argument("--n", type=int, required=True)
    p_orbit.add_argument("--k", type=int, required=True)
    _add_common(p_orbit)
    p_orbit.set_defaults(func=cmd_orbit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
