"""Batch command-line front end; one subcommand per library operation.

JSON on stdout is the stable contract; ``--format pretty`` is for humans
and deliberately unstable.  Exit codes: 0 ok, 1 negative mathematical
verdict under ``--check``, 2 usage or input errors.

``main(argv)`` may be called repeatedly in one process.  The argument parser
is built on the first call and reused by every later one; parsing keeps no
state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional

from . import certlab, momlab, opimage, radlab, ufdlab
from .corealg import (
    QQ, QQ_POLY, format_poly, format_rational, parse_exponent, parse_poly, parse_rational,
    parse_ring_element,
)
from .errors import AlgebraError, BadInput
from .opimage import parse_operator
from .momlab import parse_weight
from .ufdlab import parse_ufd_context, parse_trunc_context


def _poly_str(p) -> Optional[str]:
    return None if p is None else format_poly(p)


def _ascii_int(text: str) -> int:
    """An integer option as int reads it, from ASCII digits only (no '_' and
    no other script's digits); argparse's own message when it is not one."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_window(text: str) -> range:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise BadInput(f"window must look like lo:hi, got {text!r}")
    message = f"window bounds must be non-negative integers, got {text!r}"
    return range(parse_exponent(lo, message), parse_exponent(hi, message) + 1)


def _cmd_reduce(args):
    rr = opimage.reduce(parse_operator(args.op), parse_poly(args.poly, QQ))
    return {
        "normal_form": format_poly(rr.normal_form),
        "witness": format_poly(rr.witness),
        "admissible": rr.admissible,
    }, False


def _cmd_member(args):
    ok, witness = opimage.member(parse_operator(args.op), parse_poly(args.poly, QQ))
    return {"member": ok, "witness": _poly_str(witness)}, not ok


def _cmd_lzero(args):
    value = opimage.lzero(parse_operator(args.op), parse_poly(args.poly, QQ))
    return {"value": format_rational(value)}, False


def _cmd_escape(args):
    m = radlab.escape_exponent(parse_operator(args.op), parse_poly(args.poly, QQ), args.budget)
    return {"escape_exponent": m}, m is None


def _cmd_certify(args):
    cert = certlab.certificate_nonmembership(
        parse_poly(args.poly, QQ), args.d, parse_rational(args.alpha), args.budget
    )
    return certlab.certificate_to_dict(cert), False


def _cmd_verify_cert(args):
    if args.cert_file:
        with open(args.cert_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif args.cert:
        data = json.loads(args.cert)
    else:
        raise BadInput("give --cert or --cert-file")
    valid = certlab.verify_certificate(certlab.certificate_from_dict(data))
    return {"valid": valid}, not valid


def _cmd_moments(args):
    if args.upto < 0:
        raise BadInput("--upto must be non-negative")
    mf = momlab.MomentFunctional(parse_weight(args.weight))
    mf.moment(args.upto)  # the top index first: one above the limit is refused before any work
    return {"moments": [format_rational(mf.moment(n)) for n in range(args.upto + 1)]}, False


def _cmd_vb_member(args):
    ok = momlab.vb_member(parse_weight(args.weight), parse_poly(args.poly, QQ))
    return {"member": ok}, not ok


def _cmd_orthopoly(args):
    p = momlab.orthopoly(parse_weight(args.weight), args.n)
    return {"degree": args.n, "poly": format_poly(p)}, False


def _cmd_equiv(args):
    report = momlab.equivalence_check(
        parse_weight(args.weight), parse_operator(args.op), args.deg_bound
    )
    return {
        "one_in_image": report.one_in_image,
        "degrees_checked": report.degrees_checked,
        "violations": list(report.violations),
        "equivalent": report.equivalent,
    }, report.equivalent is False


def _space_from_arg(text: str) -> radlab.CofiniteSubspace:
    return radlab.CofiniteSubspace.from_dict(json.loads(text))


def _space_diagnostics(space: radlab.CofiniteSubspace) -> list[str]:
    return [f"factor {format_poly(p)} exceeds degree 3; irreducibility trusted, not verified"
            for p in space.unverified_factors]


def _cmd_mathieu(args):
    space = _space_from_arg(args.space)
    verdict = radlab.mathieu_check(space)
    payload = {"status": verdict.status}
    if verdict.witness is not None:
        payload["witness_a"] = format_poly(verdict.witness[0])
        payload["witness_b"] = format_poly(verdict.witness[1])
    if args.full:
        payload["i_v_generator"] = format_poly(verdict.i_v_generator)
        payload["radical_iv_generator"] = format_poly(verdict.radical_iv_generator)
        payload["budget_used"] = verdict.budget_used
    diagnostics = _space_diagnostics(space)
    if diagnostics:
        payload["diagnostics"] = diagnostics
    return payload, verdict.status == radlab.NOT_MATHIEU


def _cmd_largest_ideal(args):
    space = _space_from_arg(args.space)
    payload = {"generator": format_poly(radlab.largest_ideal(space))}
    diagnostics = _space_diagnostics(space)
    if diagnostics:
        payload["diagnostics"] = diagnostics
    return payload, False


def _cmd_radical_probe(args):
    f = parse_poly(args.poly, QQ)
    sources = [s for s in (args.space, args.op, args.weight) if s]
    if len(sources) != 1:
        raise BadInput("give exactly one of --space, --op, --weight")
    # the space, operator or weight is parsed before the window, so its error wins
    if args.space:
        probe = functools.partial(radlab.radical_probe_space, _space_from_arg(args.space))
    elif args.op:
        op = parse_operator(args.op)
        probe = functools.partial(radlab.radical_probe, lambda p: opimage.member(op, p)[0])
    else:
        w = parse_weight(args.weight)
        probe = functools.partial(radlab.radical_probe, lambda p: momlab.vb_member(w, p))
    window = _parse_window(args.window)
    holds = probe(f, window)
    return {"holds": holds, "window": [window.start, window.stop - 1]}, not holds


def _cmd_ufd_member(args):
    ctx = parse_ufd_context(args.ctx)
    ok, witness = ufdlab.member_ufd(ctx, parse_poly(args.poly, ctx.ring))
    return {"member": ok, "witness": _poly_str(witness)}, not ok


def _cmd_ufd_radical(args):
    ctx = parse_ufd_context(args.ctx)
    ok = ufdlab.radical_via_coefficients(ctx, parse_poly(args.p, ctx.ring))
    return {"in_radical": ok}, not ok


def _cmd_absorb_bound(args):
    ctx = parse_ufd_context(args.ctx)
    bound = ufdlab.absorption_bound(
        ctx, parse_poly(args.p, ctx.ring), parse_poly(args.g, ctx.ring)
    )
    return {"bound": bound}, False


def _cmd_gcd_lift(args):
    a = parse_ring_element(args.a, QQ_POLY)
    elements = [parse_ring_element(p, QQ_POLY) for p in args.elements.split(",") if p.strip()]
    u, lifted = ufdlab.gcd_lift(a, elements)
    return {"u": str(u), "d_tilde": [str(d) for d in lifted]}, False


def _cmd_surjective(args):
    ring, c, a = parse_trunc_context(args.ctx)
    report = ufdlab.surjectivity_check(ring, c, a, args.deg_bound)
    return {
        "status": report.status,
        "one_witness": _poly_str(report.one_witness),
        "monomials_checked": len(report.monomials),
        "unresolved": list(report.unresolved),
        "note": report.note,
    }, report.status != "ONE_IN_IMAGE"


def _pretty(payload: dict) -> str:
    lines = []
    for key, value in payload.items():
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    # --help leaves out the docstring's last paragraph, which is for Python callers;
    # under -OO there is no docstring
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = argparse.ArgumentParser(prog="mathieulab", description=description)
    parser.add_argument("--format", choices=("json", "pretty"), default="json")
    parser.add_argument("--pretty", action="store_true", help="shorthand for --format pretty")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the mathematical verdict is negative")
    parser.add_argument("--seed", type=_ascii_int, default=None,
                        help="accepted for compatibility; every computation is deterministic")
    parser.add_argument("--jobs", type=_ascii_int, default=1,
                        help="accepted for compatibility; execution is sequential")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **arguments):
        p = sub.add_parser(name)
        for arg, options in arguments.items():
            p.add_argument(arg, **options)
        p.set_defaults(handler=fn)
        return p

    op_arg = {"required": True, "help": "operator, e.g. mono:c=1,alpha=1,lambda=1,d=0"}
    poly_arg = {"required": True, "help": "polynomial in t"}
    weight_arg = {"required": True, "help": "weight, e.g. jacobi:alpha=0,beta=0"}
    space_arg = {"required": True, "help": "cofinite subspace JSON"}
    ctx_arg = {"required": True, "help": "context, e.g. ufd:a=x^2"}

    cmd("reduce", _cmd_reduce, **{"--op": op_arg, "--poly": poly_arg})
    cmd("member", _cmd_member, **{"--op": op_arg, "--poly": poly_arg})
    cmd("lzero", _cmd_lzero, **{"--op": op_arg, "--poly": poly_arg})
    cmd("escape", _cmd_escape, **{"--op": op_arg, "--poly": poly_arg,
                                  "--budget": {"type": _ascii_int, "default": 50}})
    cmd("certify", _cmd_certify, **{"--poly": poly_arg,
                                    "--d": {"type": _ascii_int, "required": True},
                                    "--alpha": {"required": True},
                                    "--budget": {"type": _ascii_int, "default": 10 ** 6}})
    cmd("verify-cert", _cmd_verify_cert, **{"--cert": {"default": None},
                                            "--cert-file": {"default": None}})
    cmd("moments", _cmd_moments, **{"--weight": weight_arg,
                                    "--upto": {"type": _ascii_int, "default": 10}})
    cmd("vb-member", _cmd_vb_member, **{"--weight": weight_arg, "--poly": poly_arg})
    cmd("orthopoly", _cmd_orthopoly, **{"--weight": weight_arg,
                                        "--n": {"type": _ascii_int, "required": True}})
    cmd("equiv", _cmd_equiv, **{"--weight": weight_arg, "--op": op_arg,
                                "--deg-bound": {"type": _ascii_int, "default": 12}})
    cmd("mathieu", _cmd_mathieu, **{"--space": space_arg, "--full": {"action": "store_true"}})
    cmd("largest-ideal", _cmd_largest_ideal, **{"--space": space_arg})
    cmd("radical-probe", _cmd_radical_probe, **{
        "--poly": poly_arg,
        "--window": {"required": True, "help": "inclusive range lo:hi"},
        "--space": {"default": None},
        "--op": {"default": None},
        "--weight": {"default": None},
    })
    cmd("ufd-member", _cmd_ufd_member, **{"--ctx": ctx_arg, "--poly": poly_arg})
    cmd("ufd-radical", _cmd_ufd_radical, **{"--ctx": ctx_arg,
                                            "--p": {"required": True, "help": "unsubstituted polynomial"}})
    cmd("absorb-bound", _cmd_absorb_bound, **{"--ctx": ctx_arg,
                                              "--p": {"required": True},
                                              "--g": {"required": True}})
    cmd("gcd-lift", _cmd_gcd_lift, **{"--a": {"required": True},
                                      "--elements": {"required": True,
                                                     "help": "comma-separated ring elements"}})
    cmd("surjective", _cmd_surjective, **{"--ctx": {"required": True,
                                                    "help": "trunc:k=2,c=1,a=x"},
                                          "--deg-bound": {"type": _ascii_int, "default": 10}})
    return parser


# options whose value (a polynomial, a rational or a list of ring elements)
# may start with a minus sign
_SIGNED_OPTIONS = frozenset(("--poly", "--p", "--g", "--a", "--alpha", "--elements", "--window"))


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write '--poly -t' as '--poly=-t': argparse reads a separate argument
    that starts with '-' (and is not a number) as an option, not a value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload, negative = args.handler(args)
    except AlgebraError as exc:
        code = getattr(exc, "code", "ERROR")
        print(json.dumps({"status": "error", "code": code, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        print(json.dumps({"status": "error", "code": "BAD_INPUT", "message": str(exc)}),
              file=sys.stderr)
        return 2
    if args.pretty or args.format == "pretty":
        print(_pretty(payload))
    else:
        print(json.dumps(payload))
    if args.check and negative:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
