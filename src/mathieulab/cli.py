"""Batch command-line front end; one subcommand per library operation.

JSON on stdout is the stable contract; ``--format pretty`` is for humans
and deliberately unstable.  Exit codes: 0 ok, 1 negative mathematical
verdict under ``--check``, 2 usage or input errors.

``main(argv)`` may be called repeatedly in one process; parsing keeps no state
between calls.  Each request is read from the option table (``_COMMANDS``):
global options, the subcommand, then ``--name value``, ``--name=value`` or a
bare flag, with exact names.  argparse, on a parser built once from the same
table, reads only the rest: help, usage errors, abbreviated options and a
separate value that starts with '-'.  The parsing rules are unchanged.
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


def _json_value(text: str, option: str):
    """The JSON value of an option; JSON nested past the interpreter's
    recursion limit is BAD_INPUT, not a traceback."""
    try:
        return json.loads(text)
    except RecursionError:
        raise BadInput(f"{option} JSON is nested too deeply") from None


def _cmd_verify_cert(args):
    if args.cert_file:
        with open(args.cert_file, "r", encoding="utf-8") as fh:
            data = _json_value(fh.read(), "--cert-file")
    elif args.cert:
        data = _json_value(args.cert, "--cert")
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
    return radlab.CofiniteSubspace.from_dict(_json_value(text, "--space"))


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


class _Option:
    """One row of the option table: the name, the type of its value (str or
    _ascii_int, or bool for a flag), whether it is required or else its default,
    the help text and the choices; a signed option's value may start with '-'."""

    __slots__ = ("name", "dest", "type", "required", "default", "help", "choices", "signed")

    def __init__(self, name, type=str, *, required=False, default=None, help=None,
                 choices=None, signed=False):
        self.name, self.dest = name, name[2:].replace("-", "_")
        self.type, self.required, self.default = type, required, default
        self.help, self.choices, self.signed = help, choices, signed


def _options(*options: _Option) -> dict:
    return {o.name: o for o in options}


_GLOBAL_OPTIONS = _options(
    _Option("--format", choices=("json", "pretty"), default="json"),
    _Option("--pretty", bool, default=False, help="shorthand for --format pretty"),
    _Option("--check", bool, default=False,
            help="exit 1 when the mathematical verdict is negative"),
    _Option("--seed", _ascii_int,
            help="accepted for compatibility; every computation is deterministic"),
    _Option("--jobs", _ascii_int, default=1,
            help="accepted for compatibility; execution is sequential"),
)
_OP = _Option("--op", required=True, help="operator, e.g. mono:c=1,alpha=1,lambda=1,d=0")
_POLY = _Option("--poly", required=True, help="polynomial in t", signed=True)
_WEIGHT = _Option("--weight", required=True, help="weight, e.g. jacobi:alpha=0,beta=0")
_SPACE = _Option("--space", required=True, help="cofinite subspace JSON")
_CTX = _Option("--ctx", required=True, help="context, e.g. ufd:a=x^2")

# subcommand -> (handler, options), in the order --help lists them
_COMMANDS = {
    "reduce": (_cmd_reduce, _options(_OP, _POLY)),
    "member": (_cmd_member, _options(_OP, _POLY)),
    "lzero": (_cmd_lzero, _options(_OP, _POLY)),
    "escape": (_cmd_escape, _options(_OP, _POLY, _Option("--budget", _ascii_int, default=50))),
    "certify": (_cmd_certify, _options(
        _POLY, _Option("--d", _ascii_int, required=True),
        _Option("--alpha", required=True, signed=True),
        _Option("--budget", _ascii_int, default=10 ** 6))),
    "verify-cert": (_cmd_verify_cert, _options(_Option("--cert"), _Option("--cert-file"))),
    "moments": (_cmd_moments, _options(_WEIGHT, _Option("--upto", _ascii_int, default=10))),
    "vb-member": (_cmd_vb_member, _options(_WEIGHT, _POLY)),
    "orthopoly": (_cmd_orthopoly, _options(_WEIGHT, _Option("--n", _ascii_int, required=True))),
    "equiv": (_cmd_equiv, _options(_WEIGHT, _OP,
                                   _Option("--deg-bound", _ascii_int, default=12))),
    "mathieu": (_cmd_mathieu, _options(_SPACE, _Option("--full", bool, default=False))),
    "largest-ideal": (_cmd_largest_ideal, _options(_SPACE)),
    "radical-probe": (_cmd_radical_probe, _options(
        _POLY, _Option("--window", required=True, help="inclusive range lo:hi", signed=True),
        _Option("--space"), _Option("--op"), _Option("--weight"))),
    "ufd-member": (_cmd_ufd_member, _options(_CTX, _POLY)),
    "ufd-radical": (_cmd_ufd_radical, _options(
        _CTX, _Option("--p", required=True, help="unsubstituted polynomial", signed=True))),
    "absorb-bound": (_cmd_absorb_bound, _options(
        _CTX, _Option("--p", required=True, signed=True),
        _Option("--g", required=True, signed=True))),
    "gcd-lift": (_cmd_gcd_lift, _options(
        _Option("--a", required=True, signed=True),
        _Option("--elements", required=True, help="comma-separated ring elements", signed=True))),
    "surjective": (_cmd_surjective, _options(
        _Option("--ctx", required=True, help="trunc:k=2,c=1,a=x"),
        _Option("--deg-bound", _ascii_int, default=10))),
}


def _add_options(parser: argparse.ArgumentParser, options: dict) -> None:
    for o in options.values():
        if o.type is bool:
            parser.add_argument(o.name, action="store_true", help=o.help)
        else:
            parser.add_argument(o.name, type=o.type, required=o.required, default=o.default,
                                choices=o.choices, help=o.help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser built from the option table, once per process and
    shared by every call that the table's own reader declines."""
    # --help leaves out the docstring's last paragraph, which is for Python callers;
    # under -OO there is no docstring
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = argparse.ArgumentParser(prog="mathieulab", description=description)
    _add_options(parser, _GLOBAL_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        _add_options(p, options)
        p.set_defaults(handler=handler)
    return parser


def _read_request(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace that the parser would read from argv, read from the option
    table alone: global options, the subcommand, then its options, each as
    '--name value', '--name=value' or a bare flag, with exact names.  None for
    anything else (help, an abbreviated or unknown option, a global option after
    the subcommand, a usage error, '--', a separate value that starts with '-'),
    which argparse then reads, so that it writes every help text and usage error."""
    options, command, values = _GLOBAL_OPTIONS, None, {}
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        option = options.get(name)
        if option is None:
            if command is not None or arg not in _COMMANDS:
                return None
            command = arg
            options = _COMMANDS[arg][1]
            continue
        if option.type is bool:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("-"):
                    return None
            elif value == "--":  # argparse drops a '--' value
                return None
            try:
                value = option.type(value)
            except (argparse.ArgumentTypeError, ValueError):
                return None
            if option.choices is not None and value not in option.choices:
                return None
        values[option.dest] = value
    if command is None or any(o.required and o.dest not in values for o in options.values()):
        return None
    namespace = {o.dest: o.default for o in (*_GLOBAL_OPTIONS.values(), *options.values())}
    namespace.update(values, command=command, handler=_COMMANDS[command][0])
    return argparse.Namespace(**namespace)


# options whose value (a polynomial, a rational or a list of ring elements)
# may start with a minus sign
_SIGNED_OPTIONS = frozenset(o.name for _, options in _COMMANDS.values()
                            for o in options.values() if o.signed)


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
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    args = _read_request(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
