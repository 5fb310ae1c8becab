"""Command-line interface: exact JSON payloads, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import random
import subprocess
import sys
import time

import pytest

from mathieulab import cli
from mathieulab.cli import main
from mathieulab.errors import AlgebraError

import cli_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_member_example(capsys):
    payload = run_json(capsys, "member", "--op", "mono:c=1,alpha=1,lambda=1,d=0",
                       "--poly", "t-2")
    assert payload == {"member": True, "witness": "-t"}
    # the lead of D((1 - t^2) t^n) vanishes at n = 1, and D((1 - t^2) t) reduces to a constant
    payload = run_json(capsys, "member", "--op", "jacobi:alpha=-4,beta=1", "--poly", "1")
    assert payload == {"member": True, "witness": "1/24*t^3 - 5/24*t^2 - 1/24*t + 5/24"}
    payload = run_json(capsys, "member", "--op", "jacobi:alpha=-2,beta=0", "--poly", "t")
    assert payload == {"member": False, "witness": None}


def test_mathieu_example(capsys):
    payload = run_json(capsys, "mathieu", "--space",
                       '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,1]]}')
    assert payload == {"status": "NOT_MATHIEU", "witness_a": "1", "witness_b": "t"}


def test_mathieu_full_fields(capsys):
    # budget_used: the window [D, 2D] that the radical decision is equivalent
    # to, and how the verdict was reached: the rank of the refuting factor set
    # and the witness family, the rank 2^n - 1 when no set refutes, or an ideal
    def full(space):
        return run_json(capsys, "mathieu", "--full", "--space", space)

    assert full('{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,1]]}') == {
        "status": "NOT_MATHIEU", "witness_a": "1", "witness_b": "t",
        "i_v_generator": "t^2 - t", "radical_iv_generator": "t^2 - t",
        "budget_used": {"window": [2, 4], "candidates_tried": 3,
                        "witness_family": "crt_idempotent"}}
    assert full('{"modulus":[["t",1],["t - 1",1],["t + 1",1]],"vbar_basis":[[1,2,0]]}') == {
        "status": "MATHIEU_EXACT", "i_v_generator": "t^3 - t", "radical_iv_generator": "t^3 - t",
        "budget_used": {"window": [3, 6], "candidates_tried": 7}}
    assert full('{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,0]]}') == {
        "status": "MATHIEU_EXACT", "i_v_generator": "t - 1", "radical_iv_generator": "t - 1",
        "budget_used": {"window": [2, 4], "structural_case": "ideal"}}
    payload = full('{"modulus":[["t^4 + t + 7",1],["t",1]],"vbar_basis":[[1,0,0,0,2]]}')
    assert list(payload) == ["status", "i_v_generator", "radical_iv_generator", "budget_used",
                             "diagnostics"]
    assert payload["budget_used"] == {"window": [5, 10], "candidates_tried": 3}


def test_lzero_example(capsys):
    payload = run_json(capsys, "lzero", "--op", "mono:c=1,alpha=0,lambda=1,d=1",
                       "--poly", "t^4")
    assert payload == {"value": "3"}


def test_reduce_and_escape(capsys):
    payload = run_json(capsys, "reduce", "--op", "mono:c=1,alpha=0,lambda=1,d=1",
                       "--poly", "t^3")
    assert payload == {"normal_form": "2*t", "witness": "-t^2", "admissible": True}
    payload = run_json(capsys, "reduce", "--op", "mono:c=1,alpha=1,lambda=0,d=0", "--poly", "t")
    assert payload == {"normal_form": "0", "witness": "1/3*t^2", "admissible": True}
    payload = run_json(capsys, "escape", "--op", "mono:c=1,alpha=1,lambda=1,d=0",
                       "--poly", "t-2")
    assert payload == {"escape_exponent": 2}


def test_certify_and_verify_roundtrip(capsys, tmp_path):
    cert = run_json(capsys, "certify", "--poly", "t+t^2", "--d", "1", "--alpha", "0")
    assert cert["m"] == 1 and cert["prime"] == 3
    payload = run_json(capsys, "verify-cert", "--cert", json.dumps(cert))
    assert payload == {"valid": True}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert run_json(capsys, "verify-cert", "--cert-file", str(path)) == {"valid": True}
    code, out, err = run_cli(capsys, "verify-cert", "--cert-file", str(tmp_path / "missing.json"))
    assert code == 2 and not out and json.loads(err)["code"] == "BAD_INPUT"
    tampered = dict(cert)
    tampered["prime"] = 4
    code, out, err = run_cli(capsys, "verify-cert", "--cert", json.dumps(tampered))
    assert code == 0 and json.loads(out) == {"valid": False}


def test_json_nested_too_deeply_is_bad_input(capsys, tmp_path):
    # past the interpreter's recursion limit json raises RecursionError, which
    # the options that read JSON answer as BAD_INPUT naming the option
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / "deep.json"
    path.write_text(deep, encoding="utf-8")
    for argv, option in ((("mathieu", "--space", deep), "--space"),
                         (("largest-ideal", "--space", deep), "--space"),
                         (("radical-probe", "--space", deep, "--poly", "t", "--window", "1:2"),
                          "--space"),
                         (("verify-cert", "--cert", deep), "--cert"),
                         (("verify-cert", "--cert-file", str(path)), "--cert-file")):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and not out, argv
        assert json.loads(err) == {"status": "error", "code": "BAD_INPUT",
                                   "message": f"{option} JSON is nested too deeply"}
    # nesting within the limit reaches the description's own checks
    shallow = "[" * 500 + "]" * 500
    status, _, err = run_cli(capsys, "mathieu", "--space", shallow)
    assert status == 2 and json.loads(err)["message"] == (
        "malformed subspace description: expected a JSON object")


def test_moments_vb_orthopoly(capsys):
    payload = run_json(capsys, "moments", "--weight", "hermite", "--upto", "4")
    assert payload == {"moments": ["1", "0", "1/2", "0", "3/4"]}
    payload = run_json(capsys, "vb-member", "--weight", "jacobi:alpha=0,beta=0",
                       "--poly", "3*t^2-1")
    assert payload == {"member": True}
    payload = run_json(capsys, "orthopoly", "--weight", "jacobi:alpha=0,beta=0", "--n", "2")
    assert payload == {"degree": 2, "poly": "t^2 - 1/3"}


def test_equiv_largest_ideal_probe(capsys):
    payload = run_json(capsys, "equiv", "--weight", "hermite",
                       "--op", "mono:c=1,alpha=0,lambda=2,d=1", "--deg-bound", "8")
    assert payload["equivalent"] is True and payload["violations"] == []
    payload = run_json(capsys, "largest-ideal", "--space",
                       '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,-1]]}')
    assert payload == {"generator": "t^2 - t"}
    payload = run_json(capsys, "radical-probe", "--op", "mono:c=1,alpha=-1,lambda=1,d=1",
                       "--poly", "t^2", "--window", "1:15")
    assert payload == {"holds": True, "window": [1, 15]}


def test_ufd_subcommands(capsys):
    payload = run_json(capsys, "ufd-member", "--ctx", "ufd:a=x^2", "--poly", "x^2*t - 1")
    assert payload == {"member": True, "witness": "-t"}
    payload = run_json(capsys, "ufd-radical", "--ctx", "ufd:a=x^2", "--p", "x*t")
    assert payload == {"in_radical": True}
    payload = run_json(capsys, "absorb-bound", "--ctx", "ufd:a=x^2", "--p", "x*t", "--g", "t")
    assert payload == {"bound": 4}
    payload = run_json(capsys, "gcd-lift", "--a", "x^2", "--elements", "x,x^3")
    assert payload == {"u": "x", "d_tilde": ["1", "x^2"]}
    payload = run_json(capsys, "surjective", "--ctx", "trunc:k=2,c=1,a=x", "--deg-bound", "5")
    assert payload["status"] == "ONE_IN_IMAGE"
    assert payload["one_witness"] == "1/2*x*t^2 + t"
    assert payload["monomials_checked"] == 6 and payload["unresolved"] == []


def test_exit_codes(capsys):
    # malformed polynomial: exit 2 with a message
    code, out, err = run_cli(capsys, "member", "--op", "mono:c=1,alpha=1,lambda=1,d=0",
                             "--poly", "t ++ 2")
    assert code == 2 and "PARSE_ERROR" in err
    # unknown subcommand: exit 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
    # negative verdict without --check: exit 0; with --check: exit 1
    code, out, _ = run_cli(capsys, "member", "--op", "mono:c=1,alpha=1,lambda=1,d=0",
                           "--poly", "1")
    assert code == 0 and json.loads(out) == {"member": False, "witness": None}
    code, _, _ = run_cli(capsys, "--check", "member", "--op", "mono:c=1,alpha=1,lambda=1,d=0",
                         "--poly", "1")
    assert code == 1


MALFORMED_CASES = (
    (("moments", "--weight", "laguerre", "--upto", "2"), "BAD_INPUT"),
    (("moments", "--weight", "jacobi:alpha=1", "--upto", "2"), "BAD_INPUT"),
    (("moments", "--weight", "atomic:points=0,1", "--upto", "2"), "BAD_INPUT"),
    (("moments", "--weight", "jacobi:alpha", "--upto", "2"), "BAD_INPUT"),
    (("moments", "--weight", "laguerre:alpha=1,beta=2", "--upto", "2"), "BAD_INPUT"),
    (("moments", "--weight", "jacobi:alpha=1,beta=2,gamma=3", "--upto", "2"), "BAD_INPUT"),
    (("moments", "--weight", "atomic:points=0,1;weights=1,1;foo=1", "--upto", "2"), "BAD_INPUT"),
    (("member", "--op", "mono:c=1,alpha", "--poly", "t"), "BAD_INPUT"),
    (("member", "--op", "mono:gamma=1", "--poly", "t"), "BAD_INPUT"),
    (("member", "--op", "mono:d=1_0", "--poly", "t"), "BAD_INPUT"),
    (("member", "--op", "jacobi:alpha=\u0663", "--poly", "t"), "BAD_INPUT"),
    (("moments", "--weight", "laguerre:alpha=3/\u0664", "--upto", "2"), "BAD_INPUT"),
    (("ufd-member", "--ctx", "ufd:a", "--poly", "t"), "BAD_INPUT"),
    (("ufd-member", "--ctx", "ufd:a=x,b=x", "--poly", "t"), "BAD_INPUT"),
    (("surjective", "--ctx", "trunc:k=2,c=1,a", "--deg-bound", "2"), "BAD_INPUT"),
    (("surjective", "--ctx", "trunc:k=2,c=1", "--deg-bound", "2"), "BAD_INPUT"),
    (("surjective", "--ctx", "trunc:k=1.5,c=1,a=x", "--deg-bound", "2"), "BAD_INPUT"),
    (("surjective", "--ctx", "trunc:k=\u0663,c=1,a=x", "--deg-bound", "2"), "BAD_INPUT"),
    (("surjective", "--ctx", "trunc:k=1_0,c=1,a=x", "--deg-bound", "2"), "BAD_INPUT"),
    (("surjective", "--ctx", "trunc:k=2,c=1,a=x*t", "--deg-bound", "100000"), "BAD_INPUT"),
    (("moments", "--weight", "hermite", "--upto", "-3"), "BAD_INPUT"),
    (("radical-probe", "--poly", "t", "--window", "1:3"), "BAD_INPUT"),
    (("radical-probe", "--poly", "t", "--window", "1:3", "--weight", "hermite",
      "--op", "mono:c=1,alpha=1,lambda=1,d=0"), "BAD_INPUT"),
    (("radical-probe", "--poly", "t", "--window", "3", "--weight", "hermite"), "BAD_INPUT"),
    (("radical-probe", "--poly", "t", "--window", "1_0:2_0", "--weight", "hermite"), "BAD_INPUT"),
    (("radical-probe", "--poly", "t", "--window", "\u0663:4", "--weight", "hermite"), "BAD_INPUT"),
    (("radical-probe", "--poly", "t", "--window", "-1:3", "--weight", "hermite"), "BAD_INPUT"),
    (("verify-cert",), "BAD_INPUT"),
    (("mathieu", "--space", '{"modulus":[["t",1]],"vbar_basis":[1]}'), "BAD_INPUT"),
    (("mathieu", "--space", '{"modulus":[["t",1]],"vbar_basis":5}'), "BAD_INPUT"),
    (("mathieu", "--space", '{"modulus":[["t",1]],"vbar_basis":null}'), "BAD_INPUT"),
    (("mathieu", "--space", '{"modulus":[["t",1],["t-1",1]],"vbar_basis":[["1/0",1]]}'),
     "BAD_INPUT"),
)


def test_malformed_spec_arguments_exit_2(capsys):
    for argv, code in MALFORMED_CASES:
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and not out, argv
        assert json.loads(err)["code"] == code, argv


def test_rejections_name_their_reason(capsys):
    coprime = "modulus factors are not pairwise coprime"
    shared_root = '{"modulus":[["t^4 - 1",1],["t - 1",1]],"vbar_basis":%s}'
    certify = ("certify", "--poly", "t+t^2", "--d", "1", "--alpha", "0", "--budget")
    multiplicity = "factor multiplicities must be positive integers"
    inexact = '{"modulus":[["t",2.9],["t - 1",true]],"vbar_basis":[]}'
    basis = '{"modulus":[["t",1]],"vbar_basis":%s}'
    malformed = "malformed subspace description: '%s' object is not iterable"
    two_points = '{"modulus":[["t",1],["t-1",1]],"vbar_basis":[[%s,1]]}'
    entries = "basis entries must be integers or rational strings"
    cases = (
        (("largest-ideal", "--space", inexact), multiplicity),
        (("mathieu", "--space", inexact.replace("true", "1")), multiplicity),
        (("largest-ideal", "--space", inexact.replace("2.9", "2")), multiplicity),
        (("mathieu", "--space", shared_root % "[]"), coprime),
        (("largest-ideal", "--space", shared_root % "[]"), coprime),
        (("mathieu", "--space", shared_root % "[[1,0,0,0,-1]]"), coprime),
        (("largest-ideal", "--space", shared_root % "[[1,0,0,0,-1]]"), coprime),
        (("mathieu", "--space", basis % "[1]"), malformed % "int"),
        (("mathieu", "--space", basis % "5"), malformed % "int"),
        (("largest-ideal", "--space", basis % "null"), malformed % "NoneType"),
        (("mathieu", "--space", two_points % '"1/0"'), "bad rational literal '1/0'"),
        (("largest-ideal", "--space", two_points % '"1e3"'), "bad rational literal '1e3'"),
        (("mathieu", "--space", two_points % "null"), entries),
        ((*certify, "-5"), "budget must be at least 1"),
        ((*certify, "0"), "budget must be at least 1"),
        (("moments", "--weight", "jacobi:alpha=1,beta=2,gamma=3,delta=4", "--upto", "2"),
         "unknown weight arguments ['delta', 'gamma']"),
    )
    for argv, message in cases:
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and not out, argv
        assert json.loads(err) == {"status": "error", "code": "BAD_INPUT", "message": message}


def test_moments_print_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    payload = run_json(capsys, "moments", "--weight", "laguerre:alpha=1/2", "--upto", "1500")
    assert len(payload["moments"]) == 1501
    assert len(payload["moments"][-1].split("/")[0]) > 4300
    assert sys.get_int_max_str_digits() == limit
    # input text is still parsed under the limit
    status, out, err = run_cli(capsys, "moments", "--weight", "laguerre:alpha=" + "1" * 5000,
                               "--upto", "2")
    assert status == 2 and not out and json.loads(err)["code"] == "BAD_INPUT"
    assert sys.get_int_max_str_digits() == limit


def _digits(n):
    """str(n) past Python's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_reduce_and_orthopoly_print_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    # under d/dt - 1/N, t^2 = D(-N t^2 - 2 N^2 t) + 2 N^2
    big = 10 ** 3000 - 1
    payload = run_json(capsys, "reduce", "--op", f"mono:c=1,alpha=0,lambda=1/{big},d=0",
                       "--poly", "t^2")
    assert payload == {"normal_form": _digits(2 * big * big),
                       "witness": f"-{big}*t^2 - {_digits(2 * big * big)}*t",
                       "admissible": True}
    assert len(payload["normal_form"]) > 4300
    # the constant term of the monic Laguerre p_50 for alpha = 1/q is
    # prod_(i <= 50) (i q + 1) / q^50, over 5000 digits
    q = 10 ** 100
    payload = run_json(capsys, "orthopoly", "--weight", f"laguerre:alpha=1/{q}", "--n", "50")
    constant = _digits(math.prod(i * q + 1 for i in range(1, 51))) + "/" + _digits(q ** 50)
    assert payload["degree"] == 50 and payload["poly"].endswith(" + " + constant)
    assert sys.get_int_max_str_digits() == limit


def test_cost_limits_refuse_before_any_work(capsys):
    cases = (
        ("orthopoly", "--weight", "jacobi:alpha=123/457,beta=511/997", "--n", "1001"),
        ("orthopoly", "--weight", "hermite", "--n", "1000000000"),
        ("moments", "--weight", "jacobi:alpha=1/2,beta=1/3", "--upto", "2001"),
        ("moments", "--weight", "hermite", "--upto", "1000000000"),
        ("vb-member", "--weight", "laguerre:alpha=1/2", "--poly", "t^10000"),
        ("mathieu", "--space", '{"modulus":[["t + 1",33]]}'),
        ("mathieu", "--space", '{"modulus":[["t + 1",1000000000]]}'),
    )
    for argv in cases:
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert status == 2 and not out, argv
        error = json.loads(err)
        assert error["code"] == "BAD_INPUT" and "above the limit" in error["message"], argv


def test_equiv_cost_does_not_grow_with_the_degree_bound(capsys):
    for weight, op in (("hermite", "mono:c=1,alpha=0,lambda=2,d=1"),
                       ("jacobi:alpha=1/2,beta=1/3", "jacobi:alpha=1/2,beta=1/3")):
        start = time.perf_counter()
        payload = run_json(capsys, "equiv", "--weight", weight, "--op", op,
                           "--deg-bound", "1000000000")
        assert time.perf_counter() - start < 0.5, weight
        assert payload == {"one_in_image": False, "degrees_checked": 1000000001,
                           "violations": [], "equivalent": True}


@pytest.mark.parametrize("argv, what", [
    (("moments", "--weight", "laguerre:alpha=1,alpha=2", "--upto", "2"), "weight argument 'alpha'"),
    (("surjective", "--ctx", "trunc:k=2,k=3,c=1,a=x"), "context argument 'k'"),
    (("member", "--op", "mono:c=1,c=2,lambda=1", "--poly", "t"), "operator argument 'c'"),
    (("ufd-member", "--ctx", "ufd:a=x^2,a=x", "--poly", "x^2*t - 1"), "context argument 'a'"),
])
def test_repeated_key_is_refused(capsys, argv, what):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and not out
    assert json.loads(err) == {"status": "error", "code": "BAD_INPUT",
                               "message": f"repeated {what}"}


def test_seed_determinism(capsys):
    argv = ["mathieu", "--space", '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,1]]}']
    outputs = set()
    for seed in ("0", "1", "12345"):
        code, out, _ = run_cli(capsys, "--seed", seed, *argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_unverified_factor_diagnostics(capsys):
    payload = run_json(capsys, "largest-ideal", "--space",
                       '{"modulus":[["t^4 + t + 7",1]],"vbar_basis":[]}')
    assert payload["generator"] == "t^4 + t + 7"
    assert any("trusted" in line for line in payload["diagnostics"])
    payload = run_json(capsys, "mathieu", "--space",
                       '{"modulus":[["t^4 + t + 7",1],["t",1]],"vbar_basis":[[1,0,0,0,2]]}')
    assert payload == {"status": "CONSISTENT_UP_TO_BUDGET", "diagnostics": [
        "factor t^4 + t + 7 exceeds degree 3; irreducibility trusted, not verified"]}
    # the pinned example space has no flagged factors and no diagnostics key
    clean = run_json(capsys, "mathieu", "--space",
                     '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,1]]}')
    assert "diagnostics" not in clean


def test_pretty_format(capsys):
    code, out, _ = run_cli(capsys, "--pretty", "lzero", "--op",
                           "mono:c=1,alpha=0,lambda=1,d=1", "--poly", "t^4")
    assert code == 0 and "value: 3" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mathieulab", "lzero", "--op",
         "mono:c=1,alpha=0,lambda=1,d=1", "--poly", "t^4"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        cwd=".",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": "3"}


# -- the shared parser against a fresh parser per call --------------------------

OP = "mono:c=1,alpha=1,lambda=1,d=0"
SPACE = '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,1]]}'
README_EXAMPLES = (
    ("member", "--op", OP, "--poly", "t-2"),
    ("mathieu", "--space", SPACE),
    ("lzero", "--op", "mono:c=1,alpha=0,lambda=1,d=1", "--poly", "t^4"),
    ("certify", "--poly", "t+t^2", "--d", "1", "--alpha", "0"),
    # verify-cert is appended with the certificate printed by certify
    ("moments", "--weight", "laguerre:alpha=1/2", "--upto", "6"),
    ("orthopoly", "--weight", "jacobi:alpha=0,beta=0", "--n", "4"),
    ("equiv", "--weight", "hermite", "--op", "mono:c=1,alpha=0,lambda=2,d=1",
     "--deg-bound", "12"),
    ("escape", "--op", OP, "--poly", "t-2"),
    ("radical-probe", "--op", "mono:c=1,alpha=-1,lambda=1,d=1", "--poly", "t^2",
     "--window", "1:15"),
    ("largest-ideal", "--space", '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,-1]]}'),
    ("ufd-member", "--ctx", "ufd:a=x^2", "--poly", "x^2*t - 1"),
    ("ufd-radical", "--ctx", "ufd:a=x^2", "--p", "x*t"),
    ("absorb-bound", "--ctx", "ufd:a=x^2", "--p", "x*t", "--g", "t"),
    ("gcd-lift", "--a", "x^2", "--elements", "x,x^3"),
    ("surjective", "--ctx", "trunc:k=2,c=1,a=x", "--deg-bound", "10"),
)
EXIT_CODE_CASES = (
    ("member", "--op", OP, "--poly", "t ++ 2"),
    ("frobnicate",),
    ("member", "--op", OP, "--poly", "1"),
    ("--check", "member", "--op", OP, "--poly", "1"),
)
USAGE_CASES = (
    (),
    ("--help",),
    ("member", "--help"),
    ("--format", "xml", "member", "--op", OP, "--poly", "t"),
    ("member", "--op", OP, "--poly", "t", "extra"),
)
GLOBAL_FLAGS = (("--check",), ("--pretty",), ("--format", "pretty"), ())


def reference_main(argv):
    """Reference for ``main``: the same dispatch on a parser built for this call alone."""
    parser = cli.build_parser.__wrapped__()
    try:
        args = parser.parse_args(cli._attach_signed_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload, negative = args.handler(args)
    except AlgebraError as exc:
        print(json.dumps({"status": "error", "code": exc.code, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        print(json.dumps({"status": "error", "code": "BAD_INPUT", "message": str(exc)}),
              file=sys.stderr)
        return 2
    if args.pretty or args.format == "pretty":
        print("\n".join(f"{key}: {value}" for key, value in payload.items()))
    else:
        print(json.dumps(payload))
    return 1 if args.check and negative else 0


VARIANT_KINDS = ("abbreviated", "repeated", "equals", "pretty=1", "global after", "missing",
                 "-h", "--", "negative", "empty", "unknown")


def _variant(rng, argv, other, kind):
    """A variant of the corpus request argv, in a form that the option table's
    reader must read as argparse does or leave to argparse; other is a second
    request of the same subcommand, whose value a repeated option takes."""
    name, *rest = argv
    options = [i for i, arg in enumerate(rest) if arg.startswith("--") and arg != "--full"]
    at = rng.choice(options)
    option, value = rest[at], rest[at + 1]
    boundary = rng.choice([i for i, arg in enumerate(rest) if arg.startswith("--")] + [len(rest)])
    if kind == "abbreviated":
        cut = rng.randint(3, max(3, len(option) - 1))  # '--p' and the like stay whole
        rest[at] = "--deg" if option == "--deg-bound" else option[:cut]
    elif kind == "repeated":
        rest += [option, other[other.index(option) + 1] if option in other else value]
    elif kind == "equals":
        rest[at:at + 2] = [f"{option}={value}"]
    elif kind == "pretty=1":
        return ("--pretty=1", name, *rest)
    elif kind == "global after":
        rest.insert(boundary, rng.choice(("--check", "--pretty", "--seed=1")))
    elif kind == "missing":
        del rest[at:at + 2]
    elif kind in ("-h", "--"):
        rest.insert(boundary, kind)
    elif kind == "negative":
        numbers = [i for i in options if rest[i + 1].isdigit()]
        if not numbers:
            return ("--seed", f"-{rng.randint(1, 9)}", name, *rest)
        rest[rng.choice(numbers) + 1] = f"-{rng.randint(0, 9)}"
    elif kind == "empty":
        rest[at + 1] = ""
    else:
        name = rng.choice(("frobnicate", name[:-1], name + "s", name.upper()))
    return (name, *rest)


def variant_requests(seed=40):
    """One seeded variant of each kind per subcommand, of corpus requests with an option."""
    rng = random.Random(seed)
    corpus = cli_corpus.requests()
    corpus["verify-cert"].append(["verify-cert", "--cert", "{}", "--cert-file", "cert.json"])
    out = []
    for name in cli_corpus.SUBCOMMANDS:
        requests = [argv for argv in corpus[name] if len(argv) > 2]
        for kind in VARIANT_KINDS:
            out.append(_variant(rng, rng.choice(requests), rng.choice(requests), kind))
    return out


def test_shared_parser_matches_fresh_parser(capsys):
    cert = run_cli(capsys, *README_EXAMPLES[3])[1].strip()
    base = [*README_EXAMPLES, ("verify-cert", "--cert", cert), *EXIT_CODE_CASES,
            *(argv for argv, _ in MALFORMED_CASES), *USAGE_CASES]
    assert len(base) == 16 + 4 + len(MALFORMED_CASES) + 5
    # cycle the global flags so a flag set on one call is absent on the next
    cases = [GLOBAL_FLAGS[i % len(GLOBAL_FLAGS)] + argv for i, argv in enumerate(base)]
    cases += base
    variants = variant_requests()
    assert len(variants) == len(cli_corpus.SUBCOMMANDS) * len(VARIANT_KINDS)
    cases += variants
    for argv in cases:
        shared = (main(list(argv)), *capsys.readouterr())
        fresh = (reference_main(list(argv)), *capsys.readouterr())
        assert shared == fresh, argv


def test_reader_reads_the_namespace_argparse_reads_or_declines(capsys):
    # on every corpus request and variant, the option table's reader returns
    # None or exactly what argparse reads, and None whenever argparse exits
    parser = cli.build_parser.__wrapped__()
    corpus = [argv for argvs in cli_corpus.requests().values() for argv in argvs]
    edges = (("member", "--op=--", "--poly", "t"), ("member", "--op", "-x", "--poly", "t"),
             ("member", "--op", OP, "--poly"), ("member", "--op", OP, "--poly", "-"),
             ("member", "--op=", "--poly="), ("mathieu", "--full=1", "--space", SPACE),
             ("--format=xml", "mathieu", "--space", SPACE), ("--seed=", "mathieu", "--space", SPACE),
             ("--seed= 3 ", "--jobs=+2", "--format=pretty", "mathieu", "--space=" + SPACE),
             ("orthopoly", "--weight", "hermite", "--n=1_0"), ("mathieu", "mathieu"),
             ("--check",), ("-", "mathieu", "--space", SPACE), ("mathieu=", "--space", SPACE))
    cases = [*corpus, *variant_requests(), *(argv for argv, _ in MALFORMED_CASES),
             *USAGE_CASES, *SIGNED_POLY_CASES, *edges]
    read = 0
    for argv in cases:
        argv = cli._attach_signed_values(list(argv))
        try:
            expected = vars(parser.parse_args(list(argv)))
        except SystemExit:
            expected = None
        capsys.readouterr()
        namespace = cli._read_request(list(argv))
        assert namespace is None or vars(namespace) == expected, argv
        read += namespace is not None
    assert read >= len(corpus) - 18


# SHA-256 over the replies to --help, each subcommand's --help and the
# USAGE_CASES: argparse writes this text, and reference_main shares its parser
# code with main, so only a pinned digest sees the text change
HELP_AND_USAGE_DIGEST = "2438de586e94813b7cfc3d92aad82e1d8731118bb323a52f89a9e562203228db"


def test_help_and_usage_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    h = hashlib.sha256()
    for argv in (("--help",), *((name, "--help") for name in cli_corpus.SUBCOMMANDS),
                 *USAGE_CASES):
        h.update(repr(run_cli(capsys, *argv)).encode())
    assert h.hexdigest() == HELP_AND_USAGE_DIGEST


SIGNED_POLY_CASES = (
    ("member", "--op", OP, "--poly", "-t-2"),
    ("--check", "radical-probe", "--space", SPACE, "--poly", "-t", "--window", "1:4"),
    ("radical-probe", "--space", SPACE, "--poly", "-t^2+t", "--window", "2:4"),
    ("ufd-radical", "--ctx", "ufd:a=x^2", "--p", "-x*t"),
    ("absorb-bound", "--ctx", "ufd:a=x^2", "--p", "-x*t", "--g", "-t"),
    ("gcd-lift", "--a", "-x^2", "--elements", "x,x^3"),
    ("gcd-lift", "--a", "x^2", "--elements", "-x,x^3"),
    ("certify", "--poly", "t+t^2", "--d", "1", "--alpha", "-1/2"),
    ("member", "--op", OP, "--poly", "-h"),
)


def test_polynomial_values_may_start_with_a_minus_sign(capsys):
    # '--poly -t' must read like '--poly=-t', not as an unknown option
    for argv in SIGNED_POLY_CASES:
        joined, spaced = [], list(argv)
        for arg in argv:
            if joined and joined[-1] in ("--poly", "--p", "--g", "--a", "--alpha", "--elements"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        expected = run_cli(capsys, *joined)
        assert run_cli(capsys, *spaced) == expected, argv
        assert "usage:" not in expected[2], argv
    # the last case is a parse error of the value, not an argparse usage error
    assert json.loads(expected[2])["code"] == "PARSE_ERROR"
    assert run_cli(capsys, *SIGNED_POLY_CASES[1])[:2] == (1, '{"holds": false, "window": [1, 4]}\n')


def test_cli_corpus_covers_every_subcommand():
    # tests/cli_corpus.py hashes the replies of a seeded request corpus per
    # subcommand; it must cover exactly the subcommands the parser has
    parser = cli.build_parser.__wrapped__()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(cli_corpus.SUBCOMMANDS) == sorted(sub.choices)
    corpus = cli_corpus.requests()
    assert all(corpus[name] and all(argv[0] == name for argv in corpus[name])
               for name in cli_corpus.SUBCOMMANDS)


def test_repeated_calls_reuse_the_parser(capsys):
    argv = ["lzero", "--op", "mono:c=1,alpha=0,lambda=1,d=1", "--poly", "t^4"]
    main(argv)
    start = time.perf_counter()
    for _ in range(300):
        main(argv)
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == '{"value": "3"}\n' * 301
    assert elapsed < 0.6, elapsed


def test_polynomial_text_is_ascii_and_within_the_digit_limit(capsys):
    # a non-ASCII digit or space is a parse error at its position, and an
    # integer past int()'s digit limit is BAD_INPUT at its position, for
    # --poly and for a modulus factor of --space alike; multiplicities and
    # integer options take ASCII integers only
    op = ("reduce", "--op", "mono:c=1,alpha=1,lambda=1,d=0", "--poly")
    limit = sys.get_int_max_str_digits()
    big = f"integer above the limit of {limit} digits (at position %d)"
    space = '{"modulus":[["%s",1]],"vbar_basis":[]}'
    cases = (
        ((*op, "٣*t"), "PARSE_ERROR", "unexpected character '٣' (at position 0)"),
        ((*op, "t^\uff13"), "PARSE_ERROR", "unexpected character '３' (at position 2)"),
        ((*op, "t\u2003+ 1"), "PARSE_ERROR", "unexpected character '\\u2003' (at position 1)"),
        ((*op, "1" * (limit + 1) + "*t"), "BAD_INPUT", big % 0),
        ((*op, "t + 1/" + "7" * (limit + 1)), "BAD_INPUT", big % 6),
        (("mathieu", "--space", space % ("t - " + "1" * (limit + 1))), "BAD_INPUT", big % 4),
        (("largest-ideal", "--space", space % "٣*t"), "PARSE_ERROR",
         "unexpected character '٣' (at position 0)"),
        # a factor multiplicity is a JSON integer, not a string int() reads
        (("largest-ideal", "--space", '{"modulus":[["t","٣"]]}'), "BAD_INPUT", "multiplicities"),
        (("mathieu", "--space", '{"modulus":[["t"," 2 "]]}'), "BAD_INPUT", "multiplicities"),
        (("mathieu", "--space", '{"modulus":[["t","1_0"]]}'), "BAD_INPUT", "multiplicities"),
        # a space description has only the keys modulus and vbar_basis
        (("mathieu", "--space", '{"modulus":[["t",1],["t - 1",1]],"vbar_bases":[[1,1]]}'),
         "BAD_INPUT", "malformed subspace description: unknown key 'vbar_bases'"),
        (("mathieu", "--space", '"hello"'), "BAD_INPUT",
         "malformed subspace description: expected a JSON object"),
        # a negative integer option reaches the subcommand's own refusal
        (("escape", "--op", "mono:c=1,alpha=1,lambda=1,d=0", "--poly", "t-2", "--budget", "-3"),
         "BAD_INPUT", "budget must be at least 1"),
    )
    for argv, code, message in cases:
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and not out, argv
        if message == "multiplicities":
            message = "factor multiplicities must be positive integers"
        assert json.loads(err) == {"status": "error", "code": code, "message": message}, argv
    # integer options take ASCII digits only, with argparse's own refusal
    escape = ("escape", "--op", "mono:c=1,alpha=1,lambda=1,d=0", "--poly", "t-2", "--budget")
    certify = ("certify", "--poly", "t+t^2", "--alpha", "0", "--d")
    for argv in (("orthopoly", "--weight", "hermite", "--n", "٣"), (*certify, "١"),
                 (*escape, "1_0"), (*escape, "\u20033"), (*certify, "1", "--budget", "1_0"),
                 ("moments", "--weight", "hermite", "--upto", "\uff13"),
                 ("equiv", "--weight", "hermite", "--op", "mono:c=1,alpha=0,lambda=2,d=1",
                  "--deg-bound", "1_2"),
                 ("surjective", "--ctx", "trunc:k=2,c=1,a=x", "--deg-bound", "٣")):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and not out, argv
        assert err.endswith(f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n"), err
    # so do the global --seed and --jobs
    orthopoly = ("orthopoly", "--weight", "hermite", "--n", "2")
    for flag, value in (("--seed", "٣"), ("--jobs", "1_0"), ("--seed", "\uff13"), ("--jobs", "٢")):
        status, out, err = run_cli(capsys, flag, value, *orthopoly)
        assert status == 2 and not out, (flag, value)
        assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n"), err
    assert run_json(capsys, "--seed", "3", "--jobs", " 2 ", *orthopoly)["degree"] == 2
    assert run_json(capsys, "orthopoly", "--weight", "hermite", "--n", " +3 ")["degree"] == 3


# SHA-256 digests of tests/cli_corpus.py's replies per subcommand, with the
# request count: a change that moves one changes that subcommand's output
CLI_CORPUS_DIGESTS = {
    "reduce": (73, "9fbbd5309bcf470c241d48b01ddf3154633e59986a7cd4a1d0cbeecaa4d6e095"),
    "member": (75, "e354dd3fc9cec1805ac18d07e33399ffe053ee71c85d1f5546bbec2d7dcc12b0"),
    "lzero": (73, "75696b29af0b4bb4f83dd4d1848d87fdf2941ea0b5249fa52a7a0155d3b82751"),
    "escape": (73, "761324eeba59a7080ce473963a169a1b184e160be4821c596b0f935dbf16d42c"),
    "certify": (65, "ed395b1979ffdd3ad22c13436cbe5c3a58f08a5ee6add748ec247dba1953eba0"),
    "verify-cert": (77, "97768c2e0d18d4af6d9b35979705c97ab0dcb51c4fbf6a0cfc3bc1c3c26c8dec"),
    "moments": (61, "0498e7fb6b4e9e75b8046cf4bdfd6ef98d73db29c6eb0ebbbec08cd3a39c5cd4"),
    "vb-member": (60, "cd0d4ccd4579088686d9b92511a88ee6c5023629f79089a3bd05ac549b8f5da3"),
    "orthopoly": (61, "6f93412259439b44e03d99a34f4876fa5868e9575dd260782b6a951b5f4b8f15"),
    "equiv": (61, "dedeeade7e642e0d947831e9ba22ec083ddc7bef469c1c2f7e2997893e198f0a"),
    "mathieu": (61, "0bf21910cc8b77a5aa1af2cb3302e9d4155cdcc7beba29ef6dca22ec2c5d87e3"),
    "largest-ideal": (61, "f53d374fa4ffc2e813be851568bf30b0569ae238f140479cd079a2d05008da00"),
    "radical-probe": (79, "bf7910c6b6624602aca9fd14967ee44019d551a8f99255b0d73cc5805af72348"),
    "ufd-member": (61, "58d27b0fed9e4686b9c5ee9c0470a0e8efcc594e63f3cb2824902c505cbd4194"),
    "ufd-radical": (61, "731d489a5849b3b7b5f8dbf9ea3cea30d1d61142d77ae60ba1372417d75869c5"),
    "absorb-bound": (61, "53362b3cea18764a5d6d833592c69e93d9ba5fe58f33be592c102c79d2ed48fc"),
    "gcd-lift": (61, "716158556a5f4ad09fd7eb9de00f807043766d9cd98f7db6de0885cb79261e12"),
    "surjective": (61, "5e55a543937c21a7dfb5d0b21f35c4873b6d1de5e7eddfadc17ee4139f49b557"),
}


def test_cli_corpus_digests_are_pinned():
    assert cli_corpus.run() == CLI_CORPUS_DIGESTS


def test_only_declined_requests_reach_argparse(monkeypatch):
    # the option table's reader reads every corpus request but those with a
    # separate negative integer value, which argparse reads as a value and the
    # reader leaves to it; a reader that declined everything would still pass
    # every output test, so the shared parser's calls are counted
    parser = cli.build_parser()
    parse_args, seen = parser.parse_args, []
    monkeypatch.setattr(parser, "parse_args", lambda args: seen.append(args) or parse_args(args))
    cli_corpus.run()
    assert sorted({(argv[0], *argv[-2:]) for argv in seen}) == [
        ("moments", "--upto", "-1"), ("orthopoly", "--n", "-1")]
    assert len(seen) == 18
