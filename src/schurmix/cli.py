"""Command line interface; every subcommand wraps one library entry point.

Exit codes: 0 when the requested check holds (or plain output succeeded),
1 when a verified identity fails, 2 on invalid input.

Commands that build S- or Q-polynomials refuse, with exit 2, any input whose
weight exceeds MAX_WEIGHT, before building anything: the partition's weight
for schur-s and schur-q, the rectangle's rows*cols for expand and verify, and
the largest rectangle of the sweep for verify-all.  In the same way core,
expand and verify refuse a core index beyond MAX_CORE_INDEX (an empty
rectangle has weight 0 whatever the core), inverse a --charge beyond it,
quotient, abacus and sign a largest part above 4 * MAX_CORE_INDEX (no part of
an admitted core is larger), and enumerate and fock-check a core index beyond
MAX_ENUMERATE_CORE or a node count above MAX_ENUMERATE_ELL.
Library calls have no limit but polyring's slot guard (weight below 256).
"""

from __future__ import annotations

import argparse
import json
import sys

from .barquot import abacus, delta_sign, quotient, inverse_quotient, render_abacus
from .fock import lemma_co_sides
from .mixed import expansion_terms, lhs, resolve_case, verify
from .partitions import CASES, Partition, StrictPartition, add_set, bar_core, case_color, check_color
from .polyring import shift2
from .schur import schur_q, schur_s


# Measured once on a 2-vCPU Xeon host (Python 3.11.7, cold processes), weight
# 42 took 0.65 s for verify --json of the 6x7 rectangle (28860 terms; writing
# its JSON took 0.09 s of that) and 0.82 s for schur-s of a shape such as
# 8,7,7,6,5,4,3,2, and verify-all --max-m 6, whose largest rectangle is that
# 6x7, 1.4 s at a peak RSS of 52 MB; the host's speed drifts by tens of
# percent.  The cost grows with the number of partitions of the weight.
# The README examples and the benchmark's calls all have weight 32 or less.
MAX_WEIGHT = 42

# core prints the |m| parts of the core with index m on one line, and inverse
# with empty q0 and q1 prints the core with index --charge.  quotient and
# abacus take time and output linear in the largest part, sign time linear
# in the number of parts.
MAX_CORE_INDEX = 1000

# enumerate prints the addition set one partition at a time, so these limits
# bound its output and time.  Its size peaks near ell = |core|: on the same
# host, with start-up, 17303 partitions in 0.1 s for core -10, 143365 in
# 0.5 s for core -12 and 414584 in 1.5 s for core -13.  A core with index m
# takes at most 2|m| + 1 nodes of its color, so no larger ell has a result.
# fock-check prints the same addition set twice, with a coefficient each, so
# it shares these limits; its slowest admitted inputs, core -10 at ell 11 to
# 13, took 0.8 s each on the same host.
MAX_ENUMERATE_CORE = 10
MAX_ENUMERATE_ELL = 2 * MAX_ENUMERATE_CORE + 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _partition(text, strict=False):
    cls = StrictPartition if strict else Partition
    try:
        return cls.from_text(text)
    except ValueError as err:
        raise ValueError(f"bad partition {text!r}: {err}") from None


def _resolve_case(case, core, m):
    """Case name and m from either --core (signed, the case optional) or --case and --m."""
    if core is not None and m is not None:
        raise ValueError("give either --core or --m, not both")
    if core is not None:
        case = CASES[core >= 0] if case is None else case
        check_color(case_color(case), core)
        return case, abs(core)
    if m is None:
        raise ValueError("missing --core or --m")
    if case is None:
        raise ValueError("missing --case")
    return case, m


def _check_weight(weight, what):
    if weight > MAX_WEIGHT:
        raise ValueError(f"{what} has weight {weight}, over the limit of {MAX_WEIGHT}")


def _check_limit(what, size, limit):
    if size > limit:
        raise ValueError(f"{what} is over the limit of {limit}")


def _check_rect(case, m, n, what="rectangle"):
    """The rectangle's text, refusing a core index over MAX_CORE_INDEX or a
    rectangle of weight over MAX_WEIGHT.  An empty rectangle has weight 0
    whatever the core, so the core needs its own limit."""
    _, core_index, (rows, cols) = resolve_case(case, m, n)
    _check_limit(f"core index {core_index}", m, MAX_CORE_INDEX)
    text = f"{rows}x{cols}"
    _check_weight(max(rows, 0) * max(cols, 0), f"{what} {text}")
    return text


def _term_record(t):
    return {
        "mu": t.mu.to_text(),
        "sign": t.sign,
        "q0": t.q0.to_text(),
        "q1": t.q1.to_text(),
    }


def _print_poly(poly, as_json):
    if as_json:
        print(poly.to_json_text())
    else:
        print(poly.pretty())


def cmd_core(ns):
    _check_limit(f"core index {ns.m}", abs(ns.m), MAX_CORE_INDEX)
    print(bar_core(ns.m).to_text())
    return 0


def _bounded_strict(text):
    """Strict partition argument of quotient, abacus or sign, refusing a large part."""
    lam = _partition(text, strict=True)
    top = max(lam.parts, default=0)
    _check_limit(f"largest part {top}", top, 4 * MAX_CORE_INDEX)
    return lam


def cmd_quotient(ns):
    tri = quotient(_bounded_strict(ns.partition))
    print(f"charge: {tri.charge}")
    print(f"q0: {tri.q0.to_text()}")
    print(f"q1: {tri.q1.to_text()}")
    return 0


def cmd_inverse(ns):
    _check_limit(f"--charge {ns.charge}", abs(ns.charge), MAX_CORE_INDEX)
    lam = inverse_quotient(
        ns.charge,
        _partition(ns.q0, strict=True),
        _partition(ns.q1),
    )
    print(lam.to_text())
    return 0


def _check_addition_set(ns):
    """Color of an enumerate or fock-check call, refusing an oversized core or --ell."""
    case, _ = _resolve_case(ns.case, ns.core, None)
    _check_limit(f"core index {ns.core}", abs(ns.core), MAX_ENUMERATE_CORE)
    _check_limit(f"--ell {ns.ell}", ns.ell, MAX_ENUMERATE_ELL)
    return case_color(case)


def cmd_enumerate(ns):
    i = _check_addition_set(ns)
    for mu in add_set(bar_core(ns.core), i, ns.ell):
        print(mu.to_text())
    return 0


def cmd_sign(ns):
    value = delta_sign(_bounded_strict(ns.partition), ns.core)
    print(f"{value:+d}")
    return 0


def cmd_abacus(ns):
    print(render_abacus(abacus(_bounded_strict(ns.partition), ns.core)))
    return 0


def cmd_schur_s(ns):
    lam = _partition(ns.partition)
    _check_weight(lam.weight, f"partition {lam}")
    poly = schur_s(lam)
    if ns.t2:
        poly = shift2(poly)
    _print_poly(poly, ns.json)
    return 0


def cmd_schur_q(ns):
    lam = _partition(ns.partition, strict=True)
    _check_weight(lam.weight, f"partition {lam}")
    _print_poly(schur_q(lam), ns.json)
    return 0


def cmd_expand(ns):
    case, m = _resolve_case(ns.case, ns.core, ns.m)
    _check_rect(case, m, ns.n)
    if ns.json:
        total, terms = lhs(case, m, ns.n)
        # Written piece by piece, one term's value at a time, and byte for byte
        # the json.dumps of the whole object; each polynomial is spliced in as
        # its to_json_text.
        head = json.dumps({"case": case, "m": m, "n": ns.n})
        print(head[:-1] + ', "terms": [', end="")
        for k, t in enumerate(terms):
            record = json.dumps(_term_record(t))[:-1]
            print(", " if k else "", f'{record}, "value": {t.value.to_json_text()}}}', sep="", end="")
        print('], "total": ' + total.to_json_text() + "}")
    else:
        for t in expansion_terms(case, m, ns.n):
            mark = "+" if t.sign > 0 else "-"
            print(f"{mark} mu={t.mu.to_text()} q0={t.q0.to_text()} q1={t.q1.to_text()}")
    return 0


def cmd_verify(ns):
    case, m = _resolve_case(ns.case, ns.core, ns.m)
    rectangle = _check_rect(case, m, ns.n)
    report = verify(case, m, ns.n)
    if ns.json:
        # Equal sides are one polynomial, encoded once for both slots; the
        # line is byte for byte the json.dumps of the whole object.
        left = report.lhs.to_json_text()
        right = left if report.equal else report.rhs.to_json_text()
        difference = report.difference.to_json_text()
        head = json.dumps(
            {"case": report.case, "core_index": report.core_index, "n": report.n, "equal": report.equal}
        )
        terms = json.dumps([_term_record(t) for t in report.terms])
        print(f'{head[:-1]}, "lhs": {left}, "rhs": {right}, "difference": {difference}, "terms": {terms}}}')
    else:
        print(f"case: {case}")
        print(f"m: {m}")
        print(f"n: {ns.n}")
        print(f"core: {report.core_index}")
        print(f"rectangle: {rectangle}")
        print(f"terms: {len(report.terms)}")
        print(f"equal: {'true' if report.equal else 'false'}")
    return 0 if report.equal else 1


def cmd_verify_all(ns):
    if ns.max_m < 0:
        raise ValueError(f"--max-m must be >= 0, got {ns.max_m}; the sweep would be empty")
    # The largest rectangle of the sweep is color 0 at m = n = max_m, with
    # weight max_m * (max_m + 1); color 1 peaks at max_m^2.
    _check_rect("zero", ns.max_m, ns.max_m, "the sweep's largest rectangle")
    failures = 0
    checks = 0
    for case in ("one", "zero"):
        for m in range(ns.max_m + 1):
            for n in range(2 * m + 4):
                report = verify(case, m, n)
                checks += 1
                if not report.equal:
                    failures += 1
                print(f"{case} m={m} n={n} equal={'true' if report.equal else 'false'}")
    if failures:
        print(f"all: {checks} checks, {failures} failed")
        return 1
    print(f"all: {checks} checks, all equal")
    return 0


def cmd_fock_check(ns):
    i = _check_addition_set(ns)
    left, right = lemma_co_sides(i, ns.core, ns.ell)
    print(f"case: {CASES[i]}")
    print(f"core: {ns.core}")
    print(f"ell: {ns.ell}")
    print("divided-power side:")
    for lam, coeff in left.items():
        print(f"  {lam.to_text()}: {coeff}")
    print("weighted-sum side:")
    for lam, coeff in right.items():
        print(f"  {lam.to_text()}: {coeff}")
    equal = left == right
    print(f"equal: {'true' if equal else 'false'}")
    return 0 if equal else 1


def build_parser():
    parser = _Parser(prog="schurmix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    # Each flag group that several commands share is declared once, as a
    # parent parser whose arguments keep their place in each command.
    partition = _Parser(add_help=False)
    partition.add_argument("partition")
    partition_core = _Parser(add_help=False, parents=[partition])
    partition_core.add_argument("--core", type=int, required=True)
    addition_set = _Parser(add_help=False)
    addition_set.add_argument("--case", choices=CASES)
    addition_set.add_argument("--core", type=int, required=True)
    addition_set.add_argument("--ell", type=int, required=True)
    rectangle = _Parser(add_help=False)
    rectangle.add_argument("--case", choices=CASES)
    rectangle.add_argument("--m", type=int)
    rectangle.add_argument("--core", type=int)
    rectangle.add_argument("--n", type=int, required=True)
    rectangle.add_argument("--json", action="store_true")

    p = command("core", cmd_core, "print the core partition with a given index")
    p.add_argument("m", type=int)
    command("quotient", cmd_quotient, "charge and quotient pair of a strict partition", partition)
    p = command("inverse", cmd_inverse, "rebuild a strict partition from quotient data")
    p.add_argument("--charge", type=int, required=True)
    p.add_argument("--q0", default="")
    p.add_argument("--q1", default="")
    command("enumerate", cmd_enumerate, "node addition set of a core", addition_set)
    command("sign", cmd_sign, "bead pair sign of a strict partition", partition_core)
    command("abacus", cmd_abacus, "render the three runner abacus", partition_core)
    p = command("schur-s", cmd_schur_s, "S-polynomial of a partition", partition)
    p.add_argument("--t2", action="store_true", help="substitute tj -> t2j")
    p.add_argument("--json", action="store_true")
    p = command("schur-q", cmd_schur_q, "Q-polynomial of a strict partition", partition)
    p.add_argument("--json", action="store_true")
    command("expand", cmd_expand, "list the signed Q*S terms of an expansion", rectangle)
    command("verify", cmd_verify, "check one expansion identity", rectangle)
    p = command("verify-all", cmd_verify_all, "sweep both cases up to a core bound")
    p.add_argument("--max-m", type=int, required=True)
    command("fock-check", cmd_fock_check, "compare the divided power expansion", addition_set)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
