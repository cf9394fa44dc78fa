import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import schurmix
import schurmix.cli as cli
import schurmix.mixed as mixed
from schurmix.mixed import VerificationReport, lhs, verify
from schurmix.partitions import bar_core
from schurmix.polyring import Polynomial

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_command(capsys):
    assert run_cli(capsys, "core", "-2") == (0, "7,3\n", "")
    assert run_cli(capsys, "core", "0") == (0, "\n", "")


def test_inverse_command(capsys):
    assert run_cli(capsys, "inverse", "--charge", "0") == (0, "\n", "")


def test_enumerate_command(capsys):
    assert run_cli(capsys, "enumerate", "--core", "3", "--ell", "7") == (0, "", "")


def test_enumerate_case_conflict(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--case", "one", "--core", "-2", "--ell", "1")
    assert code == 2
    assert err.startswith("error:")


def test_sign_command(capsys):
    assert run_cli(capsys, "sign", "15,13,9,4,1", "--core", "-4") == (0, "+1\n", "")


def test_schur_s_command(capsys):
    assert run_cli(capsys, "schur-s", "1,1") == (0, "1/2*t1^2 - t2\n", "")


def test_schur_json_output(capsys):
    code, out, _ = run_cli(capsys, "schur-q", "2,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {"coeff": "1/6", "mono": {"1": "3"}},
        {"coeff": "-2/1", "mono": {"3": "1"}},
    ]


def test_expand_text_builds_no_polynomial(capsys, monkeypatch):
    argv = ("expand", "--core", "-3", "--n", "3")
    expected = run_cli(capsys, *argv)
    for module in (cli, mixed):
        for name in ("schur_q", "schur_s"):
            monkeypatch.setattr(module, name, _refuse_to_build)
    monkeypatch.setattr(mixed, "sum_of_products", _refuse_to_build)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0 and len(expected[1].splitlines()) > 1


def test_expand_json(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--case", "one", "--m", "3", "--n", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "one"
    assert data["m"] == 3
    assert data["n"] == 2
    assert [t["mu"] for t in data["terms"]] == [
        "11,5,1", "10,6,1", "10,5,2", "9,7,1", "9,6,2", "9,5,3",
    ]
    first = data["terms"][0]
    assert first["sign"] == 1
    assert first["q0"] == ""
    assert first["q1"] == "1,1,1,1"
    assert first["value"]["terms"]
    assert data["total"]["terms"][0] == {"coeff": "1/2880", "mono": {"1": "8"}}


def test_expand_json_streams_the_whole_object(capsys):
    # expand --json writes one term at a time; the bytes match one json.dumps
    total, terms = lhs("zero", 3, 4)
    whole = {
        "case": "zero",
        "m": 3,
        "n": 4,
        "terms": [
            {
                "mu": t.mu.to_text(),
                "sign": t.sign,
                "q0": t.q0.to_text(),
                "q1": t.q1.to_text(),
                "value": t.value.to_json_obj(),
            }
            for t in terms
        ],
        "total": total.to_json_obj(),
    }
    code, out, _ = run_cli(capsys, "expand", "--case", "zero", "--m", "3", "--n", "4", "--json")
    assert code == 0
    assert len(terms) > 1
    assert out == json.dumps(whole) + "\n"


def test_verify_core_shorthand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--core", "-2", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert "case: zero" in lines
    assert "rectangle: 2x3" in lines
    assert lines[-1] == "equal: true"


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--core", "3", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["case"] == "one"
    assert data["core_index"] == 3
    assert data["n"] == 2
    assert data["difference"] == {"terms": []}
    assert data["lhs"] == data["rhs"]
    assert len(data["terms"]) == 6


def _verify_json_line(case, m, n):
    """verify --json's line built as one json.dumps of the whole object."""
    report = mixed.verify(case, m, n)
    obj = {
        "case": report.case,
        "core_index": report.core_index,
        "n": report.n,
        "equal": report.equal,
        "lhs": report.lhs.to_json_obj(),
        "rhs": report.rhs.to_json_obj(),
        "difference": report.difference.to_json_obj(),
        "terms": [cli._term_record(t) for t in report.terms],
    }
    return json.dumps(obj) + "\n", obj


def test_verify_json_is_the_dump_of_the_whole_object(capsys):
    for case, m, n in (("one", 3, 2), ("zero", 2, 3), ("zero", 0, 0), ("one", 2, 9)):
        code, out, _ = run_cli(capsys, "verify", "--case", case, "--m", str(m), "--n", str(n), "--json")
        assert code == 0
        assert out == _verify_json_line(case, m, n)[0], (case, m, n)


def test_verify_json_mismatch_writes_each_side(capsys, monkeypatch):
    # a rectangle off by t1: the sides differ, so each is written on its own
    rect_schur = mixed.rect_schur
    monkeypatch.setattr(mixed, "rect_schur", lambda a, b: rect_schur(a, b) + Polynomial.variable(1))
    code, out, _ = run_cli(capsys, "verify", "--case", "one", "--m", "3", "--n", "2", "--json")
    assert code == 1
    line, obj = _verify_json_line("one", 3, 2)
    assert out == line
    assert obj["equal"] is False
    assert obj["difference"] == {"terms": [{"coeff": "-1/1", "mono": {"1": "1"}}]}
    assert len({json.dumps(obj[k]) for k in ("lhs", "rhs", "difference")}) == 3


def test_equal_verify_json_serializes_the_shared_side_once(capsys, monkeypatch):
    # one to_json_text for both equal sides, one for the zero difference
    calls = []
    real = Polynomial.to_json_text

    def recording(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Polynomial, "to_json_text", recording)
    code, out, _ = run_cli(capsys, "verify", "--case", "one", "--m", "3", "--n", "2", "--json")
    assert code == 0
    assert [p.is_zero for p in calls] == [False, True]
    data = json.loads(out)
    assert data["equal"] is True and data["lhs"] == data["rhs"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_verify(case, m, n):
        one = Polynomial.one()
        return VerificationReport(
            case=case,
            core_index=m,
            n=n,
            lhs=one,
            rhs=Polynomial.zero(),
            equal=False,
            difference=one,
            terms=(),
        )

    monkeypatch.setattr(cli, "verify", fake_verify)
    code, out, _ = run_cli(capsys, "verify", "--case", "one", "--m", "1", "--n", "1")
    assert code == 1
    assert out.splitlines()[-1] == "equal: false"


def test_verify_all_command(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--max-m", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all: 20 checks, all equal"
    assert "one m=1 n=2 equal=true" in lines
    assert "zero m=0 n=0 equal=true" in lines


def test_verify_all_counts_a_failed_check(capsys, monkeypatch):
    def one_unequal(case, m, n):
        report = verify(case, m, n)
        if (case, m, n) == ("zero", 1, 2):
            return report._replace(equal=False)
        return report

    monkeypatch.setattr(cli, "verify", one_unequal)
    code, out, _ = run_cli(capsys, "verify-all", "--max-m", "2")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.endswith("equal=false")] == ["zero m=1 n=2 equal=false"]
    assert lines[-1] == "all: 36 checks, 1 failed"


def test_verify_all_empty_sweep_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-all", "--max-m", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _refuse_to_build(*args):
    raise AssertionError("the input limits must be checked before building")


TOP_PART = 4 * cli.MAX_CORE_INDEX

# (argv, limit) rows, one group per command family; every row must be
# refused before any of BUILDERS runs
OVERSIZED = {
    "weight": [
        (["schur-s", "1500"], cli.MAX_WEIGHT),
        (["schur-s", ",".join(["1"] * 43)], cli.MAX_WEIGHT),
        (["schur-q", "30,13"], cli.MAX_WEIGHT),
        (["expand", "--core", "22", "--n", "1"], cli.MAX_WEIGHT),
        (["verify", "--case", "one", "--m", "12", "--n", "6"], cli.MAX_WEIGHT),
        (["verify-all", "--max-m", "7"], cli.MAX_WEIGHT),
        # an empty rectangle has weight 0, so only the core limit stops these
        (["verify", "--core", "200000", "--n", "0"], cli.MAX_CORE_INDEX),
        (["expand", "--case", "zero", "--m", "5000", "--n", "0"], cli.MAX_CORE_INDEX),
    ],
    "core and enumerate": [
        (["core", "3000000"], cli.MAX_CORE_INDEX),
        (["core", "-1001"], cli.MAX_CORE_INDEX),
        (["enumerate", "--core", "30", "--ell", "20"], cli.MAX_ENUMERATE_CORE),
        (["enumerate", "--core", "-11", "--ell", "1"], cli.MAX_ENUMERATE_CORE),
        (["enumerate", "--core", "2", "--ell", "1000000000"], cli.MAX_ENUMERATE_ELL),
    ],
    "fock-check": [
        (["fock-check", "--core", "-11", "--ell", "1"], cli.MAX_ENUMERATE_CORE),
        (["fock-check", "--core", "30", "--ell", "0"], cli.MAX_ENUMERATE_CORE),
        (["fock-check", "--core", "-10", "--ell", "22"], cli.MAX_ENUMERATE_ELL),
        (["fock-check", "--core", "2", "--ell", "1000000000"], cli.MAX_ENUMERATE_ELL),
    ],
    "quotient, inverse and abacus": [
        (["quotient", "12000003"], TOP_PART),
        (["quotient", f"{TOP_PART + 1},2"], TOP_PART),
        (["abacus", str(TOP_PART + 2), "--core", "0"], TOP_PART),
        (["sign", f"{TOP_PART + 1},2", "--core", "0"], TOP_PART),
        (["sign", ",".join(map(str, range(18000, 0, -1))), "--core", "0"], TOP_PART),
        (["inverse", "--charge", "3000000"], cli.MAX_CORE_INDEX),
        (["inverse", "--charge", str(-cli.MAX_CORE_INDEX - 1), "--q0", "3,1"], cli.MAX_CORE_INDEX),
    ],
}

BUILDERS = (
    "schur_s",
    "schur_q",
    "lhs",
    "expansion_terms",
    "verify",
    "bar_core",
    "add_set",
    "lemma_co_sides",
    "quotient",
    "inverse_quotient",
    "abacus",
    "delta_sign",
)


def assert_refused(capsys, monkeypatch, group):
    """Each row of OVERSIZED[group] exits 2 with its limit and builds nothing."""
    for name in BUILDERS:
        monkeypatch.setattr(cli, name, _refuse_to_build)
    for argv, limit in OVERSIZED[group]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and f"limit of {limit}" in err, argv


def test_oversized_input_is_usage_error(capsys, monkeypatch):
    assert_refused(capsys, monkeypatch, "weight")


def test_oversized_core_and_enumerate_are_usage_errors(capsys, monkeypatch):
    assert_refused(capsys, monkeypatch, "core and enumerate")


def test_oversized_fock_check_is_a_usage_error(capsys, monkeypatch):
    assert_refused(capsys, monkeypatch, "fock-check")


def test_oversized_quotient_inverse_and_abacus_are_usage_errors(capsys, monkeypatch):
    assert_refused(capsys, monkeypatch, "quotient, inverse and abacus")


def test_quotient_inverse_and_abacus_limits_lose_no_core(capsys):
    for charge in (cli.MAX_CORE_INDEX, -cli.MAX_CORE_INDEX):
        # with empty q0 and q1, inverse rebuilds the core with index --charge
        code, out, _ = run_cli(capsys, "inverse", "--charge", str(charge))
        assert code == 0 and out == bar_core(charge).to_text() + "\n"
        code, out, _ = run_cli(capsys, "quotient", out.strip())
        assert code == 0 and out.splitlines()[0] == f"charge: {charge}"
    code, out, _ = run_cli(capsys, "abacus", str(4 * cli.MAX_CORE_INDEX), "--core", "0")
    assert code == 0 and f"[{4 * cli.MAX_CORE_INDEX}]" in out
    code, out, _ = run_cli(capsys, "sign", str(4 * cli.MAX_CORE_INDEX), "--core", "0")
    assert code == 0 and out == "+1\n"


def test_core_and_enumerate_limits_lose_no_result(capsys):
    code, out, _ = run_cli(capsys, "core", str(-cli.MAX_CORE_INDEX))
    assert code == 0 and len(out.split(",")) == cli.MAX_CORE_INDEX
    # the largest admitted core still has a result at the largest admitted ell
    core, ell = -cli.MAX_ENUMERATE_CORE, cli.MAX_ENUMERATE_ELL
    code, out, _ = run_cli(capsys, "enumerate", "--core", str(core), "--ell", str(ell))
    assert code == 0 and len(out.splitlines()) == 1


def test_weight_limit_admits_benchmark_calls(capsys, monkeypatch):
    def fake_verify(case, m, n):
        zero = Polynomial.zero()
        return VerificationReport(case, m, n, zero, zero, True, zero, ())

    monkeypatch.setattr(cli, "verify", fake_verify)
    monkeypatch.setattr(cli, "schur_s", lambda lam: Polynomial.one())
    # the largest rectangles the benchmark verifies: 6x5, 8x4 and 9x3
    for case, m, n in (("zero", 5, 6), ("one", 6, 4), ("one", 6, 3)):
        assert run_cli(capsys, "verify", "--case", case, "--m", str(m), "--n", str(n))[0] == 0
    assert run_cli(capsys, "verify-all", "--max-m", "5")[0] == 0
    assert run_cli(capsys, "verify-all", "--max-m", "6")[0] == 0
    # the largest admitted cores, with an empty rectangle of weight 0
    for core in (cli.MAX_CORE_INDEX, -cli.MAX_CORE_INDEX):
        assert run_cli(capsys, "verify", "--core", str(core), "--n", "0")[0] == 0
    assert run_cli(capsys, "schur-s", ",".join(["1"] * cli.MAX_WEIGHT))[0] == 0


def test_largest_empty_rectangles_verify_quickly(capsys):
    # Both addition sets sit at the top of a window of 2001 or 2002 nodes; the
    # unpruned search did not finish such calls from m = 18 on.
    for case, n, rectangle in (("one", "2000", "0x2000"), ("zero", "2001", "2001x0")):
        code, out, _ = run_cli(capsys, "verify", "--case", case, "--m", "1000", "--n", n)
        assert code == 0
        assert f"rectangle: {rectangle}\n" in out
        assert out.endswith("terms: 1\nequal: true\n")


def run_python(*args):
    """Run a fresh interpreter with this checkout's schurmix importable."""
    src = str(Path(schurmix.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_module_entry_point():
    done = run_python("-m", "schurmix.cli", "core", "3")
    assert done.returncode == 0
    assert done.stdout == "9,5,1\n"


def test_cli_import_stays_light():
    # every CLI call pays for these at start-up, and none of them is needed
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    done = run_python(
        "-S", "-c", f"import sys, schurmix.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def readme_examples():
    """(argv, expected stdout) for each `$ schurmix ...` line in the README's
    "Command line" block."""
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    examples = []
    for chunk in block.split("$ schurmix ")[1:]:
        command, _, output = chunk.partition("\n")
        examples.append((shlex.split(command), output.rstrip("\n") + "\n"))
    return examples


def test_readme_examples(capsys):
    examples = readme_examples()
    assert len(examples) == 12
    for argv, expected in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        if expected.startswith("...\n"):
            # Elided sweep: only the summary line is shown.
            assert out.splitlines()[-1] == expected[4:-1], argv
        else:
            assert out == expected, argv


def test_readme_library_block(capsys):
    block = README.read_text().split("## Library", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    # each commented line maps its statement to the text of its comment
    comments = dict(
        (part.strip() for part in line.split("# ", 1)) for line in code.splitlines() if "# " in line
    )
    namespace = {}
    exec(code, namespace)
    assert repr(namespace["core"]) == comments["core = bar_core(-2)"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == comments["print(tri.charge, tri.q0, tri.q1)"]


def test_core_index_zero_keeps_both_cases(capsys):
    assert run_cli(capsys, "enumerate", "--core", "0", "--ell", "1") == (0, "", "")
    code, out, _ = run_cli(capsys, "enumerate", "--case", "zero", "--core", "0", "--ell", "1")
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "verify", "--core", "0", "--n", "1")
    assert code == 0
    assert {"case: one", "rectangle: -1x1", "terms: 0"} <= set(out.splitlines())
    code, out, _ = run_cli(capsys, "verify", "--case", "zero", "--core", "0", "--n", "1")
    assert code == 0
    assert {"case: zero", "rectangle: 1x0", "terms: 1"} <= set(out.splitlines())
    code, out, _ = run_cli(capsys, "fock-check", "--case", "zero", "--core", "0", "--ell", "1")
    assert code == 0
    assert out.splitlines() == [
        "case: zero",
        "core: 0",
        "ell: 1",
        "divided-power side:",
        "  1: sqrt2",
        "weighted-sum side:",
        "  1: sqrt2",
        "equal: true",
    ]


def test_bad_partition_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "quotient", "3,3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad partition '3,3'")


def test_conflicting_flags(capsys):
    code, _, err = run_cli(capsys, "verify", "--core", "3", "--m", "3", "--n", "1")
    assert code == 2
    assert "not both" in err
    code, _, err = run_cli(capsys, "verify", "--case", "zero", "--core", "3", "--n", "1")
    assert code == 2
    assert "case zero" in err
    code, _, err = run_cli(capsys, "verify", "--n", "1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "verify", "--m", "3", "--n", "2")
    assert code == 2
    assert err == "error: missing --case\n"
    # a negative m is refused by its own message, before any rectangle or core limit
    code, _, err = run_cli(capsys, "verify", "--case", "zero", "--m", "-3", "--n", "1")
    assert code == 2
    assert err == "error: m must be >= 0, got -3\n"


def test_unknown_flag(capsys):
    code, _, err = run_cli(capsys, "core", "3", "--frobnicate")
    assert code == 2
    assert err.startswith("error:")


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "expand", "--case", "zero", "--m", "2", "--n", "3", "--json")
    second = run_cli(capsys, "expand", "--case", "zero", "--m", "2", "--n", "3", "--json")
    assert first == second


def _declared(parser):
    """(option strings or dest, required, default, choices, type) of each
    argument but --help, in declaration order; the help text is not pinned,
    since its layout differs across Python versions."""
    return [
        (
            "/".join(a.option_strings) or a.dest,
            a.required,
            a.default,
            None if a.choices is None else list(a.choices),
            a.type,
        )
        for a in parser._actions
        if a.dest != "help"
    ]


def test_declared_interface():
    partition = ("partition", True, None, None, None)
    case = ("--case", False, None, ["zero", "one"], None)
    core = ("--core", True, None, None, int)
    json_flag = ("--json", False, False, None, None)
    addition_set = [case, core, ("--ell", True, None, None, int)]
    rectangle = [
        case,
        ("--m", False, None, None, int),
        ("--core", False, None, None, int),
        ("--n", True, None, None, int),
        json_flag,
    ]
    expected = {
        "core": [("m", True, None, None, int)],
        "quotient": [partition],
        "inverse": [
            ("--charge", True, None, None, int),
            ("--q0", False, "", None, None),
            ("--q1", False, "", None, None),
        ],
        "enumerate": addition_set,
        "sign": [partition, core],
        "abacus": [partition, core],
        "schur-s": [partition, ("--t2", False, False, None, None), json_flag],
        "schur-q": [partition, json_flag],
        "expand": rectangle,
        "verify": rectangle,
        "verify-all": [("--max-m", True, None, None, int)],
        "fock-check": addition_set,
    }
    parser = cli.build_parser()
    assert parser.prog == "schurmix"
    assert _declared(parser) == [("command", True, None, list(expected), None)]
    commands = parser._actions[-1].choices
    for name, arguments in expected.items():
        assert commands[name].prog == f"schurmix {name}"
        assert _declared(commands[name]) == arguments, name
        assert commands[name].get_default("func") is getattr(cli, "cmd_" + name.replace("-", "_"))
