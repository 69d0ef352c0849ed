import contextlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frey2.classify as classify_mod
import frey2.pipelines as pipelines_mod
from frey2 import cli
from frey2.cli import (
    EXIT_ASSERTION,
    EXIT_DEGENERATE,
    EXIT_NOT_COVERED,
    EXIT_OK,
    EXIT_USAGE,
    GRID_SIGNATURES,
    PIPELINE_NAMES,
    generate_table,
    main,
    parse_r_range,
)
from frey2.errors import FieldTooLarge, NonIntegral, NotOddPrime, ValuationAmbiguous

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_TABLE = GOLDEN / "table_r3-7.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_r_range():
    assert parse_r_range("3..7") == [3, 5, 7]
    assert parse_r_range("5") == [5]
    from frey2.cli import CliError

    with pytest.raises(CliError):
        parse_r_range("4..5")
    with pytest.raises(CliError):
        parse_r_range("3..23")
    assert parse_r_range("7..7") == [7]
    for text in ("7..3", "19..3", "5..3"):
        with pytest.raises(CliError):
            parse_r_range(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--r", "7..3"],
        ["table", "--r", "7..3"],
        ["table", "--r", "3", "--grid-exponents", "5..3"],
    ],
)
def test_descending_range_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: descending")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--signature", "ppr-even", "--r", "3", "--t", "1e5000"],
        ["table", "--r", "3", "--grid-exponents", "14300..14300"],
        ["reduce", "--pipeline", "odd-good", "--z", "1e500", "--s", "7/4", "--r", "19"],
    ],
    ids=["classify", "table", "reduce"],
)
def test_input_too_large_to_print_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: --")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--signature", "ppr-even", "--r", "3", "--t", "1e100000000"],
        ["classify", "--signature", "ppr-even", "--r", "3", "--t=-2.5E-100000000"],
        ["reduce", "--pipeline", "odd-good", "--z", "7e1_000_000", "--s", "7/4", "--r", "19"],
        ["reduce", "--pipeline", "odd-good", "--z", "1", "--s", "3e-100000", "--r", "19"],
    ],
    ids=["t", "t-negative-exponent", "z", "s-negative-exponent"],
)
def test_large_exponent_is_refused_before_it_is_expanded(capsys, monkeypatch, argv):
    real = cli.Fraction

    def unexpanded(*args):
        if isinstance(args[0], str) and "e" in args[0].lower():
            raise AssertionError(f"Fraction({args[0]!r}) was called")
        return real(*args)

    monkeypatch.setattr(cli, "Fraction", unexpanded)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert re.fullmatch(r"usage error: --[tzs] needs a numerator and denominator "
                        r"of at most \d+ digits\n", err)


def test_negative_grid_range_names_the_equals_form(capsys):
    code, out, err = run(capsys, "table", "--r", "3", "--grid-exponents", "-14285..3")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1
    assert "--grid-exponents=LO..HI" in err


@pytest.mark.parametrize(
    "argv",
    [
        # numerators and denominators of 215 and 390 digits
        ["classify", "--signature", "rrp", "--r", "19", "--t", f"{2**714}/{10**215 - 1}",
         "--oracle-check"],
        ["table", "--r", "3", "--grid-exponents", "14284..14284"],
        ["reduce", "--pipeline", "odd-good", "--z", str(10**390 - 1), "--s", f"1/{2**1294}",
         "--r", "19"],
    ],
    ids=["classify", "table", "reduce"],
)
def test_largest_accepted_input_prints(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert max(len(n) for n in re.findall(r"\d+", out)) > 3800


def test_verify_exit_zero_with_documented_mismatches(capsys):
    code, out, _ = run(capsys, "verify", "--r", "3..5")
    assert code == EXIT_OK
    assert "DOCUMENTED-MISMATCH" in out
    assert "0 failures" in out


def test_verify_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--r", "4..5")
    assert code == EXIT_USAGE
    assert "odd prime" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--r", "3", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["failures"] == 0
    statuses = {c["check"]: c["status"] for c in doc["checks"] if c["r"] in (3, None)}
    assert statuses["identity f+2 = (x+2)h(-x)^2"] == "pass"
    assert statuses["identity f-2 = (x-2)h(-x)^2 (printed form)"] == "documented-mismatch"
    assert statuses["closed-form discriminant C_plus"] == "documented-mismatch"
    assert statuses["closed-form discriminant C_zs"] == "pass"


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--signature", "ppr-even", "--r", "5", "--t", "1/32",
        "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["conductor_exponent"] == 0
    assert doc["t"] == "1/32"
    assert doc["signature"] == "ppr-even"


def test_classify_degenerate_exit(capsys):
    code, _, err = run(capsys, "classify", "--signature", "35p", "--t", "1")
    assert code == EXIT_DEGENERATE
    assert "degenerate" in err


def test_classify_not_covered_exit(capsys):
    code, out, _ = run(capsys, "classify", "--signature", "rrp", "--r", "3", "--t", "6")
    assert code == EXIT_NOT_COVERED
    assert "not_covered" in out


def test_classify_oracle_mode(capsys):
    code, out, _ = run(
        capsys, "classify", "--signature", "ppr-odd", "--r", "3", "--t", "1/16",
        "--mode", "oracle", "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["conductor_exponent"] == 0


def test_reduce_35p_vneg(capsys):
    code, out, _ = run(capsys, "reduce", "--pipeline", "35p-vneg")
    assert code == EXIT_OK
    assert "y^2 + y*(x^3 + 1) = x + 1" in out
    assert "nodal, 2 node(s)" in out


def test_reduce_odd_good(capsys):
    code, out, _ = run(
        capsys, "reduce", "--pipeline", "odd-good", "--z", "1", "--s", "7/4", "--r", "3"
    )
    assert code == EXIT_OK
    assert "y^2 + y = x^3 - 3*x - 2" in out
    assert "discriminant valuation: 0" in out


def test_reduce_ppr_even_vneg(capsys):
    code, out, _ = run(capsys, "reduce", "--pipeline", "ppr-even-vneg", "--r", "5")
    assert code == EXIT_OK
    assert "smooth" in out


def test_reduce_odd_good_not_covered(capsys):
    code, _, err = run(
        capsys, "reduce", "--pipeline", "odd-good", "--z", "1", "--s", "1", "--r", "3"
    )
    assert code == EXIT_NOT_COVERED


def test_reduce_unknown_pipeline(capsys):
    code, _, err = run(capsys, "reduce", "--pipeline", "bogus")
    assert code == EXIT_USAGE


def test_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "table", "--r", "3", "--grid-exponents", "4..7", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) == out.rstrip("\n")


def test_table_deterministic(capsys):
    a = run(capsys, "table", "--r", "3", "--grid-exponents=-5..7")
    b = run(capsys, "table", "--r", "3", "--grid-exponents=-5..7")
    assert a == b
    assert a[0] == EXIT_OK


def test_table_conflicts_annotated(capsys):
    code, out, _ = run(
        capsys, "table", "--r", "3", "--grid-exponents=-7..4", "--format", "json"
    )
    doc = json.loads(out)
    conflicts = [r for r in doc["rows"] if r.get("conflict")]
    assert conflicts, "expected ppr-odd printed-vs-oracle conflicts on this grid"
    assert all(r["signature"] == "ppr-odd" for r in conflicts)
    non_odd = [r for r in doc["rows"] if r["signature"] != "ppr-odd" and "oracle_agrees" in r]
    assert non_odd and all(r["oracle_agrees"] for r in non_odd)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "classify", "--signature", "rrp", "--r", "3", "--t", "16",
        "--format", "json", "--out", str(path),
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(path.read_text())["conductor_exponent"] == 0


def test_out_file_that_cannot_be_written(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "verify", "--r", "3", "--out", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: cannot write") and err.count("\n") == 1


def test_generate_table_grid_exponent_listing():
    rows = generate_table([3], -9, 9, with_oracle=False)
    ppr_even = [r for r in rows if r["signature"] == "ppr-even"]
    vals = sorted({r["valuation"] for r in ppr_even})
    assert vals == [v for v in range(-9, 10) if v != 0]


@pytest.mark.parametrize("z, s", [("1", "0"), ("0", "1")])
def test_reduce_odd_good_zero_parameter_not_covered(capsys, z, s):
    code, _, err = run(
        capsys, "reduce", "--pipeline", "odd-good", "--z", z, "--s", s, "--r", "3"
    )
    assert code == EXIT_NOT_COVERED
    assert err.startswith("not covered:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify", "--signature", "35p", "--t", "3", "--oracle-check"], EXIT_OK),
        (["bogus"], EXIT_USAGE),
        (["classify", "--signature", "ppr-even", "--r", "4", "--t", "1/2"], EXIT_USAGE),
        (["classify", "--signature", "ppr-even", "--r", "3", "--t", "x"], EXIT_USAGE),
        (["table", "--r", "3", "--grid-exponents", "a..b"], EXIT_USAGE),
        (["classify", "--signature", "35p", "--t", "0"], EXIT_DEGENERATE),
        (["classify", "--signature", "rrp", "--r", "3", "--t", "6", "--oracle-check"],
         EXIT_NOT_COVERED),
    ],
)
def test_exit_code_contract(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code in range(5)
    assert code == expected
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error, expected",
    [
        (NotOddPrime("r = 9 is not an odd prime"), EXIT_USAGE),
        (FieldTooLarge("needs GF(2^18)"), EXIT_ASSERTION),
        (ValuationAmbiguous("two terms tie\nat w = 1"), EXIT_ASSERTION),
        (NonIntegral("element of valuation -1 has no residue"), EXIT_ASSERTION),
    ],
)
def test_escaping_errors_map_to_exit_codes(monkeypatch, capsys, error, expected):
    def boom(args):
        raise error

    monkeypatch.setattr(cli, "run_classify", boom)
    code, _, err = run(capsys, "classify", "--signature", "35p", "--t", "3")
    assert code == expected
    assert "Traceback" not in err
    assert err.count("\n") == 1


def test_internal_contradiction_exits_4(monkeypatch, capsys):
    real = classify_mod.field_of_definition
    monkeypatch.setattr(
        classify_mod, "field_of_definition", lambda z, s, r: not real(z, s, r)
    )
    code, _, err = run(
        capsys, "classify", "--signature", "ppr-odd", "--r", "3", "--t", "1/16",
        "--oracle-check",
    )
    assert code == EXIT_ASSERTION
    assert err.startswith("assertion failure: internal contradiction")


def test_table_json_matches_golden(tmp_path):
    """`frey2 table --r 3..7 --format json` stays byte-identical."""
    path = tmp_path / "table.json"
    assert main(["table", "--r", "3..7", "--format", "json", "--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == GOLDEN_TABLE.read_bytes()


# (golden file, argv): each file is the command's output at the commit that
# introduced it, so a refactor that changes a byte of the JSON fails here
CLI_GOLDENS = [
    ("table_r11-19.json", ["table", "--r", "11..19"]),
    ("verify_r3-7.json", ["verify", "--r", "3..7"]),
    ("verify_r11-19.json", ["verify", "--r", "11..19"]),
    *[(f"reduce_{p}_r5.json", ["reduce", "--pipeline", p, "--r", "5"])
      for p in ("ppr-even-vneg", "ppr-even-vtpos", "ppr-even-v1mtpos")],
    *[(f"reduce_{p}.json", ["reduce", "--pipeline", p])
      for p in ("35p-vtpos", "35p-v1mtpos", "35p-vneg")],
    *[(f"reduce_odd-good_z{z}_s{s.replace('/', '-')}_r{r}.json",
       ["reduce", "--pipeline", "odd-good", "--z", z, "--s", s, "--r", r])
      for z, s, r in (("1", "7/4", "3"), ("1", "31/16", "3"), ("1", "255/128", "5"),
                      ("240", "7440", "3"))],
    # one covered input per (signature, valuation case), with the oracle attached
    *[(f"classify_{sig}{f'_r{r}' if r else ''}_t{t.replace('/', '-')}.json",
       ["classify", "--signature", sig, *(["--r", r] if r else []), "--t", t,
        "--oracle-check"])
      for sig, r, t in (("ppr-even", "5", "1/32"), ("ppr-even", "5", "4"),
                        ("ppr-even", "5", "-3"), ("35p", None, "8"), ("35p", None, "-3"),
                        ("35p", None, "3/2"), ("ppr-odd", "3", "1/16"), ("rrp", "3", "16"),
                        ("2rp", "3", "129"))],
    ("classify_ppr-odd_r3_t1-32_oracle.json",
     ["classify", "--signature", "ppr-odd", "--r", "3", "--t", "1/32", "--mode", "oracle",
      "--oracle-check"]),
]


@pytest.mark.parametrize("name,argv", CLI_GOLDENS, ids=[n for n, _ in CLI_GOLDENS])
def test_json_matches_golden(tmp_path, name, argv):
    path = tmp_path / name
    assert main([*argv, "--format", "json", "--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_every_golden_is_checked():
    """The golden directory holds exactly the files the tests above compare."""
    named = [name for name, _ in CLI_GOLDENS] + [GOLDEN_TABLE.name]
    assert len(named) == len(set(named))
    assert {p.name for p in GOLDEN.iterdir()} == set(named)


def test_table_builds_no_odd_row_model(monkeypatch, tmp_path):
    """`table` reads each odd row off the certificate plus one tame-field
    test; the row's model and witness are built only when read, by
    `classify --oracle-check`, whose goldens stay byte-identical."""
    built = []
    real_result = pipelines_mod.OddGoodCertificate.result

    def counting_result(self, z, s):
        built.append(("result", self.r, z, s))
        return real_result(self, z, s)

    monkeypatch.setattr(pipelines_mod.OddGoodCertificate, "result", counting_result)
    path = tmp_path / "table.json"
    assert main(["table", "--r", "3..7", "--format", "json", "--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == GOLDEN_TABLE.read_bytes()
    assert built == []
    odd = [(name, argv) for name, argv in CLI_GOLDENS
           if name.startswith(("classify_ppr-odd", "classify_rrp", "classify_2rp"))]
    assert len(odd) == 4
    for name, argv in odd:
        path = tmp_path / name
        assert main([*argv, "--format", "json", "--out", str(path)]) == EXIT_OK
        assert path.read_bytes() == (GOLDEN / name).read_bytes()
    assert [entry[0] for entry in built] == ["result"] * len(odd)


def test_table_classifies_each_row_once_in_printed_mode(monkeypatch):
    """`generate_table` hands each row's printed report to the cross-check,
    so a covered row is classified once more, in oracle mode only."""
    calls = []
    real = classify_mod.classify

    def counting(signature, r, t, mode=classify_mod.TABLE_AS_PRINTED):
        calls.append(mode)
        return real(signature, r, t, mode)

    monkeypatch.setattr(classify_mod, "classify", counting)
    monkeypatch.setattr(cli, "classify", counting)
    rows = generate_table([3, 5, 7])
    assert len(rows) == 217
    assert calls.count(classify_mod.TABLE_AS_PRINTED) == len(rows)
    covered = sum("oracle_exponent" in row for row in rows)
    assert calls.count(classify_mod.ORACLE_CORRECTED) == covered


def test_law_checks_redraw_degenerate_curves():
    # this stream draws a curve whose 4P + Q^2 falls below degree 2g+1
    assert cli._lemma_law_spot_checks(random.Random(5), 300)


# Values for every flag: odd primes, composites, an r above 19,
# non-numbers, ranges, degenerate t, a rational and a zero denominator.
# Each flag draws three times in four from its own valid values instead, so
# that many argv lists get past the parser.
VALUES = ["3", "5", "4", "21", "x", "3..5", "a..b", "0", "1", "7/4", "1/0"]
R_OK = ["3", "5", "3..5"]
Q_OK = ["3", "7/4"]
FLAGS = {
    "verify": {"--r": R_OK},
    "classify": {
        "--signature": GRID_SIGNATURES,
        "--r": R_OK,
        "--t": Q_OK,
        "--mode": ["printed", "oracle"],
        "--oracle-check": None,
    },
    "reduce": {"--pipeline": list(PIPELINE_NAMES), "--r": R_OK, "--z": Q_OK, "--s": Q_OK},
    "table": {"--r": R_OK, "--grid-exponents": ["3..5"], "--no-oracle": None},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from([*FLAGS, "x"]))
    pairs = []
    for flag, valid in {**FLAGS.get(command, {}), "--format": ["text", "json"]}.items():
        if valid is None:
            if draw(st.booleans()):
                pairs.append([flag])
        elif draw(st.integers(0, 3)):
            pool = VALUES if draw(st.integers(0, 3)) == 0 else valid
            pairs.append([flag, draw(st.sampled_from(pool))])
    if draw(st.booleans()):
        pairs.append(["--out", draw(st.sampled_from(["OUT", "MISSING"]))])
    pairs = draw(st.permutations(pairs))
    argv = [command, *(token for pair in pairs for token in pair)]
    # now and then drop the last token, so a flag can lack its value
    return argv[:-1] if len(argv) > 1 and not draw(st.integers(0, 4)) else argv


@settings(max_examples=60, deadline=None)
@given(cli_argv())
def test_cli_argv_fuzz(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"OUT": str(Path(tmp) / "out.txt"),
                 "MISSING": str(Path(tmp) / "missing" / "out.txt")}
        argv = [paths.get(a, a) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
