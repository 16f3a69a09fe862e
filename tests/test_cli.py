"""The command-line surface: formats, exit codes, round trips."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung import invariants
from qyoung.cli import main
from qyoung.hecke import HeckeElement
from qyoung.laurent import LaurentPoly
from qyoung.symmetrizers import e_lambda, symmetrizer
from qyoung.partitions import Partition, all_partitions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refusal(request, n):
    """The one message of the size guard, as the CLI prints it."""
    return (
        f"error: {request} is refused: a table on {n} strands can hold {n}! "
        "basis braids, more than the bound of 40320\n"
    )


class TestSymmetrizerCommands:
    def test_sym_two(self, capsys):
        code, out, _ = run(capsys, "sym", "2")
        assert code == 0
        assert out.strip() == "w[1,2] + s·w[2,1]"

    def test_antisym_one(self, capsys):
        code, out, _ = run(capsys, "antisym", "1")
        assert code == 0
        assert out.strip() == "w[1]"

    def test_sym_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sym", "0")
        assert code == 2
        assert "strand count" in err

    def test_guard_exceeded(self, capsys):
        code, out, err = run(capsys, "sym", "9")
        assert code == 2
        assert out == ""
        assert err == refusal("the enumeration of S_9", 9)

    def test_machine_format_roundtrip(self, capsys):
        code, out, _ = run(capsys, "sym", "3", "--format", "machine")
        assert code == 0
        assert HeckeElement.from_machine(json.loads(out)) == symmetrizer(3)

    def test_text_and_machine_agree(self, capsys):
        _, text_out, _ = run(capsys, "antisym", "3")
        _, machine_out, _ = run(capsys, "antisym", "3", "--format", "machine")
        assert str(HeckeElement.from_machine(json.loads(machine_out))) == text_out.strip()


class TestSizeGuard:
    @pytest.mark.parametrize(
        "argv, what, n",
        [
            (["sym", "9"], "the enumeration of S_9", 9),
            (["antisym", "9"], "the enumeration of S_9", 9),
            (["elam", "5,4"], "the symmetrizer of lambda=5,4", 9),
            (["alpha", "9"], "the symmetrizer of lambda=9", 9),
            (["twist", "3,3,3"], "the symmetrizer of lambda=3,3,3", 9),
            # The guard decides without forming n!, which for 3000 would
            # not even print as a decimal.
            (["sym", "3000"], "the enumeration of S_3000", 3000),
            (["antisym", "300000", "--format", "machine"], "the enumeration of S_300000", 300000),
        ],
    )
    def test_one_message(self, capsys, argv, what, n):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == refusal(what, n)

    @pytest.mark.parametrize("argv", [["alpha", "4,4"], ["twist", "4,4"], ["alpha", "8"]])
    def test_eight_cells_need_no_flag(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == "match = yes"

    def test_verify_eight_passes_the_guard(self, capsys, monkeypatch):
        # The checks themselves are the slow 8-cell gate's; here only the
        # guard's decision is under test.
        strands, diagrams = [], []
        monkeypatch.setattr(invariants, "strand_checks", lambda n: strands.append(n) or [])
        monkeypatch.setattr(
            invariants, "diagram_checks", lambda lam, taus: diagrams.append(lam) or []
        )
        code, out, _ = run(capsys, "verify", "8")
        assert code == 0
        assert out.splitlines()[-1] == "all invariants verified"
        assert strands == list(range(2, 9))
        assert len(diagrams) == sum(len(list(all_partitions(k))) for k in range(1, 9))


class TestIdempotentCommands:
    def test_elam_row(self, capsys):
        code, out, _ = run(capsys, "elam", "2")
        assert code == 0
        assert "alpha = 1 + s^2" in out
        assert "match = yes" in out

    def test_elam_column(self, capsys):
        code, out, _ = run(capsys, "elam", "1,1")
        assert code == 0
        assert "alpha = s^-2 + 1" in out

    def test_elam_rejects_increasing_parts(self, capsys):
        code, _, err = run(capsys, "elam", "1,2")
        assert code == 2
        assert "weakly decreasing" in err

    def test_alpha_machine(self, capsys):
        code, out, _ = run(capsys, "alpha", "2,1", "--format", "machine")
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert LaurentPoly.from_pairs(
            (e, c) for e, c in payload["alpha"]
        ) == LaurentPoly.from_pairs([(-2, 1), (0, 1), (2, 1)])

    def test_elam_machine_element_roundtrip(self, capsys):
        code, out, _ = run(capsys, "elam", "2,2", "--format", "machine")
        assert code == 0
        payload = json.loads(out)
        assert HeckeElement.from_machine(payload["element"]) == e_lambda(
            Partition((2, 2))
        )


class TestTwistCommand:
    def test_row(self, capsys):
        code, out, _ = run(capsys, "twist", "2")
        assert code == 0
        assert out.splitlines()[0] == "tau = q^1"

    def test_column(self, capsys):
        _, out, _ = run(capsys, "twist", "1,1")
        assert out.splitlines()[0] == "tau = q^-1"

    def test_trivial(self, capsys):
        _, out, _ = run(capsys, "twist", "1")
        assert out.splitlines()[0] == "tau = 1"

    def test_machine(self, capsys):
        code, out, _ = run(capsys, "twist", "3", "--format", "machine")
        payload = json.loads(out)
        assert code == 0
        assert payload["tau"] == [[6, 1]]
        assert payload["closed_form_exponent"] == 6
        assert payload["match"] is True


class TestMulCommand:
    def test_multiplies_files(self, capsys, tmp_path):
        g1 = HeckeElement.generator(3, 1)
        g2 = HeckeElement.generator(3, 2)
        left = tmp_path / "left.json"
        right = tmp_path / "right.json"
        left.write_text(json.dumps(g1.to_machine()))
        right.write_text(json.dumps(g2.to_machine()))
        code, out, _ = run(capsys, "mul", str(left), str(right), "--format", "machine")
        assert code == 0
        assert HeckeElement.from_machine(json.loads(out)) == g1 * g2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "mul", str(tmp_path / "nope.json"), str(tmp_path / "nope.json"))
        assert code == 2
        assert err

    def test_size_mismatch(self, capsys, tmp_path):
        left = tmp_path / "left.json"
        right = tmp_path / "right.json"
        left.write_text(json.dumps(HeckeElement.unit(2).to_machine()))
        right.write_text(json.dumps(HeckeElement.unit(3).to_machine()))
        code, _, err = run(capsys, "mul", str(left), str(right))
        assert code == 2
        assert "strand" in err


    @pytest.mark.parametrize(
        "payload",
        [
            {"n": "2", "terms": []},
            [{"n": 2, "terms": []}],
            {"n": 2, "terms": [{"perm": [1, 2], "coeff": [[0.5, 1]]}]},
            {"n": 2, "terms": [{"perm": [1, 2], "coeff": [[0, True]]}]},
        ],
        ids=["string-n", "top-level-list", "float-exponent", "bool-coefficient"],
    )
    def test_malformed_element_is_usage_error(self, capsys, tmp_path, payload):
        bad = tmp_path / "bad.json"
        good = tmp_path / "good.json"
        bad.write_text(json.dumps(payload))
        good.write_text(json.dumps(HeckeElement.unit(2).to_machine()))
        code, out, err = run(capsys, "mul", str(bad), str(good))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "coeff",
        [[[0]], ["ab"], [[0, 1, 2]], [7], [{"0": 1}]],
        ids=["one-value", "string", "three-values", "bare-int", "object"],
    )
    def test_bad_coefficient_pair_is_reported_as_malformed(self, capsys, tmp_path, coeff):
        bad = tmp_path / "bad.json"
        good = tmp_path / "good.json"
        bad.write_text(json.dumps({"n": 2, "terms": [{"perm": [1, 2], "coeff": coeff}]}))
        good.write_text(json.dumps(HeckeElement.unit(2).to_machine()))
        code, out, err = run(capsys, "mul", str(bad), str(good))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed machine-format element") and err.count("\n") == 1

    def test_repeated_exponent_is_usage_error(self, capsys, tmp_path):
        # to_machine never emits two pairs with one exponent, so they are
        # refused rather than summed.
        bad = tmp_path / "bad.json"
        good = tmp_path / "good.json"
        bad.write_text(json.dumps({"n": 2, "terms": [{"perm": [1, 2], "coeff": [[0, 1], [0, 2]]}]}))
        good.write_text(json.dumps(HeckeElement.unit(2).to_machine()))
        code, out, err = run(capsys, "mul", str(bad), str(good))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "repeated exponent" in err

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        good = tmp_path / "good.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        good.write_text(json.dumps(HeckeElement.unit(2).to_machine()))
        code, out, err = run(capsys, "mul", str(deep), str(good))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested" in err

    def test_zero_elements_on_many_strands(self, capsys, tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"n": 10**12, "terms": []}))
        code, out, err = run(capsys, "mul", str(zero), str(zero))
        assert (code, out, err) == (0, "0\n", "")

    def test_wide_exponent_span_is_usage_error(self, capsys, tmp_path):
        wide = tmp_path / "wide.json"
        good = tmp_path / "good.json"
        term = {"perm": [1, 2], "coeff": [[100000000, 1], [0, 1]]}
        wide.write_text(json.dumps({"n": 2, "terms": [term]}))
        good.write_text(json.dumps(HeckeElement.unit(2).to_machine()))
        code, out, err = run(capsys, "mul", str(wide), str(good))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_wide_exponent_spread_across_terms_is_usage_error(self, capsys, tmp_path):
        spread = tmp_path / "spread.json"
        good = tmp_path / "good.json"
        terms = [
            {"perm": [1, 2], "coeff": [[0, 1]]},
            {"perm": [2, 1], "coeff": [[100000000, 1]]},
        ]
        spread.write_text(json.dumps({"n": 2, "terms": terms}))
        good.write_text(json.dumps(HeckeElement.unit(2).to_machine()))
        code, out, err = run(capsys, "mul", str(spread), str(good))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "3")
        assert code == 0
        assert "all invariants verified" in out
        assert "lambda=2,1" in out

    def test_trivial_run(self, capsys):
        code, out, _ = run(capsys, "verify", "1")
        assert code == 0

    @pytest.mark.slow
    def test_six_cells_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "6")
        assert code == 0
        assert "all invariants verified" in out

    def test_guard(self, capsys, monkeypatch):
        # Refused before the first strand check, not after n = 2..8.
        calls = []
        monkeypatch.setattr(invariants, "strand_checks", lambda n: calls.append(n) or [])
        for n in (9, 99):
            code, out, err = run(capsys, "verify", str(n))
            assert code == 2
            assert out == ""
            assert err == refusal(f"verify {n}", n)
        assert calls == []

    def test_failed_diagram_exits_one_without_ok_line(self, capsys, monkeypatch):
        from qyoung import symmetrizers

        real = symmetrizers.alpha_closed_form

        def planted(lam):
            return real(lam) + 1 if lam.parts == (2,) else real(lam)

        monkeypatch.setattr(symmetrizers, "alpha_closed_form", planted)
        code, out, _ = run(capsys, "verify", "3")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("ok    lambda=1 ")
        assert lines[1:] == [
            "FAIL  alpha closed form, lambda=2",
            "verification failed: alpha closed form, lambda=2",
        ]

    def test_failed_strand_check_prints_no_diagram_lines(self, capsys, monkeypatch):
        from qyoung import symmetrizers

        monkeypatch.setattr(symmetrizers, "antisymmetrizer", symmetrizers.symmetrizer)
        code, out, _ = run(capsys, "verify", "3")
        assert code == 1
        assert out.splitlines() == [
            "FAIL  eigen-relation for the column element, n=2, i=1",
            "verification failed: eigen-relation for the column element, n=2, i=1",
        ]


class TestVerifyMachineFormat:
    def test_every_line_parses_and_names_the_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "4", "--format", "machine")
        assert code == 0
        *items, summary = [json.loads(line) for line in out.splitlines()]
        assert summary == {"ok": True, "failed": []}
        strands = [item for item in items if "n" in item]
        diagrams = [item for item in items if "lambda" in item]
        assert items == strands + diagrams
        assert [item["n"] for item in strands] == [2, 3, 4]
        assert all(item["side"] is None for item in strands)
        assert all(set(item) == {"n", "side", "seconds", "checks"} for item in strands)
        assert all(set(item) == {"lambda", "side", "seconds", "checks"} for item in diagrams)
        assert all(isinstance(item["seconds"], float) for item in items)
        # Text mode lists the same diagrams in the same order, and the checks
        # are the ones it runs, by name.
        _, text, _ = run(capsys, "verify", "4")
        listed = [line.split()[1] for line in text.splitlines() if line.startswith("ok ")]
        assert ["lambda=" + ",".join(map(str, item["lambda"])) for item in diagrams] == listed
        taus = {}
        names = [[name for name, _ in invariants.strand_checks(n)] for n in (2, 3, 4)]
        names += [
            [name for name, _ in invariants.diagram_checks(Partition(item["lambda"]), taus)]
            for item in diagrams
        ]
        assert [[check["name"] for check in item["checks"]] for item in items] == names
        assert all(check["ok"] is True for item in items for check in item["checks"])

    def test_sides(self, capsys):
        _, out, _ = run(capsys, "verify", "4", "--format", "machine")
        sides = {
            tuple(item["lambda"]): item["side"]
            for item in map(json.loads, out.splitlines())
            if "lambda" in item
        }
        assert sides[(1, 1, 1, 1)] == "sign"
        assert sides[(4,)] == "row"
        assert sides[(2, 2)] == "row"  # a tie stays on the row side

    @pytest.mark.parametrize("fault", ["diagram", "strand"])
    def test_failures_match_text_mode(self, capsys, monkeypatch, fault):
        from qyoung import symmetrizers

        if fault == "diagram":
            real = symmetrizers.alpha_closed_form
            monkeypatch.setattr(
                symmetrizers,
                "alpha_closed_form",
                lambda lam: real(lam) + 1 if lam.parts == (2,) else real(lam),
            )
        else:
            monkeypatch.setattr(symmetrizers, "antisymmetrizer", symmetrizers.symmetrizer)
        text_code, text, _ = run(capsys, "verify", "3")
        code, out, _ = run(capsys, "verify", "3", "--format", "machine")
        assert code == text_code == 1
        *items, summary = [json.loads(line) for line in out.splitlines()]
        failed = [line[len("FAIL  ") :] for line in text.splitlines() if line.startswith("FAIL")]
        assert summary == {"ok": False, "failed": failed}
        assert [c["name"] for c in items[-1]["checks"] if not c["ok"]] == failed
        assert all(c["ok"] for item in items[:-1] for c in item["checks"])


def test_verify_builds_each_symmetrizer_once(capsys, monkeypatch):
    from qyoung import central, symmetrizers

    builds = []
    real = symmetrizers.e_lambda

    def counting(lam, *args, **kwargs):
        builds.append(lam)
        return real(lam, *args, **kwargs)

    monkeypatch.setattr(symmetrizers, "e_lambda", counting)
    monkeypatch.setattr(central, "e_lambda", counting)
    code, _, _ = run(capsys, "verify", "4")
    assert code == 0
    # 1 + 2 + 3 + 5 diagrams of at most 4 cells, each built exactly once.
    assert len(builds) == len(set(builds)) == 11


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_non_integer_argument(self, capsys):
        assert run(capsys, "sym", "two")[0] == 2

    def test_argument_errors_are_one_line(self, capsys):
        code, out, err = run(capsys, "sym", "two")
        assert code == 2
        assert out == ""
        assert err == "error: argument n: invalid int value: 'two'\n"

    @pytest.mark.parametrize("command", [["sym", "3"], ["elam", "2,1"], ["verify", "2"]])
    def test_max_strands_is_an_unknown_argument(self, capsys, command):
        # The size guard has no override.
        code, out, err = run(capsys, *command, "--max-strands", "8")
        assert code == 2
        assert out == ""
        assert err == "error: unrecognized arguments: --max-strands 8\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [["sym", "3"], ["elam", "2,1"], ["verify", "2"]])
    def test_non_positive_guard_rejected(self, capsys, command, value):
        # A non-positive bound is refused like any other: the flag is gone.
        code, out, err = run(capsys, *command, f"--max-strands={value}")
        assert code == 2
        assert out == ""
        assert err == f"error: unrecognized arguments: --max-strands={value}\n"


# Tokens for the fuzz test: every command, diagrams and strand counts of at
# most 5 cells, sizes over the guard, junk and the format flag.  Digits
# above 5 appear only in the over-guard sizes, so no draw runs a large
# verify.
SMALL = ["0"] + [str(lam) for k in range(1, 6) for lam in all_partitions(k)]
OVER = ["9", "5,4", "3000"]
JUNK = ["", "-1", "x", "1,2", "2,,1", "--max-strands", "--frobnicate", "-", "nope.json"]
FORMAT = ["--format", "machine", "text", "--format=machine"]
token = st.sampled_from(SMALL + OVER + JUNK + FORMAT) | st.text(
    st.characters(blacklist_categories=("Nd", "Cs")), max_size=4
)
command = st.sampled_from(["sym", "antisym", "elam", "alpha", "twist", "verify", "mul"])
argvs = st.lists(token, max_size=1) | st.builds(
    lambda first, rest: [first, *rest], command, st.lists(token, max_size=3)
)


@given(argvs)
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_exits_zero_or_two(argv):
    # capsys is not reset between hypothesis examples, so capture here.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
