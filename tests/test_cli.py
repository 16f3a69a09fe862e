"""The command-line surface: formats, exit codes, round trips."""

import json

import pytest

from qyoung.cli import main
from qyoung.hecke import HeckeElement
from qyoung.laurent import LaurentPoly
from qyoung.symmetrizers import e_lambda, symmetrizer
from qyoung.partitions import Partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(capsys, "sym", "9")
        assert code == 2
        assert "9" in err

    def test_guard_override(self, capsys):
        code, out, _ = run(capsys, "sym", "5", "--max-strands", "5", "--format", "machine")
        assert code == 0
        assert len(json.loads(out)["terms"]) == 120

    def test_machine_format_roundtrip(self, capsys):
        code, out, _ = run(capsys, "sym", "3", "--format", "machine")
        assert code == 0
        assert HeckeElement.from_machine(json.loads(out)) == symmetrizer(3)

    def test_text_and_machine_agree(self, capsys):
        _, text_out, _ = run(capsys, "antisym", "3")
        _, machine_out, _ = run(capsys, "antisym", "3", "--format", "machine")
        assert str(HeckeElement.from_machine(json.loads(machine_out))) == text_out.strip()


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

    def test_guard(self, capsys):
        code, _, err = run(capsys, "verify", "99")
        assert code == 2
        assert "guard" in err

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

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [["sym", "3"], ["elam", "2,1"], ["verify", "2"]])
    def test_non_positive_guard_rejected(self, capsys, command, value):
        code, out, err = run(capsys, *command, f"--max-strands={value}")
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"argument --max-strands: expected a positive integer, got '{value}'"
        )
