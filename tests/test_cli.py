import json
import shlex
from pathlib import Path

import pytest

from permpoly import checks
from permpoly.cli import main
from permpoly.field import make_field
from permpoly.tables import FieldTables


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_text(capsys):
    code, out, _ = run(capsys, "params", "--m", "3", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # one row per (alpha, beta)
    assert "r=2" in lines[0] and "m_prime=1" in lines[0] and "sigma=4" in lines[0]


def test_params_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "params", "--m", "5", "--k", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0]["r"] == 2 and rows[0]["m_prime"] == 1


def test_params_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "params", "--m", "4", "--k", "2")
    assert code == 2 and "gcd" in err


def test_params_rejects_out_of_range(capsys):
    code, _, _ = run(capsys, "params", "--m", "3", "--k", "0")
    assert code == 2


def test_eval_h_identity_case(capsys):
    # m=2, k=1: H is the identity
    code, out, _ = run(capsys, "eval", "h", "--m", "2", "--k", "1", "--x", "2")
    assert code == 0 and out.strip() == "2"


def test_eval_f_and_g(capsys):
    code, out, _ = run(capsys, "eval", "f", "--m", "3", "--k", "2", "--x", "1")
    assert code == 0 and out.strip() == "0"  # f_0(1) = r mod 2 = 0
    code, out, _ = run(capsys, "eval", "g", "--m", "3", "--k", "2", "--x", "2")
    assert code == 0 and out.strip() == "6"  # x + x^2 = X + X^2


def test_eval_dickson(capsys):
    # D_3(X) = X^3 + X = (X+1) + X = 1 in GF(8) with X^3 = X+1
    code, out, _ = run(capsys, "eval", "dickson", "--m", "3", "--n", "3", "--x", "2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "eval", "dickson", "--m", "3", "--n", "3",
                       "--x", "2", "--method", "closed_form")
    assert out.strip() == "1"
    code, out, _ = run(capsys, "eval", "dickson", "--m", "3", "--n", "3",
                       "--x", "2", "--cross-check")
    assert code == 0 and out.strip() == "1"


def test_eval_phi_special_points(capsys):
    code, out, _ = run(capsys, "eval", "phi", "--m", "2", "--k", "1", "--z", "inf")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "eval", "phi", "--m", "2", "--k", "1", "--z", "1")
    assert code == 0 and out.strip() == "inf"


def test_eval_w_fixes_infinity(capsys):
    for name in ("w0", "w1"):
        code, out, _ = run(capsys, "eval", name, "--m", "3", "--k", "2", "--z", "inf")
        assert code == 0 and out.strip() == "inf"


@pytest.mark.parametrize("argv", [
    ["w0", "--m", "3", "--k", "0"], ["w1", "--m", "3", "--k", "3"],
    ["w0", "--m", "3", "--k", "-1"], ["w1", "--m", "4", "--k", "2"],
], ids=["k_zero", "k_equals_m", "k_negative", "k_not_coprime"])
def test_eval_w_rejects_invalid_k(capsys, argv):
    code, out, err = run(capsys, "eval", *argv, "--z", "5")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_eval_w0_value(capsys):
    code, out, _ = run(capsys, "eval", "w0", "--m", "5", "--k", "3", "--z", "123")
    assert code == 0 and out.strip() == "337"


def test_eval_tau(capsys):
    code, out, _ = run(capsys, "eval", "tau", "--m", "3", "--v", "1", "--x", "5")
    assert code == 0 and out.strip() == "4"


def test_tk_map_ignores_beta(capsys):
    # Tr(1) = 1 in GF(8), so g_1(1) = 1 while T_2(1) = 1 + 1 = 0
    code, out, _ = run(capsys, "eval", "tk", "--m", "3", "--k", "2", "--x", "1", "--beta", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "eval", "g", "--m", "3", "--k", "2", "--x", "1", "--beta", "1")
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("argv", [
    ["h", "--m", "3", "--k", "2"],                    # no --x
    ["phi", "--m", "3"],                              # no --z
    ["h", "--m", "3", "--x", "ff"],                   # outside GF(8)
    ["dickson", "--m", "3", "--n", "3", "--x", "ff"],
    ["dickson", "--m", "3", "--n", "3", "--x", "2", "--a", "ff"],
    ["tau", "--m", "3", "--v", "1", "--x", "ff"],
    ["phi", "--m", "3", "--z", "40"],                 # 0x40 = q^2, outside GF(64)
])
def test_eval_rejects_missing_or_out_of_field_operands(capsys, argv):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "--m", "3", "--k", "2")
    assert code == 0 and out.strip() == "3,6,15,18"
    code, out, _ = run(capsys, "expand", "--m", "2", "--k", "1")
    assert code == 0 and out.strip() == "1"


def test_expand_reduce(capsys):
    code, out, _ = run(capsys, "expand", "--m", "3", "--k", "2", "--reduce")
    assert code == 0
    exps = [int(e) for e in out.strip().split(",")]
    assert all(e < 8 for e in exps)


def test_sweep(capsys):
    code, out, err = run(capsys, "sweep", "--m-min", "2", "--m-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    # (m=2,k=1), (m=3,k=1), (m=3,k=2), 4 (alpha,gamma) rows each
    assert len(lines) == 12
    assert all("agree=True" in line for line in lines)


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "sweep", "--m-min", "2", "--m-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("m,k,r,m_prime,alpha,gamma,predicted")
    assert len(lines) == 5


def test_sweep_writes_json_bools_on_tables_whose_class_image_is_not_injective(capsys,
                                                                               monkeypatch):
    # log[3] = n moves H values out of place, so some class image is not injective
    # and its flags are false; JSON must still write every flag as a boolean
    ft = FieldTables(make_field(5))
    ft.log[3] = ft.n
    monkeypatch.setattr(checks, "field_tables", lambda m: ft)
    code, out, _ = run(capsys, "--format", "json", "sweep", "--m-min", "5", "--m-max", "5",
                       "--k-max", "2")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 4 and len(rows) == 8  # (5, 1) and (5, 2), four (alpha, gamma) each
    assert all(type(row[flag]) is bool
               for row in rows for flag in ("predicted", "observed", "agree"))


def test_sweep_skips_non_coprime(capsys):
    code, _, err = run(capsys, "sweep", "--m-min", "4", "--m-max", "4")
    assert code == 0 and "skipping m=4 k=2" in err


def test_sweep_refuses_a_degree_over_max_degree_before_any_sweep(capsys, monkeypatch):
    def no_sweep(m, k):
        raise AssertionError(f"swept m={m} k={k}")
    monkeypatch.setattr(checks, "check_main_theorem", no_sweep)
    code, out, err = run(capsys, "sweep", "--m-max", "25")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and "24" in err


#: sweep ranges refused before any table is built, and the error each prints
BAD_SWEEP_RANGES = {
    "m_min_below_2": (("--m-min", "1"), "--m-min 1 is below 2"),
    "m_min_over_m_max": (("--m-min", "9", "--m-max", "3"), "--m-min 9 is above --m-max 3"),
    "k_min_below_1": (("--k-min", "0"), "--k-min 0 is below 1"),
    "k_min_over_k_max": (("--m-max", "3", "--k-max", "0"), "--k-min 1 is above --k-max 0"),
    "k_min_over_every_m": (("--m-min", "2", "--m-max", "3", "--k-min", "5"),
                           "--k-min 5 is above m - 1 for every m in 2..3"),
}


@pytest.mark.parametrize("label", BAD_SWEEP_RANGES)
def test_sweep_refuses_an_empty_or_invalid_range_before_any_sweep(capsys, monkeypatch, label):
    argv, message = BAD_SWEEP_RANGES[label]

    def no_sweep(m, k):
        raise AssertionError(f"swept m={m} k={k}")
    monkeypatch.setattr(checks, "check_main_theorem", no_sweep)
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "zsumexp", "--m-max", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 3  # (2,1), (3,1), (3,2)
    assert all(r["passed"] for r in rows)
    assert all(r["check"] == "zsumexp" for r in rows)
    assert all(r["counterexample"] is None for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_verify_refuses_a_format_other_than_json(tmp_path, capsys, fmt):
    # exit 2 with one line, before any check runs or the --out file is opened
    path = tmp_path / "out.ndjson"
    code, out, err = run(capsys, "--format", fmt, "--out", str(path), "verify",
                         "--suite", "zsumexp", "--m-max", "2")
    assert code == 2 and out == "" and not path.exists()
    assert len(err.strip().splitlines()) == 1 and f"--format {fmt}" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [["eval", "h", "--m", "5", "--k", "2", "--x", "5"],
                                  ["expand", "--m", "5", "--k", "2", "--reduce"]],
                         ids=["eval", "expand"])
def test_a_text_command_refuses_another_format(tmp_path, capsys, argv, fmt):
    # eval and expand print one text line: exit 2 with one line, no --out file
    path = tmp_path / "out.txt"
    code, out, err = run(capsys, "--format", fmt, "--out", str(path), *argv)
    assert code == 2 and out == "" and not path.exists()
    assert len(err.strip().splitlines()) == 1 and f"--format {fmt}" in err


def test_verify_writes_ndjson_with_no_format_or_json(capsys):
    outputs = []
    for argv in ([], ["--format", "json"]):
        code, out, _ = run(capsys, *argv, "verify", "--suite", "zsumexp", "--m-max", "2")
        assert code == 0
        outputs.append([{key: value for key, value in json.loads(line).items() if key != "ms"}
                        for line in out.splitlines()])
    assert outputs[0] == outputs[1] and len(outputs[0]) == 1


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2 and "unknown check" in err


@pytest.mark.parametrize("suite", ["zsumexp", "all"])
def test_verify_refuses_extension_degree_over_ceiling(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--m-max", "13")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "12" in err


@pytest.mark.parametrize("suite", ["main_theorem", "polynomiality", "perm_lemma", "h_dickson",
                                   "hitt"])
def test_verify_refuses_cap_over_max_degree(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--m-max", "25")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "24" in err


def test_verify_clamped_check_takes_any_cap(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "nobauer", "--m-max", "25")
    assert code == 0
    assert [json.loads(line)["params"] for line in out.splitlines()] == [{"m_max": 5}]


@pytest.mark.parametrize("m_max", ["-3", "1"])
def test_verify_rejects_cap_below_two(capsys, m_max):
    code, out, err = run(capsys, "verify", "--suite", "all", "--m-max", m_max)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "--m-max" in err
    code, out, _ = run(capsys, "verify", "--suite", "main_theorem", "--m-max", m_max)
    assert code == 2 and out == ""


def test_verify_refuses_a_suite_with_no_grid_point_at_its_cap(tmp_path, capsys, monkeypatch):
    # remark4's grid starts at m = 3: exit 2 with one line, before any check
    # runs or the --out file is opened
    def no_check(*_):
        raise AssertionError("a check ran")
    monkeypatch.setattr(checks, "run_check", no_check)
    path = tmp_path / "out.ndjson"
    code, out, err = run(capsys, "--out", str(path), "verify", "--suite", "remark4",
                         "--m-max", "2")
    assert code == 2 and out == "" and not path.exists()
    assert err == "error: remark4 has no grid point up to --m-max 2\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "--suite", "remark4", "--m-max", "3")
    assert code == 0
    assert [json.loads(line)["params"] for line in out.splitlines()] == [{"m": 3, "k": 2}]


def test_verify_all_runs_every_check_with_a_grid_point_at_its_cap(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--m-max", "2")
    assert code == 0
    checks_run = [json.loads(line)["check"] for line in out.splitlines()]
    assert checks_run == [name for name in checks.CHECKS if name != "remark4"]


#: (check, params, tested) of every `verify --suite all --m-max 4` record;
#: each passed with no counterexample. `tested` is one per `expect` plus one
#: per element compared: main_theorem 4 and perm_lemma 6 verdicts, fgprop
#: 20q + 24, h_dickson 2q + 4, hitt 8q + 1, remark3 q + 1.
ALL_AT_M4 = [
    ("main_theorem", {"m": 2, "k": 1}, 4), ("main_theorem", {"m": 3, "k": 1}, 4),
    ("main_theorem", {"m": 3, "k": 2}, 4), ("main_theorem", {"m": 4, "k": 1}, 4),
    ("main_theorem", {"m": 4, "k": 3}, 4),
    ("nobauer", {"m_max": 4}, 4311),
    ("fgprop", {"m": 2, "k": 1}, 104), ("fgprop", {"m": 3, "k": 1}, 184),
    ("fgprop", {"m": 3, "k": 2}, 184), ("fgprop", {"m": 4, "k": 1}, 344),
    ("fgprop", {"m": 4, "k": 3}, 344),
    ("hprop", {"m": 2, "k": 1}, 32), ("hprop", {"m": 3, "k": 1}, 64),
    ("hprop", {"m": 3, "k": 2}, 64), ("hprop", {"m": 4, "k": 1}, 128),
    ("hprop", {"m": 4, "k": 3}, 128),
    ("perm_lemma", {"m": 2, "k": 1}, 6), ("perm_lemma", {"m": 3, "k": 1}, 6),
    ("perm_lemma", {"m": 3, "k": 2}, 6), ("perm_lemma", {"m": 4, "k": 1}, 6),
    ("perm_lemma", {"m": 4, "k": 3}, 6),
    ("zsumexp", {"m": 2, "k": 1}, 56), ("zsumexp", {"m": 3, "k": 1}, 248),
    ("zsumexp", {"m": 3, "k": 2}, 248), ("zsumexp", {"m": 4, "k": 1}, 1016),
    ("zsumexp", {"m": 4, "k": 3}, 1016),
    ("h_dickson", {"m": 2, "k": 1}, 12), ("h_dickson", {"m": 3, "k": 1}, 20),
    ("h_dickson", {"m": 3, "k": 2}, 20), ("h_dickson", {"m": 4, "k": 1}, 36),
    ("h_dickson", {"m": 4, "k": 3}, 36),
    ("hitt", {"m": 2, "k": 1}, 33), ("hitt", {"m": 3, "k": 1}, 65),
    ("hitt", {"m": 3, "k": 2}, 65), ("hitt", {"m": 4, "k": 1}, 129),
    ("hitt", {"m": 4, "k": 3}, 129),
    ("remark3", {"m": 2}, 5), ("remark3", {"m": 3}, 9), ("remark3", {"m": 4}, 17),
    ("remark4", {"m": 3, "k": 2}, 17),
    ("dickson_linearized", {"k_max": 4}, 18382),
    ("dickson_methods", {"m_max": 4}, 9344),
    ("polynomiality", {"m_max": 4}, 228),
]


def test_verify_all_keeps_its_records_and_counts(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--m-max", "4")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [(r["check"], r["params"], r["passed"], r["tested"], r["counterexample"])
            for r in records] == [(c, p, True, t, None) for c, p, t in ALL_AT_M4]


def test_verify_to_file(tmp_path, capsys):
    path = tmp_path / "out.ndjson"
    code, out, _ = run(capsys, "--out", str(path), "verify",
                       "--suite", "fgprop", "--m-max", "3")
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows and all(r["passed"] for r in rows)


@pytest.mark.parametrize("argv, expected, bad_argv", [
    (["eval", "h", "--m", "3", "--k", "2", "--x", "2"], "2",
     ["eval", "h", "--m", "3", "--k", "2", "--x", "9"]),
    (["expand", "--m", "3", "--k", "2"], "3,6,15,18", ["expand", "--m", "4", "--k", "2"]),
], ids=["eval", "expand"])
def test_eval_and_expand_write_to_out(tmp_path, capsys, argv, expected, bad_argv):
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, "--out", str(path), *argv)
    assert code == 0 and out == "" and path.read_text() == expected + "\n"
    # a usage error is reported before the file is opened
    bad_path = tmp_path / "bad.txt"
    code, out, _ = run(capsys, "--out", str(bad_path), *bad_argv)
    assert code == 2 and out == "" and not bad_path.exists()


def test_field_table_env_override(tmp_path, monkeypatch, capsys):
    # GF(8) built on X^3+X^2+1 instead of the default X^3+X+1
    table = tmp_path / "fields.txt"
    table.write_text("m=3 poly=0xd\n")
    code, default_out, _ = run(capsys, "eval", "h", "--m", "3", "--k", "2",
                               "--gamma", "1", "--x", "2")
    monkeypatch.setenv("PERMPOLY_FIELD_TABLE", str(table))
    code2, override_out, _ = run(capsys, "eval", "h", "--m", "3", "--k", "2",
                                 "--gamma", "1", "--x", "2")
    assert code == 0 and code2 == 0
    assert default_out != override_out  # same bit pattern, different field


def test_out_into_missing_directory(tmp_path, capsys):
    code, out, err = run(capsys, "--out", str(tmp_path / "no" / "out.ndjson"),
                         "verify", "--suite", "remark3", "--m-max", "3")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("content", [None, "m=3 poly=0xd\nm=4\n"],
                         ids=["missing_file", "line_without_poly"])
def test_bad_field_table(tmp_path, monkeypatch, capsys, content):
    table = tmp_path / "fields.txt"
    if content is not None:
        table.write_text(content)
    monkeypatch.setenv("PERMPOLY_FIELD_TABLE", str(table))
    code, out, err = run(capsys, "eval", "h", "--m", "3", "--k", "2", "--x", "2")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_output_deterministic(capsys):
    _, out1, _ = run(capsys, "expand", "--m", "5", "--k", "3", "--alpha", "1")
    _, out2, _ = run(capsys, "expand", "--m", "5", "--k", "3", "--alpha", "1")
    assert out1 == out2


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title: str) -> str:
    """The text of README's `## title` section, up to the next section."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_every_command_of_the_readme_cli_block_runs(tmp_path, capsys):
    block = _readme_section("CLI").split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("permpoly ")]
    assert len(lines) == 8
    for i, line in enumerate(lines):
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        path = tmp_path / f"{i}.txt"
        code, out, _ = run(capsys, "--out", str(path), *argv)
        assert (code, out) == (0, "") and path.read_text(), line
        if argv == ["expand", "--m", "3", "--k", "2"]:  # its comment names the exponents
            assert path.read_text() == comment.rpartition(":")[2].strip() + "\n" == "3,6,15,18\n"


def test_the_readme_check_table_lists_every_check_with_its_caps():
    rows = [line.split("|")[1:-1] for line in _readme_section("Checks").splitlines()
            if line.startswith("| `")]
    got = [(name.strip().strip("`"), default.strip(), largest.strip())
           for name, _, _, default, largest in rows]
    # a clamped check takes any cap and runs at its own limit, the m of its grid point
    want = [(name, str(check.default_cap),
             str(check.max_cap) if check.max_cap else f"any (runs at {check.grid(1 << 30)[0][0]})")
            for name, check in checks.CHECKS.items()]
    assert got == want
