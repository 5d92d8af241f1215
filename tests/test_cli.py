import json

import pytest

from permpoly import checks
from permpoly.cli import main


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


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "zsumexp", "--m-max", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 3  # (2,1), (3,1), (3,2)
    assert all(r["passed"] for r in rows)
    assert all(r["check"] == "zsumexp" for r in rows)
    assert all(r["counterexample"] is None for r in rows)


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2 and "unknown check" in err


@pytest.mark.parametrize("suite", ["zsumexp", "hitt", "all"])
def test_verify_refuses_extension_degree_over_ceiling(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--m-max", "13")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "12" in err


@pytest.mark.parametrize("suite", ["main_theorem", "polynomiality"])
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


#: (check, params, tested) of every `verify --suite all --m-max 4` record;
#: each passed with no counterexample.
ALL_AT_M4 = [
    ("main_theorem", {"m": 2, "k": 1}, 16), ("main_theorem", {"m": 3, "k": 1}, 32),
    ("main_theorem", {"m": 3, "k": 2}, 32), ("main_theorem", {"m": 4, "k": 1}, 64),
    ("main_theorem", {"m": 4, "k": 3}, 64),
    ("nobauer", {"m_max": 4}, 4311),
    ("fgprop", {"m": 2, "k": 1}, 168), ("fgprop", {"m": 3, "k": 1}, 296),
    ("fgprop", {"m": 3, "k": 2}, 296), ("fgprop", {"m": 4, "k": 1}, 552),
    ("fgprop", {"m": 4, "k": 3}, 552),
    ("hprop", {"m": 2, "k": 1}, 32), ("hprop", {"m": 3, "k": 1}, 64),
    ("hprop", {"m": 3, "k": 2}, 64), ("hprop", {"m": 4, "k": 1}, 128),
    ("hprop", {"m": 4, "k": 3}, 128),
    ("perm_lemma", {"m": 2, "k": 1}, 24), ("perm_lemma", {"m": 3, "k": 1}, 48),
    ("perm_lemma", {"m": 3, "k": 2}, 48), ("perm_lemma", {"m": 4, "k": 1}, 96),
    ("perm_lemma", {"m": 4, "k": 3}, 96),
    ("zsumexp", {"m": 2, "k": 1}, 56), ("zsumexp", {"m": 3, "k": 1}, 248),
    ("zsumexp", {"m": 3, "k": 2}, 248), ("zsumexp", {"m": 4, "k": 1}, 1016),
    ("zsumexp", {"m": 4, "k": 3}, 1016),
    ("h_dickson", {"m": 2, "k": 1}, 18), ("h_dickson", {"m": 3, "k": 1}, 34),
    ("h_dickson", {"m": 3, "k": 2}, 34), ("h_dickson", {"m": 4, "k": 1}, 66),
    ("h_dickson", {"m": 4, "k": 3}, 66),
    ("hitt", {"m": 2, "k": 1}, 36), ("hitt", {"m": 3, "k": 1}, 68),
    ("hitt", {"m": 3, "k": 2}, 68), ("hitt", {"m": 4, "k": 1}, 132),
    ("hitt", {"m": 4, "k": 3}, 132),
    ("remark3", {"m": 2}, 6), ("remark3", {"m": 3}, 12), ("remark3", {"m": 4}, 24),
    ("remark4", {"m": 3, "k": 2}, 32),
    ("dickson_linearized", {"k_max": 4}, 18388),
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
