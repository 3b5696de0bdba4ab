import json

import pytest

from powerdom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gammabar_family(capsys):
    code, out, _ = run(capsys, "gammabar", "--family", "kmn:5,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3
    assert payload["parameter"] == "gamma_bar_p"


def test_classify_grid_labels(capsys):
    code, out, _ = run(
        capsys, "classify", "--family", "grid:6,6", "--set-labels", "04,01"
    )
    assert code == 0
    assert json.loads(out)["is_pds"] is True


def test_classify_indices(capsys):
    code, out, _ = run(capsys, "classify", "--family", "path:3", "--set", "1")
    assert code == 0
    assert json.loads(out)["is_pds"] is True


def test_missing_file_is_exit_1(capsys):
    code, _, err = run(capsys, "gammabar", "--file", "nonexistent.el")
    assert code == 1
    assert "error" in json.loads(err)


def test_bad_family_is_exit_1(capsys):
    code, _, err = run(capsys, "generate", "--family", "fanchord:4,3,2")
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"


def test_budget_exhaustion_is_exit_2(capsys):
    code, _, err = run(capsys, "gammabar", "--family", "cycle:9", "--budget", "3")
    assert code == 2
    assert json.loads(err)["error"] == "budget_exceeded"


def test_budget_exhaustion_reports_the_lower_bound(capsys):
    code, _, err = run(capsys, "fzf", "--family", "path:18", "--budget", "15000")
    assert code == 2
    payload = json.loads(err)
    assert (payload["error"], payload["calls"], payload["budget"]) == ("budget_exceeded", 15001, 15000)
    assert payload["lower_bound"] == len(payload["witness"]) == 8


def test_budget_exhaustion_inside_a_fort_certified_stratum(capsys):
    # F(kxp:5,6) = 22 decides 106,120 subsets below its certifying stratum
    # 23, which the fort search settles when the budget covers all
    # comb(30, 23) of its subsets; 1,000 more leave it to the scan, which
    # runs out where it always did
    code, _, err = run(capsys, "fzf", "--family", "kxp:5,6", "--budget", "107120")
    assert code == 2
    assert json.loads(err) == {
        "error": "budget_exceeded", "calls": 107121, "budget": 107120, "lower_bound": 22,
        "witness": [*range(18), 19, 21, 25, 27]}


def test_budget_exhaustion_without_a_lower_bound(capsys):
    code, _, err = run(capsys, "fzf", "--family", "path:18", "--budget", "0")
    assert code == 2
    assert json.loads(err) == {"error": "budget_exceeded", "calls": 1, "budget": 0}


def test_negative_budget_is_exit_1(capsys):
    code, out, err = run(capsys, "gammabar", "--family", "cycle:5", "--budget", "-3")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [
        ["gammabar"],
        ["gammabar", "--family", "cycle:8", "--workers", "2"],
        ["gammabar", "--family", "cycle:8", "--canonical"],
        ["gammabar", "--family", "cycle:8", "--budget", "many"],
        [],
    ],
)
def test_usage_errors_are_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert payload["message"]


def test_help_is_exit_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gammabar", "--help"])
    assert info.value.code == 0
    assert "--budget" in capsys.readouterr().out


def test_trace_output(capsys):
    code, out, _ = run(capsys, "trace", "--family", "path:5", "--set", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "power-domination"
    assert payload["steps"][-1] == [0, 1, 2, 3, 4]


def test_trace_zero_forcing(capsys):
    code, out, _ = run(
        capsys, "trace", "--family", "complete:3", "--set", "0", "--zero-forcing"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "zero-forcing"
    assert payload["steps"] == [[0]]


def test_generate_json_and_plain(capsys):
    code, out, _ = run(capsys, "generate", "--family", "path:3")
    assert code == 0
    assert json.loads(out) == {"n": 3, "edges": [[0, 1], [1, 2]]}
    code, out, _ = run(capsys, "generate", "--family", "path:3", "--plain")
    assert code == 0
    assert out.splitlines() == ["3", "0 1", "1 2"]


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "ladder:9")
    assert code == 0
    assert json.loads(out)["value"] == 2
    code, _, err = run(capsys, "oracle", "--family", "ladder:3")
    assert code == 1
    assert json.loads(err)["error"] == "NoFormula"


def test_edge_list_file_input(capsys, tmp_path):
    el = tmp_path / "fig3.el"
    el.write_text("4\n0 1\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "alpha", "--file", str(el))
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_reduce_stdout(capsys, tmp_path):
    el = tmp_path / "fig3.el"
    el.write_text("4\n0 1\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "reduce", "--file", str(el), "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["gprime"]["n"] == 73
    assert payload["roles"]["m"] == 66

    code, out, _ = run(
        capsys, "reduce", "--file", str(el), "--path-len", "2",
        "--out", str(tmp_path / "gadget"),
    )
    assert code == 0
    roles = json.loads((tmp_path / "gadget.json").read_text())
    assert roles["faithful"] is False
    edge_text = (tmp_path / "gadget.el").read_text()
    assert edge_text.splitlines()[0] == str(3 * 4 + 4 + 1)


def test_reduce_too_small(capsys, tmp_path):
    el = tmp_path / "p2.el"
    el.write_text("2\n0 1\n")
    code, _, err = run(capsys, "reduce", "--file", str(el))
    assert code == 1
    assert json.loads(err)["error"] == "TooSmall"


def test_reduce_k_outside_the_source(capsys):
    for k in ("-5", "4", "99"):
        code, out, err = run(capsys, "reduce", "--family", "path:3", "--k", k)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "ValueError"
    code, out, _ = run(capsys, "reduce", "--family", "path:3", "--k", "3")
    assert code == 0
    assert json.loads(out)["roles"]["m"] == 21


def test_byte_stable_output(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "gammabar", "--family", "kmn:4,2")
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "command, family, value",
    [
        ("gammap", "path:6", 1),
        ("zf", "cycle:6", 2),
        ("fzf", "cycle:4", 2),
        ("dom", "path:7", 3),
        ("alpha", "cycle:5", 2),
    ],
)
def test_solver_subcommands(capsys, command, family, value):
    code, out, _ = run(capsys, command, "--family", family)
    assert code == 0
    assert json.loads(out)["value"] == value
