import json
import os
import subprocess
import sys
from pathlib import Path

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
    argv = ("classify", "--family", "path:3", "--set", "1")
    assert run(capsys, *argv) == (0, (
        '{"is_pds": true, "is_fpds": false, "is_spds": true, "properly_stalled": false, '
        '"maximally_stalled": true, "monitored": [0, 1, 2]}\n'), "")
    assert run(capsys, *argv, "--plain") == (0, (
        "is_pds: True\nis_fpds: False\nis_spds: True\nproperly_stalled: False\n"
        "maximally_stalled: True\nmonitored: [0, 1, 2]\n"), "")


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
    # 23, which the fort search settles; 1,000 more do not cover all
    # comb(30, 23) of its subsets, so the solve runs out there, reporting
    # what a scan would
    code, _, err = run(capsys, "fzf", "--family", "kxp:5,6", "--budget", "107120")
    assert code == 2
    assert json.loads(err) == {
        "error": "budget_exceeded", "calls": 107121, "budget": 107120, "lower_bound": 22,
        "witness": [*range(18), 19, 21, 25, 27]}


def test_budget_exhaustion_inside_a_middle_fort_stratum(capsys):
    # F(kxp:4,5): stratum 14 spans cumulative counts 604-4,238, and its
    # witness has colex rank 3,634, past the budget left
    code, _, err = run(capsys, "fzf", "--family", "kxp:4,5", "--budget", "2000")
    assert code == 2
    assert json.loads(err) == {
        "error": "budget_exceeded", "calls": 2001, "budget": 2000, "lower_bound": 13,
        "witness": [*range(10), 11, 13, 16]}


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
        ["gammabar", "--family", "cycle:8", "--json"],
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
    argv = ("trace", "--family", "path:5", "--set", "0")
    assert run(capsys, *argv) == (0, (
        '{"kind": "power-domination", "steps": [[0, 1], [0, 1, 2], [0, 1, 2, 3], '
        '[0, 1, 2, 3, 4]], "stabilized_at": 3}\n'), "")
    assert run(capsys, *argv, "--plain") == (0, (
        "kind: power-domination\nstabilized_at: 3\nstep 0: [0, 1]\nstep 1: [0, 1, 2]\n"
        "step 2: [0, 1, 2, 3]\nstep 3: [0, 1, 2, 3, 4]\n"), "")


def test_trace_zero_forcing(capsys):
    argv = ("trace", "--family", "complete:3", "--set", "0", "--zero-forcing")
    assert run(capsys, *argv) == (
        0, '{"kind": "zero-forcing", "steps": [[0]], "stabilized_at": 0}\n', "")
    assert run(capsys, *argv, "--plain") == (
        0, "kind: zero-forcing\nstabilized_at: 0\nstep 0: [0]\n", "")


def test_generate_json_and_plain(capsys):
    code, out, _ = run(capsys, "generate", "--family", "path:3")
    assert code == 0
    assert out == '{"n": 3, "edges": [[0, 1], [1, 2]]}\n'
    code, out, _ = run(capsys, "generate", "--family", "path:3", "--plain")
    assert code == 0
    assert out == "3\n0 1\n1 2\n"


def test_oracle(capsys):
    assert run(capsys, "oracle", "--family", "ladder:9") == (
        0, '{"family": "ladder:9", "parameter": "gamma_bar_p", "value": 2}\n', "")
    assert run(capsys, "oracle", "--family", "ladder:9", "--plain") == (
        0, "gamma_bar_p(ladder:9) = 2\n", "")
    code, _, err = run(capsys, "oracle", "--family", "ladder:3")
    assert code == 1
    assert json.loads(err)["error"] == "NoFormula"


def test_edge_list_file_input(capsys, tmp_path):
    el = tmp_path / "fig3.el"
    el.write_text("4\n0 1\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "alpha", "--file", str(el))
    assert code == 0
    assert json.loads(out)["value"] == 2


@pytest.mark.parametrize("text", ["3\n0 1\n1 2\n", "0 1\n1 2\n"],
                         ids=["with-count", "without-count"])
def test_edge_list_file_with_a_byte_order_mark(capsys, tmp_path, text):
    plain, marked = tmp_path / "plain.el", tmp_path / "marked.el"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run(capsys, "gammabar", "--file", str(plain))
    assert expected[0] == 0
    assert run(capsys, "gammabar", "--file", str(marked)) == expected


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


def test_reduce_stdout_bytes(capsys):
    # path:3 with one-vertex paths: subdivisions 3 and 4, path vertices 5
    # and 6, hub 7
    argv = ("reduce", "--family", "path:3", "--path-len", "1")
    assert run(capsys, *argv, "--plain") == (
        0, "8\n0 3\n1 3\n1 4\n2 4\n3 5\n3 7\n4 6\n4 7\n", "")
    assert run(capsys, *argv, "--k", "1") == (0, (
        '{"gprime": {"n": 8, "edges": [[0, 3], [1, 3], [1, 4], [2, 4], [3, 5], [3, 7], '
        '[4, 6], [4, 7]], "labels": ["0", "1", "2", "e0.0", "e1.0", "e0.1", "e1.1", "x"]}, '
        '"roles": {"source_n": 3, "source_m": 2, "path_len": 1, "faithful": false, '
        '"original": [0, 1, 2], "subdivision": {"0": 3, "1": 4}, "paths": {"0": [5], '
        '"1": [6]}, "hub": 7, "m_base": 2, "m": 3}}\n'), "")


def test_reduce_out_bytes(capsys, tmp_path):
    base = str(tmp_path / "gadget")
    argv = ("reduce", "--family", "path:3", "--path-len", "1", "--k", "1", "--out", base)
    assert run(capsys, *argv) == (
        0, f'{{"written": ["{base}.el", "{base}.json"], "gprime_n": 8}}\n', "")
    assert (tmp_path / "gadget.el").read_text() == "8\n0 3\n1 3\n1 4\n2 4\n3 5\n3 7\n4 6\n4 7\n"
    assert (tmp_path / "gadget.json").read_text() == (
        '{\n  "source_n": 3,\n  "source_m": 2,\n  "path_len": 1,\n  "faithful": false,\n'
        '  "original": [\n    0,\n    1,\n    2\n  ],\n'
        '  "subdivision": {\n    "0": 3,\n    "1": 4\n  },\n'
        '  "paths": {\n    "0": [\n      5\n    ],\n    "1": [\n      6\n    ]\n  },\n'
        '  "hub": 7,\n  "m_base": 2,\n  "m": 3\n}\n')
    assert run(capsys, *argv, "--plain") == (
        0, f"wrote {base}.el and {base}.json (8 vertices)\n", "")


@pytest.mark.parametrize("family, label", [
    ("join:fanchord:6,3,1+fanchord:6,3,1", "v2"),
    ("join:grid:2,2+grid:2,2", "01"),
])
def test_a_label_naming_several_vertices_is_exit_1(capsys, family, label):
    code, out, err = run(capsys, "classify", "--family", family, "--set-labels", label)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "KeyError", "message": f"label {label!r} names 2 vertices"}


def test_unknown_label_is_exit_1(capsys):
    assert run(capsys, "classify", "--family", "grid:3,3", "--set-labels", "zz") == (
        1, "", '{"error": "KeyError", "message": "no vertex labeled \'zz\'"}\n')


@pytest.mark.parametrize("tokens, bad", [("a", "a"), ("0, b ,1", "b"), ("1.5", "1.5")])
def test_a_set_token_that_is_no_index_is_exit_1(capsys, tokens, bad):
    assert run(capsys, "classify", "--family", "grid:3,3", "--set", tokens) == (
        1, "", '{"error": "ValueError", "message": "--set: \'%s\' is not a vertex index"}\n' % bad)


def test_label_on_an_unlabeled_file_graph_is_exit_1(capsys, tmp_path):
    el = tmp_path / "p3.el"
    el.write_text("3\n0 1\n1 2\n")
    code, out, err = run(capsys, "classify", "--file", str(el), "--set-labels", "0")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "KeyError",
                               "message": "graph carries no labels (looking up '0')"}


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


# parameter name, witness and subsets decided of each case below
SOLVED = {
    "gammap": ("gamma_p", [0], 2),
    "gammabar": ("gamma_bar_p", [0, 1, 2], 39),
    "zf": ("zero_forcing_number", [0, 1], 8),
    "fzf": ("failed_zero_forcing_number", [0, 2], 8),
    "dom": ("domination_number", [0, 2, 5], 41),
    "alpha": ("max_independent_set", [0, 2], 14),
}


@pytest.mark.parametrize(
    "command, family, value",
    [
        ("gammap", "path:6", 1),
        ("gammabar", "kmn:5,2", 3),
        ("zf", "cycle:6", 2),
        ("fzf", "cycle:4", 2),
        ("dom", "path:7", 3),
        ("alpha", "cycle:5", 2),
    ],
)
def test_solver_subcommands(capsys, command, family, value):
    parameter, witness, calls = SOLVED[command]
    assert run(capsys, command, "--family", family) == (0, (
        f'{{"parameter": "{parameter}", "value": {value}, "witness": {witness}, '
        f'"calls": {calls}}}\n'), "")
    assert run(capsys, command, "--family", family, "--plain") == (
        0, f"{parameter} = {value}\nwitness: {witness}\ncalls: {calls}\n", "")


def src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def newly_imported(module, names):
    """Which of `names` importing `module` loads, in a fresh interpreter,
    since pytest itself imports them; compared with the modules loaded
    before, since `site` preloads some on a host."""
    probe = (
        f"import sys; before = set(sys.modules); import {module}; "
        f"print(sorted({set(names)!r} & (set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=src_env(), check=True)
    return out.stdout.strip()


def test_import_leaves_out_dataclasses_and_inspect():
    assert newly_imported("powerdom.cli", ["dataclasses", "inspect"]) == "[]"


def test_library_import_leaves_out_argparse_and_json():
    # the benchmark's set-up imports `powerdom`; serialization and the
    # command line stay out of it
    assert newly_imported("powerdom", ["argparse", "json"]) == "[]"


@pytest.mark.parametrize("argv, code, error", [
    (["fzf", "--family", "path:18", "--budget", "0"], 2, "budget_exceeded"),
    (["gammabar", "--family", "cycle:2"], 1, "DomainError"),
])
def test_exit_codes_of_a_real_process(argv, code, error):
    # through `sys.exit(main())`, not main()'s return value
    out = subprocess.run([sys.executable, "-m", "powerdom.cli", *argv], capture_output=True,
                         text=True, env=src_env())
    assert (out.returncode, out.stdout, json.loads(out.stderr)["error"]) == (code, "", error)


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "grid:30,30"],
    ["generate", "--family", "path:3", "--plain"],  # fits the buffer: fails at the flush
])
def test_a_closed_pipe_is_exit_1_with_no_report(argv):
    # as in `powerdom generate ... | head -c 10`, but with the reading end
    # closed before the process starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "powerdom.cli", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=src_env())
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")
