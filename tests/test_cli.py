"""Workspace parsing and the command-line surface."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from tiltlab import cli, rep
from tiltlab.errors import NotBasic, ParseError, ValidationError


@pytest.fixture(scope="module")
def bundled():
    return str(resources.files("tiltlab").joinpath("data/running.tilt"))


@pytest.fixture(scope="module")
def ws(bundled):
    return cli.parse_workspace(bundled)


def test_bundled_workspace_contents(ws):
    assert ws.algebra.dim == 5
    assert sorted(ws.modules) == ["0", "1", "12", "2", "23", "3", "T"]
    assert ws.module("T").dim_vector() == (2, 2, 1)
    assert ws.module("23").dim_vector() == (0, 1, 1)
    assert "W" in ws.complexes
    assert ws.complexes["W"].support == [-1, 0]


def test_bundled_t_is_the_expected_sum(ws):
    a = ws.algebra
    t = rep.direct_sum([rep.projective(a, 2), rep.projective(a, 1),
                        rep.simple(a, 1)])[0]
    assert rep.is_isomorphic(ws.module("T"), t) is not None


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.tilt"
    path.write_text("")
    with pytest.raises(ParseError):
        cli.parse_workspace(str(path))


def test_missing_header(tmp_path):
    path = tmp_path / "bad.tilt"
    path.write_text("[algebra]\nvertices 1\n")
    with pytest.raises(ParseError):
        cli.parse_workspace(str(path))


def test_inadmissible_relation_is_a_validation_error(tmp_path):
    path = tmp_path / "bad.tilt"
    path.write_text("tiltlab-format 1\n[algebra]\nvertices 1 2\n"
                    "arrow a: 1 -> 2\nrelation e1\n")
    with pytest.raises(ValidationError):
        cli.parse_workspace(str(path))


def test_module_violating_relations_rejected(tmp_path):
    path = tmp_path / "bad.tilt"
    path.write_text(
        "tiltlab-format 1\n[algebra]\nvertices 1 2 3\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 3\nrelation a*b\n"
        "[module M]\ndims 1:1 2:1 3:1\nmap a [[1]]\nmap b [[1]]\n")
    with pytest.raises(ValidationError):
        cli.parse_workspace(str(path))


def test_serialization_round_trip(ws, tmp_path):
    text = cli.serialize_workspace(ws)
    path = tmp_path / "copy.tilt"
    path.write_text(text)
    again = cli.parse_workspace(str(path))
    for name, m in ws.modules.items():
        assert m.encode() == again.modules[name].encode()
    assert again.complexes["W"].encode() == ws.complexes["W"].encode()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_miyashita_exit_codes(bundled, capsys):
    code, out, _ = run_cli(capsys, "miyashita", bundled, "--module", "0")
    assert code == 0 and "class 0" in out and "zero" in out
    code, out, _ = run_cli(capsys, "miyashita", bundled, "--module", "3")
    assert code == 0 and "class 2" in out
    code, out, _ = run_cli(capsys, "miyashita", bundled, "--module", "2")
    assert code == 0 and "no single class" in out


def test_refusal_exits_with_two(bundled, capsys):
    code, _, err = run_cli(capsys, "filtration", bundled,
                           "--module", "2", "--method", "static")
    assert code == 2
    assert "refused" in err


def test_lo_filtration_of_simple_2(bundled, capsys):
    code, out, _ = run_cli(capsys, "filtration", bundled,
                           "--module", "2", "--method", "lo")
    assert code == 0
    assert "[0, 0, 0] <= [0, 1, 0] <= [0, 1, 0] <= [0, 1, 0]" in out


def test_error_exits_with_one(bundled, capsys):
    code, _, err = run_cli(capsys, "miyashita", bundled,
                           "--module", "missing")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "ext-table", "/no/such/file.tilt")
    assert code == 1


def test_a_jms_refusal_at_the_search_cap_names_the_cap(bundled, capsys):
    # factor 0 of 2 is coker(3 -> 2/3), but the 2^1 maps of Hom(3, 2/3)
    # exceed cap 1, so that pair is skipped and the search is cut by the cap
    code, out, err = run_cli(capsys, "filtration", bundled, "--module", "2",
                             "--method", "jms", "--search-cap", "1")
    assert code == 1 and not out
    assert err == ("error: no bounded witness for factor 0 (search cap 1 "
                   "reached: skipped pairs (U, V): 1, the largest with 2^1 "
                   "maps)\n")
    code, out, _ = run_cli(capsys, "filtration", bundled, "--module", "2",
                           "--method", "jms")
    assert code == 0 and "factor E_0: [0, 1, 0]" in out


def test_check_tilting_report(bundled, capsys):
    code, out, _ = run_cli(capsys, "check-tilting", bundled)
    assert code == 0
    assert "tilting: yes (n = 2)" in out
    assert "P_2: [[0, 0, 1]]" in out


def test_a_non_basic_tilting_module_is_refused_only_where_b_is_read(
        tmp_path, capsys):
    # T (+) 12 on the running example: tilting, but End(T) is not basic
    path = tmp_path / "nonbasic.tilt"
    path.write_text(
        "tiltlab-format 1\n[algebra]\nvertices 1 2 3\nfield 2\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 3\nrelation a*b\n"
        "[module 2]\ndims 1:0 2:1 3:0\n"
        "[module T]\ndims 1:3 2:3 3:1\n"
        "map a [[0,0,0],[1,0,0],[0,0,1]]\nmap b [[1,0,0]]\n")
    code, out, _ = run_cli(capsys, "check-tilting", str(path))
    assert code == 0 and "tilting: yes (n = 2)" in out
    ws = cli.parse_workspace(str(path))
    for argv in (["tor-table"], ["bside"],
                 ["filtration", "--module", "2", "--method", "static"]):
        args = cli.build_parser(argv[0]).parse_args(
            [argv[0], str(path)] + argv[1:])
        with pytest.raises(NotBasic):
            cli.COMMANDS[argv[0]](ws, args)


def test_ttree_rendering(bundled, capsys):
    code, out, _ = run_cli(capsys, "ttree", bundled, "--module", "2")
    assert code == 0
    assert "X_00: H^0=(0, 1, 1)" in out
    assert "X_01: H^-1=(0, 0, 1)" in out
    assert "X_11: 0" in out


def test_machine_format_and_determinism(bundled, capsys):
    code, out1, _ = run_cli(capsys, "derived-indec", bundled,
                            "--format", "machine")
    assert code == 0
    data = json.loads(out1)
    assert data["count"] == 6
    code, out2, _ = run_cli(capsys, "derived-indec", bundled,
                            "--format", "machine")
    assert out1 == out2


def test_hearts_and_verify(bundled, capsys):
    code, out, _ = run_cli(capsys, "hearts", bundled, "--format", "machine")
    assert code == 0
    hearts = json.loads(out)["hearts"]
    assert len(hearts["0"]) == 5
    assert len(hearts["1"]) == 6
    assert len(hearts["2"]) == 5
    code, out, _ = run_cli(capsys, "verify", bundled)
    assert code == 0
    assert "FAIL" not in out


def test_bside_report(bundled, capsys):
    code, out, _ = run_cli(capsys, "bside", bundled)
    assert code == 0
    assert "vertices (4, 5, 6)" in out
    assert "relations: 1" in out
    assert "[[0, 0, 1], [0, 1, 1], [1, 1, 0]]" in out


def test_tor_table_contains_witness(bundled, capsys):
    code, out, _ = run_cli(capsys, "tor-table", bundled, "--format",
                           "machine")
    assert code == 0
    table = json.loads(out)["table"]
    # Tor_2(T, Ext^1(T,2)) is one-dimensional: the static-failure witness
    assert table["2"][2][1] == 1
    assert table["2"][2][0] == 0


COMMAND_OPTIONS = {"miyashita": ["--module", "12"],
                   "ttree": ["--module", "12"],
                   "filtration": ["--module", "12", "--method", "jms"]}


@pytest.mark.parametrize("argv", [
    [name, "ws.tilt", "--n", "2", "--field", "3", "--dim-bound", "3",
     "--width-bound", "1", "--search-cap", "64", "--tilting", "U",
     "--format", "machine"] + COMMAND_OPTIONS.get(name, [])
    for name in cli.COMMANDS] + [["hearts", "ws.tilt"],
                                 ["filtration", "ws.tilt", "--module", "1"]])
def test_the_parser_of_one_command_reads_argv_as_the_full_parser(argv):
    assert cli.build_parser(argv[0]).parse_args(argv) \
        == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus", "x"],
                                  ["hearts", "x", "extra"]])
def test_usage_and_errors_list_every_command(argv, capsys):
    with pytest.raises(SystemExit):
        cli.main(argv)
    text = capsys.readouterr()
    assert "{" + ",".join(cli.COMMANDS) + "}" in text.out + text.err


def test_a_reader_that_has_gone_is_a_quiet_failure(bundled):
    """tiltlab ... | true: the write to the closed pipe exits with code 1
    and leaves stderr empty, also at interpreter shutdown."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tiltlab.cli", "derived-indec", bundled,
         "--dim-bound", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
