import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import flatknots
from flatknots import catalog, cli, monotone_reduce, serialize
from flatknots.cli import main
from conftest import brute_force_splits, random_diagram, random_split_prone_diagrams
from test_catalog import CATALOG_SHA256


def run_cli(argv, stdin_text=None):
    """Run the CLI in-process; returns (exit_code, stdout_text)."""
    out = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def test_canon_examples():
    assert run_cli(["canon", "+2 -2 +1 -1"]) == (0, "+1 -1 +2 -2\n")
    assert run_cli(["canon", "0"]) == (0, "0\n")


def test_canon_parse_error_exit_2(capsys):
    code, _ = run_cli(["canon", "+1 +1"])
    assert code == 2


def test_reduce_examples():
    assert run_cli(["reduce", "+1 -1"]) == (0, "0 cr=0\n")
    code, out = run_cli(["reduce", "+1 +2 -1 -3 -2 +3"])
    assert code == 0 and out == "+1 +2 -1 -3 -2 +3 cr=3\n"


def test_reduce_every_two_arrow_code_batch():
    from flatknots import enumerate_diagrams

    codes = "\n".join(serialize(d) for d in enumerate_diagrams(2))
    code, out = run_cli(["reduce"], stdin_text=codes + "\n")
    assert code == 0
    assert out.splitlines() == ["0 cr=0"] * 4


def test_equiv_exit_codes():
    assert run_cli(["equiv", "+1 -1", "+1 -1"])[0] == 0
    assert run_cli(["equiv", "+1 -1", "0"])[0] == 0
    assert run_cli(["equiv", "+1 +2 -1 -3 -2 +3", "0"])[0] == 1
    assert run_cli(["equiv", "+1 oops", "0"])[0] == 2


def test_prime_examples():
    code, out = run_cli(["prime", "0"])
    assert code == 0 and out.startswith("trivial")
    code, out = run_cli(["prime", "+1 +2 -1 -3 -2 +3"])
    assert code == 0 and out.startswith("prime")
    code, out = run_cli(["prime", "+1 +2 -1 -2 +3 +4 -3 -4"])
    assert code == 0 and out.startswith("composite")
    assert "split=(0,4)" in out


def test_prime_all_splits():
    code, out = run_cli(["prime", "--all-splits", "+1 -2 +2 -1"])
    assert code == 0
    assert "split gap_a=0" in out  # degenerate splits of the empty diagram


# sha256 of `prime --all-splits` on every canonical word with n <= 5
# (3,274 codes, one per line on stdin), text and JSON
ALL_SPLITS_SHA256 = {
    "text": "cca123a1afee1bd430772f797f8509aad2c447fd8c57b6f3faf4d2c638fc4a26",
    "json": "49ec4b7645c10a5d3e100fba6c4256567586f0ba236f2ecd4eb9c0b664f7fea0",
}


@pytest.mark.parametrize("fmt", sorted(ALL_SPLITS_SHA256))
def test_prime_all_splits_bytes_are_pinned(fmt):
    codes = [serialize(d) for n in range(6) for d in flatknots.enumerate_diagrams(n)]
    assert len(codes) == 3274
    code, out = run_cli(["prime", "--all-splits", "--format", fmt], "".join(c + "\n" for c in codes))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_SPLITS_SHA256[fmt]


def test_prime_all_splits_rows_match_the_oracle_on_random_words():
    """The rows of `prime --all-splits` are the minimal diagram's splits
    with a same-gap row at every gap, as the brute-force oracle lists
    them with include_degenerate, on 4,000 of the random words
    `test_find_splits_matches_oracle_on_random_words` draws: two in ten,
    one a random word and one two words joined, which splits."""
    words = [
        serialize(d)
        for i, d in enumerate(random_split_prone_diagrams(random.Random(71), 20000))
        if i % 10 < 2
    ]
    code, out = run_cli(["prime", "--all-splits", "--format", "json"], "\n".join(words) + "\n")
    assert code == 0
    lines = out.splitlines()
    assert [json.loads(line)["input"] for line in lines] == words
    composite = 0
    for line in lines:
        obj = json.loads(line)
        rows = [(r["gap_a"], r["gap_b"], tuple(r["sides"])) for r in obj["splits"]]
        minimal = flatknots.parse(obj["minimal"])
        assert rows == brute_force_splits(minimal, include_degenerate=True), obj["input"]
        w = obj["witness"]
        witness = None if w is None else (w["gap_a"], w["gap_b"], tuple(w["sides"]))
        assert witness == next((r for r in rows if r[0] < r[1]), None), obj["input"]
        composite += obj["verdict"] == "composite"
    assert composite > 400


def test_csum_example():
    assert run_cli(["csum", "+1 -1", "0", "+1 -1", "0"]) == (0, "+1 -1 +2 -2\n")
    code, out = run_cli(["csum", "0", "0", "+1 -1 +2 -2", "2"])
    assert code == 0 and out == "+2 -2 +1 -1\n"


def test_text_output_computes_no_json_only_field(monkeypatch):
    """Text `reduce` prints no u-polynomial and text `csum` no canonical
    form of the sum, so neither computes one; JSON computes each once per
    code."""
    calls = {"u_polynomial": 0, "canonical_form": 0}
    for name in calls:

        def spy(d, name=name, real=getattr(cli, name)):
            calls[name] += 1
            return real(d)

        monkeypatch.setattr(cli, name, spy)
    codes = [serialize(d) for n in range(4) for d in flatknots.enumerate_diagrams(n)]
    rng = random.Random(91)
    sums = []
    for _ in range(8):
        d1 = random_diagram(rng, rng.randint(0, 3))
        d2 = random_diagram(rng, rng.randint(0, 3))
        g1, g2 = rng.randrange(max(d1.size, 1)), rng.randrange(max(d2.size, 1))
        sums.append([serialize(d1), str(g1), serialize(d2), str(g2)])
    for fmt, per_code in (("text", 0), ("json", 1)):
        for name in calls:
            calls[name] = 0
        status, out = run_cli(["--format", fmt, "reduce"], "".join(c + "\n" for c in codes))
        assert status == 0 and len(out.splitlines()) == len(codes)
        for argv in sums:
            assert run_cli(["--format", fmt, "csum", *argv])[0] == 0
        want = {"u_polynomial": per_code * len(codes), "canonical_form": per_code * len(sums)}
        assert calls == want, fmt


def test_permutants_output():
    code, out = run_cli(["permutants", "+1 -1", "+1 -1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "members=3"
    assert len(lines) == 4


def test_verify_superadd_equality_of_minimal_witnesses():
    code, out = run_cli(
        ["verify-superadd", "+1 +2 -1 -3 -2 +3", "+1 +2 -1 -3 -2 +3"]
    )
    assert code == 0
    assert "inequality-violations=0 equality-violations=0" in out
    assert all("cr=6" in line for line in out.splitlines() if line.startswith("member"))


def test_tabulate_text_and_file(tmp_path):
    path = tmp_path / "three.flatcat"
    code, out = run_cli(["tabulate", "3", "--out", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "flatcat v1 n=3 quotient=oriented"
    assert path.read_text() == out


@pytest.mark.parametrize("out", [False, True])
def test_tabulate_builds_each_text_line_once(out, tmp_path, monkeypatch, classified):
    """Each catalog line is built once for each output it goes to: by
    the command for stdout, and with --out by write_catalog too, right
    after, for a file that holds stdout's bytes."""
    built = []
    line = catalog._line

    def spy(record):
        built.append(record)
        return line(record)

    monkeypatch.setattr(catalog, "_line", spy)
    monkeypatch.setattr(flatknots.cli, "_line", spy)
    path = tmp_path / "five.flatcat"
    code, text = run_cli(["tabulate", "5"] + (["--out", str(path)] if out else []))
    assert code == 0
    assert built == [r for r in classified(5) for _ in range(1 + out)]
    assert text.count("\n") == len(classified(5)) + 1
    if out:
        assert path.read_text() == text


def test_tabulate_out_error_names_the_given_path(tmp_path, capsys):
    # a missing directory, and an existing directory given as the file
    target = tmp_path / "dir"
    target.mkdir()
    for path in (tmp_path / "missing" / "one.flatcat", target):
        capsys.readouterr()
        code, out = run_cli(["tabulate", "1", "--out", str(path)])
        err = capsys.readouterr().err
        _assert_input_error(code, out, err)
        assert str(path) in err and ".flatcat-" not in err
    # no temp file is left beside either target
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list(target.iterdir()) == []


def test_json_outputs_are_valid_json():
    commands = [
        ["--format", "json", "canon", "+1 -1"],
        ["--format", "json", "reduce", "+1 +2 -1 -2"],
        ["--format", "json", "equiv", "+1 -1", "0"],
        ["--format", "json", "prime", "+1 +2 -1 -2 +3 +4 -3 -4"],
        ["--format", "json", "csum", "+1 -1", "0", "+1 -1", "1"],
        ["--format", "json", "permutants", "+1 -1", "+1 -1"],
        ["--format", "json", "verify-superadd", "0", "+1 -1"],
        ["--format", "json", "tabulate", "2"],
    ]
    for argv in commands:
        code, out = run_cli(argv)
        assert code == 0, argv
        obj = json.loads(out)
        assert isinstance(obj, dict)


def test_json_flag_after_subcommand():
    code, out = run_cli(["canon", "--format", "json", "+2 -2 +1 -1"])
    assert code == 0
    assert json.loads(out)["canonical"] == "+1 -1 +2 -2"


def test_reduce_trace_then_replay(tmp_path):
    trace_file = tmp_path / "trace.json"
    code, _ = run_cli(["reduce", "--trace", str(trace_file), "+1 -2 +2 -1"])
    assert code == 0
    code, out = run_cli(["replay", "+1 -2 +2 -1", str(trace_file)])
    assert code == 0 and out == "0\n"
    # replay against the wrong start is a negative result, not an error
    code, _ = run_cli(["replay", "+1 +2 -1 -2", str(trace_file)])
    assert code == 1


def test_replay_rejects_tampered_trace(tmp_path):
    trace_file = tmp_path / "trace.json"
    run_cli(["reduce", "--trace", str(trace_file), "+1 -1"])
    obj = json.loads(trace_file.read_text())
    obj["end"] = "+1 -1"
    trace_file.write_text(json.dumps(obj))
    code, _ = run_cli(["replay", "+1 -1", str(trace_file)])
    assert code == 1


def _replay_malformed(tmp_path, capsys, obj):
    """Replay a hand-written trace file; return (exit code, stdout, stderr)."""
    trace_file = tmp_path / "bad.json"
    trace_file.write_text(json.dumps(obj))
    capsys.readouterr()
    code, out = run_cli(["replay", "+1 -1", str(trace_file)])
    return code, out, capsys.readouterr().err


def _assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_replay_top_level_list_exit_2(tmp_path, capsys):
    _assert_input_error(*_replay_malformed(tmp_path, capsys, []))


def test_replay_trace_that_is_not_json_exit_2(tmp_path, capsys):
    # the one error line says it was the trace that would not parse
    cases = (("", "line 1 column 1 (char 0)"), ('{"format"', "line 1 column 10 (char 9)"))
    for text, where in cases:
        trace_file = tmp_path / "not.json"
        trace_file.write_text(text)
        capsys.readouterr()
        code, out = run_cli(["replay", "+1 -1", str(trace_file)])
        err = capsys.readouterr().err
        _assert_input_error(code, out, err)
        assert err.startswith("error: trace is not JSON: ") and err.endswith(f" {where}\n")


def test_replay_deeply_nested_json_exit_2(tmp_path, capsys):
    trace_file = tmp_path / "deep.json"
    trace_file.write_text("[" * 200_000 + "]" * 200_000)
    capsys.readouterr()
    code, out = run_cli(["replay", "+1 -1", str(trace_file)])
    _assert_input_error(code, out, capsys.readouterr().err)


def test_replay_missing_steps_exit_2(tmp_path, capsys):
    obj = {"format": "flatknots-trace v1", "start": "0", "end": "0"}
    _assert_input_error(*_replay_malformed(tmp_path, capsys, obj))


def test_replay_step_without_variant_exit_2(tmp_path, capsys):
    obj = {
        "format": "flatknots-trace v1",
        "start": "0",
        "steps": [{"kind": "fr1-remove", "positions": [0, 1]}],
        "end": "0",
    }
    _assert_input_error(*_replay_malformed(tmp_path, capsys, obj))


def test_replay_insert_with_wrong_position_count_exit_1(tmp_path, capsys):
    # a well-formed step that does not fit its diagram is a negative
    # result, not an input error
    for kind, variant, positions in (("fr1-insert", "th", [0, 1]), ("fr2-insert", "Nth", [0])):
        step = {"kind": kind, "variant": variant, "positions": positions}
        obj = {"format": "flatknots-trace v1", "start": "+1 -1", "steps": [step], "end": "0"}
        code, out, err = _replay_malformed(tmp_path, capsys, obj)
        assert (code, out) == (1, "")
        assert err.startswith("replay failed: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["tabulate", "abc"], ["--format", "xml", "canon", "0"], ["equiv", "0"]]
)
def test_bad_arguments_exit_2_with_one_line(argv, capsys):
    capsys.readouterr()
    code, out = run_cli(argv)
    _assert_input_error(code, out, capsys.readouterr().err)


@pytest.mark.parametrize("n", ["-1", "13", "99999999999999999999"])
def test_tabulate_n_out_of_range_exit_2_with_one_line(n, capsys):
    capsys.readouterr()
    code, out = run_cli(["tabulate", n])
    err = capsys.readouterr().err
    _assert_input_error(code, out, err)
    assert err == "error: n must be between 0 and 12\n"


@pytest.mark.parametrize(
    "command",
    [
        ["canon", "0"],
        ["reduce", "0"],
        ["equiv", "0", "0"],
        ["prime", "0"],
        ["csum", "0", "0", "0", "0"],
        ["permutants", "0", "0"],
        ["verify-superadd", "0", "0"],
        ["tabulate", "0"],
        ["replay", "0", "missing.json"],
    ],
)
@pytest.mark.parametrize("value", ["0", "-5"])
def test_max_orbit_below_one_exit_2_for_every_command(command, value, capsys):
    for argv in (["--max-orbit", value, *command], [*command, "--max-orbit", value]):
        capsys.readouterr()
        code, out = run_cli(argv)
        assert (code, out, capsys.readouterr().err) == (
            2,
            "",
            "error: max_nodes must be >= 1\n",
        ), argv


def test_help_still_exits_0():
    with pytest.raises(SystemExit) as info:
        run_cli(["-h"])
    assert info.value.code == 0


def test_verify_superadd_rejects_sample_size_below_one(capsys):
    # 18 x 18 = 324 basepoint pairs would take the sampling path
    code9 = " ".join(f"+{k} -{k}" for k in range(1, 10))
    for size in ("0", "-1"):
        capsys.readouterr()
        code, out = run_cli(["verify-superadd", "--sample-size", size, code9, code9])
        _assert_input_error(code, out, capsys.readouterr().err)


def test_equiv_certificate_trace(tmp_path):
    trace_file = tmp_path / "cert.json"
    code, _ = run_cli(["equiv", "--trace", str(trace_file), "+1 -1 +2 -2", "0"])
    assert code == 0
    code, out = run_cli(["replay", "+1 -1 +2 -2", str(trace_file)])
    assert code == 0 and out == "0\n"


def test_reduce_replay_round_trip_random(tmp_path):
    rng = random.Random(99)
    trace_file = tmp_path / "trace.json"
    for _ in range(100):
        d = random_diagram(rng, rng.randint(0, 4))
        code = serialize(d)
        minimal, _ = monotone_reduce(d)
        exit_code, out = run_cli(["reduce", "--trace", str(trace_file), code])
        assert (exit_code, out) == (0, f"{serialize(minimal)} cr={minimal.n}\n")
        exit_code, out = run_cli(["replay", code, str(trace_file)])
        assert (exit_code, out) == (0, f"{serialize(minimal)}\n")


def test_repeated_runs_byte_identical():
    commands = [
        ["canon", "+2 -2 +1 -1"],
        ["reduce", "+1 +2 -1 -2"],
        ["--format", "json", "permutants", "+1 +2 -1 -2", "+1 +2 -1 -2"],
        ["verify-superadd", "--seed", "7", "+1 -1", "+1 -1"],
        ["tabulate", "3"],
    ]
    for argv in commands:
        assert run_cli(argv) == run_cli(argv), argv


def _check_console_script(command, env=None):
    """Run `command canon ...` as a process: one good code, one bad code."""
    ok = subprocess.run(
        [*command, "canon", "+2 -2 +1 -1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (ok.returncode, ok.stdout) == (0, "+1 -1 +2 -2\n"), ok.stderr
    bad = subprocess.run(
        [*command, "canon", "+1 +1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (bad.returncode, bad.stdout) == (2, ""), bad.stderr
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr


def test_console_script_entry_point():
    # The declared entry point is run from source the way the generated
    # wrapper runs it, so the test needs no installed package; an installed
    # `flatknots` script is checked too wherever one is on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["flatknots"]
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(Path(flatknots.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    _check_console_script([sys.executable, "-c", wrapper], env)
    installed = shutil.which("flatknots")
    if installed:
        _check_console_script([installed])


@pytest.mark.parametrize(
    "argv,status",
    [(["tabulate", "4"], 0), (["canon", "+2 -2 +1 -1"], 0), (["equiv", "+1 -1", "0"], 0)],
)
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv, status):
    """A reader that closes the pipe early is not an input error (2),
    and 1 would read as "not equivalent": the CLI exits 128 + SIGPIPE.
    The same command into an open pipe exits with its answer."""
    src = str(Path(flatknots.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "flatknots.cli", *argv]
    env = {**os.environ, "PYTHONPATH": path}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (closed.returncode, closed.stderr) == (141, b"")
    opened = subprocess.run(command, capture_output=True, env=env, timeout=60)
    assert opened.returncode == status and opened.stdout and opened.stderr == b""


def test_max_orbit_flag_budget_error():
    code, _ = run_cli(
        ["--max-orbit", "1", "reduce", "+1 +2 -1 -2 +3 +4 -3 +5 -4 -5"]
    )
    assert code == 2


# a minimal diagram with a two-node FR3 orbit, u = 0
_TWO_NODE = "+1 +2 -1 -2 +3 +4 -3 +5 -4 -5"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_equiv_under_a_one_node_budget_is_pinned(fmt, tmp_path, capsys):
    """A pair whose u-polynomials differ is refuted without an orbit
    search, so `--max-orbit 1` cannot stop it: exit 1, not-equivalent,
    and no certificate file.  A pair with equal u-polynomials reduces
    and hits the budget: exit 2 with one error line."""
    cert = tmp_path / "cert.json"
    capsys.readouterr()
    argv = ["--format", fmt, "--max-orbit", "1", "equiv", "--trace", str(cert)]
    code, out = run_cli(argv + [_TWO_NODE, "+1 +2 -1 -3 -2 +3"])
    want = {
        "text": "not-equivalent\n",
        "json": '{"equivalent":false,"inputs":["+1 +2 -1 -2 +3 +4 -3 +5 -4 -5","+1 +2 -1 -3 -2 +3"]}\n',
    }[fmt]
    assert (code, out, capsys.readouterr().err) == (1, want, "")
    assert not cert.exists()
    code, out = run_cli(["--format", fmt, "--max-orbit", "1", "equiv", _TWO_NODE, "0"])
    err = capsys.readouterr().err
    _assert_input_error(code, out, err)
    assert err == (
        f"error: FR3 orbit of {_TWO_NODE} exceeds the 1-node budget "
        "(nodes explored: 1, expanded: 1)\n"
    )


def test_tabulate_budget_error_exit_2_with_one_line(capsys):
    # classify scans only the orbits of diagrams with no decreasing site,
    # so the first orbit search over budget starts at such a diagram
    capsys.readouterr()
    code, out = run_cli(["tabulate", "5", "--max-orbit", "1"])
    err = capsys.readouterr().err
    _assert_input_error(code, out, err)
    assert "+1 +2 -1 -2 +3 +4 -3 +5 -4 -5 exceeds the 1-node budget" in err


def test_tabulate_budget_error_keeps_an_existing_out_file(tmp_path, capsys):
    path = tmp_path / "keep.flatcat"
    path.write_bytes(b"old bytes\n")
    capsys.readouterr()
    code, out = run_cli(["tabulate", "5", "--max-orbit", "1", "--out", str(path)])
    _assert_input_error(code, out, capsys.readouterr().err)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["keep.flatcat"]


def _json_catalog(n, records):
    """The `--format json tabulate n` stdout, built from the list form."""
    obj = {
        "n": n,
        "quotient": "oriented",
        "records": [
            {
                "class": r.class_id,
                "code": r.code,
                "cr": r.cr,
                "orbit": r.orbit_size,
                "u": r.u_text,
                "verdict": r.verdict,
            }
            for r in records
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("n", range(6))
def test_tabulate_json_streams_the_list_forms_bytes(n, classified):
    code, out = run_cli(["--format", "json", "tabulate", str(n)])
    assert code == 0
    assert out == _json_catalog(n, classified(n))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_tabulate_out_and_stdout_bytes_are_pinned(n, tmp_path):
    path = tmp_path / "catalog.flatcat"
    code, out = run_cli(["tabulate", str(n), "--out", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CATALOG_SHA256[n]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CATALOG_SHA256[n]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_tabulate_json_with_out_writes_the_text_catalog_file(n, tmp_path, classified):
    # the file is the text catalog whatever --format says; stdout is JSON
    path = tmp_path / "catalog.flatcat"
    code, out = run_cli(["--format", "json", "tabulate", str(n), "--out", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CATALOG_SHA256[n]
    assert out == _json_catalog(n, classified(n))


def test_tabulate_writes_its_out_file_through_write_catalog(tmp_path, monkeypatch):
    """`write_catalog` is the one catalog file writer: `tabulate --out`
    calls it once, and `tabulate` without `--out` not at all."""
    calls = []
    real = catalog.write_catalog

    def spy(records, path, n):
        calls.append((path, n))
        return real(records, path, n)

    # every flatknots module attribute bound to the writer, as the tracer does
    for name, mod in list(sys.modules.items()):
        if (name == "flatknots" or name.startswith("flatknots.")) and getattr(
            mod, "write_catalog", None
        ) is real:
            monkeypatch.setattr(mod, "write_catalog", spy)
    path = tmp_path / "three.flatcat"
    code, out = run_cli(["tabulate", "3", "--out", str(path)])
    assert (code, calls) == (0, [(str(path), 3)])
    assert path.read_text() == out
    calls.clear()
    assert run_cli(["tabulate", "3"]) == (0, out)
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["tabulate", "3", "--out", ""],
        ["reduce", "--trace", "", "+1 -1"],
        ["equiv", "--trace", "", "+1 -1", "0"],
    ],
)
def test_empty_file_name_is_an_input_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    _assert_input_error(code, out, err)
    assert "empty file name" in err
    assert list(tmp_path.iterdir()) == []


def _every_command_digest(fmt, tmp_path, capsys) -> str:
    """sha256 over the exit code, stdout and stderr of a fixed run of
    every command under `--format fmt`, and of each --out file written."""
    h = hashlib.sha256()

    def run(argv, stdin_text=None):
        capsys.readouterr()
        code, out = run_cli(["--format", fmt] + argv, stdin_text)
        h.update(json.dumps([code, out, capsys.readouterr().err]).encode())

    codes = "".join(
        serialize(d) + "\n" for n in range(4) for d in flatknots.enumerate_diagrams(n)
    )
    for argv in (["canon"], ["reduce"], ["prime"], ["prime", "--all-splits"]):
        run(argv, codes)
    rng = random.Random(39)
    for _ in range(60):
        d1 = random_diagram(rng, rng.randint(0, 4))
        d2 = random_diagram(rng, rng.randint(0, 4))
        c1, c2 = serialize(d1), serialize(d2)
        g1 = rng.randrange(max(d1.size, 1))
        g2 = rng.randrange(max(d2.size, 1))
        run(["equiv", c1, c2])
        run(["csum", c1, str(g1), c2, str(g2)])
        run(["permutants", c1, c2])
        run(["verify-superadd", c1, c2, "--sample-size", "5", "--seed", "3"])
    start = serialize(random_diagram(rng, 6))
    trace = tmp_path / "trace.json"
    run(["reduce", start, "--trace", str(trace)])
    run(["replay", start, str(trace)])
    path = tmp_path / "catalog.flatcat"
    for n in range(5):
        run(["tabulate", str(n)])
        run(["tabulate", str(n), "--out", str(path)])
        h.update(path.read_bytes())
    run(["tabulate", "5", "--max-orbit", "1"])
    run(["canon", "+1 +1"])
    return h.hexdigest()


# _every_command_digest in each format
EVERY_COMMAND_SHA256 = {
    "text": "c113abd7cd7745b5d9b9206843ccc9395e0ee1a940a1e8fc727cee14561ea249",
    "json": "f3b28f54e6e583f6afd586392c10dd49530032092d194192a5f096d21d16a8a8",
}


@pytest.mark.parametrize("fmt", sorted(EVERY_COMMAND_SHA256))
def test_every_commands_bytes_are_pinned(fmt, tmp_path, capsys):
    assert _every_command_digest(fmt, tmp_path, capsys) == EVERY_COMMAND_SHA256[fmt]
