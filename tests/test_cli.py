"""CLI behaviour: output, determinism, schemas, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from pascalhankel import cli, families, sequences, verify

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


def load_schema(name):
    path = resources.files("pascalhankel") / "schemas" / name
    return json.loads(path.read_text())


def test_matrix_det():
    code, out = run(["matrix", "det", "--family", "M2", "--n", "3"])
    assert code == 0
    assert out.strip() == "1"
    # a window of H1 with parity classes of unequal size: no Bareiss pass
    assert run("matrix det --family H1 --n 41 --k 401".split()) == (0, "0\n")


def test_matrix_det_takes_the_number_wall_for_hankel_blocks(monkeypatch):
    from pascalhankel import exact

    calls = []
    bareiss = exact._bareiss
    monkeypatch.setattr(exact, "_bareiss",
                        lambda *args, **kw: calls.append(1) or bareiss(*args, **kw))
    # both parity blocks of an H1 window are Catalan Hankel blocks with zero-free walls
    code, out = run("matrix det --family H1 --n 40 --k 400".split())
    assert code == 0 and int(out) != 0 and calls == []
    # H2's 7 x 7 wall meets a zero divisor: the pivoting Bareiss value
    code, out = run("matrix det --family H2 --n 7".split())
    m, sign = bareiss(families.window_of(families.H2, 7).to_rows(), pivot=True)
    assert code == 0 and calls and int(out) == sign * m[-1][-1]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # a usage error, help and three verbs: the cached parser answers each as a fresh one does
    cmds = ["matrix det --family M2", "--help", "verify item1 --n-max 8",
            "net t-value --p 3 --dims M1:a=0,M1:a=1 --m-max 3",
            "matrix det --family H1 --n 12 --k 5"]

    def runs():
        got = []
        for cmd in cmds:
            code, out = run(cmd.split())
            std = capsys.readouterr()
            # verify prints its elapsed time
            got.append((code, re.sub(r", [0-9.]+s\]", "]", out + std.out), std.err))
        return got

    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = runs()
    cli._build_parser.cache_clear()
    assert runs() == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0]
    assert cli._build_parser.cache_info().misses == 1


def test_matrix_show_csv_and_json():
    code, out = run(["matrix", "show", "--family", "P1:a=1", "--n", "2",
                     "--m", "2", "--k", "1"])
    assert code == 0
    assert out.strip().splitlines() == ["1,1", "1,2"]

    code, out = run(["matrix", "show", "--family", "H1", "--n", "3",
                     "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("matrix.schema.json"))
    assert payload["entries"][0] == ["1", "0", "-1"]


def test_matrix_show_deep_catalan_index():
    # C_2000 is reached by a cold call; it must not exhaust the recursion limit
    code, out = run(["matrix", "show", "--family", "H1", "--n", "2", "--k", "4000"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


# sha256 of stdout, JSON reports re-dumped without "elapsed": the exact
# bytes printed for LDU factors, a pivoting determinant and minor sweeps
PINNED_STDOUT = {
    "matrix ldu --family M2 --n 64":
        "1756db68e53ff179dfe27d6f497a0cfb193634354ec02228fa3cba09fa91ebf7",
    "matrix ldu --family P2 --n 40":
        "673d10226c4a3aaf3ffb7d6ce271b0a978ebc6e8f46208f74b2a1a1e7f0b965c",
    "matrix ldu --family H1 --n 30":
        "eac4cc2d6057a7727e5cedc48dc6362a3885576376b8ac7c570f4b9fad90fc88",
    "matrix det --family H1 --n 20 --k 200":
        "bad511771e8389bfd7a9b606a826fd512a82bad0c0841dac747c1532298321ef",
    "verify det-m1a --json":
        "a741bb57a5dcb351974a6a0de560773355fa55e19f270a2fe1070fc92f969fb7",
    "verify hankel-h1 --n-max 80 --json":
        "f8507747728b97e306224964d9e70e3d56f2c1fc765d2f8455153bca5e9ae958",
    "verify all --json":
        "ac31f88d1f9531205d89ddd4a5b1c96d36347c3a51fe08e185b568e3af4aae04",
    "verify group-law-m1 --a-range=-2:2 --n-max 8 --json":
        "cc307c7dcf388684c35196449b48aa84e70c72287dd7867a448b988dfd062412",
    "verify det-m1a --a-range=-2:2 --json":
        "8f49ec6598f6388879e8cb98047297ded975e3bb3a76e562a6e2307681982530",
    "verify item2 --a-range=-3:3 --n-max 12 --json":
        "0027b17755040f57d193ce0d13bc54d54468c98e32c929706141fe74a6567976",
    "verify item2 --a-range=-40:40 --n-max 24 --json":
        "0dac90e9b22ca63fac24199356e24b4176cb2abd561d99671d39f468169bd632",
    # continued fractions, text mode: every quotient and the exhaustion line
    "cf expand --series L1 --coeffs 161 --quotients 1000":
        "13f4024ce1c2dace184dfb8bbc9632ce3e6ed56b13335911e058045e7fb5a150",
    "cf expand --series L2 --coeffs 161 --quotients 1000":
        "29234ab81cfddec948d2f13f89d1372f09701bfe6565ad7772c9c38b4f4e9289",
    "cf expand --series L2 --coeffs 60 --quotients 12":
        "d0b3e519835651eedba4a6624f007bc3929ac8de893614d72246303fc39da1df",
    # digital nets, text mode: t-values, search rankings and point coordinates
    "net t-value --p 3 --dims M1:a=0,M1:a=1,M1:a=2 --m-max 12":
        "509c33e6ac3699598fb6eb6c7d0428e12f6c439952278f691cc33e2965120e35",
    "net search --p 3 --m-max 6 --candidates random --budget 20 --seed 1":
        "19b3ec2de65d14608f697ba48cb628bf90aa1866c329b2295ec682715a85638b",
    "net search --p 3 --m-max 5 --candidates m1 --budget 5":
        "53711a96d93b018b5bafa59a1d70b9af4924b8167c17f15344ff10e917763cc5",
    "net points --p 3 --dims M1:a=0,M1:a=1,M1:a=2 --m 6 --n 729":
        "54288989c6ab60c59335aceb054f4b903f2b42818638886b9487be325af723c0",
    # the sequence rows behind H1/H2 and L1/L2, and windows read from them
    "seq catalan --count 200":
        "21f0deb4c96904f36cada65939c415712990d3491a23b95c57c97109b6dce14c",
    "seq catalan --count 3000":
        "99a1e33f43a5f5afd000bf875d7800d68f6f4a91af9be2d83dd86676ebea8d64",
    "seq catalan_interspersed --count 200":
        "83c9189944423aa3195cf1ea08f55c6b2ef771285badd191cebe6e8ab5f13c19",
    "seq catalan_interspersed_mod2 --count 200":
        "46c8644a6398ddc7fc52fa9b14dab3f8f89d13b817b4421981d10284413a7b12",
    "seq paperfolding --count 200":
        "d1e3b784c0578ae616467cc3f335395b47ea855e2d2484885ec00b73955b52e9",
    "matrix show --family H2 --n 20 --k 100":
        "6588a5b6fffbe76f0e32132f2e84d4d33f69c797bed2bbd9ca9e5fc9b7c81e92",
    "matrix show --family H1 --n 12 --k 30":
        "a1e39bc4c75a301ef479f73e1efa1cde8eb11a9eae366aeacd63f0bd24b926f6",
}


def test_pinned_stdout_is_byte_identical():
    for cmd, digest in PINNED_STDOUT.items():
        code, out = run(cmd.split())
        assert code == 0
        if "--json" in cmd:
            reports = json.loads(out)
            for r in reports:
                r.pop("elapsed")
            out = json.dumps(reports)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, cmd


def test_matrix_rank_and_ldu():
    code, out = run(["matrix", "rank", "--family", "M2", "--n", "4", "--p", "2"])
    assert code == 0
    assert out.strip() == "4"
    # any prime below 2^64 is a field, up to the largest, 2^64 - 59
    for p in (10 ** 18 + 3, 2 ** 64 - 59):
        code, out = run(["matrix", "rank", "--family", "P1:a=3", "--n", "8", "--p", str(p)])
        assert (code, out.strip()) == (0, "8")
    code, out = run(["matrix", "ldu", "--family", "M2", "--n", "4"])
    assert code == 0
    assert "D: 1,-1,-1,1" in out


def test_verify_single_and_json_schema():
    code, out = run(["verify", "item1", "--n-max", "8"])
    assert code == 0
    assert "pass" in out

    code, out = run(["verify", "det-m2", "--n-max", "16", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("verification_report.schema.json"))
    assert payload[0]["passed"] is True


def test_verify_group_law_with_a_range():
    code, out = run(["verify", "group-law-m1", "--a-range=-2:2",
                     "--n-max", "8"])
    assert code == 0


def test_verify_all_passes():
    code, out = run(["verify", "all"])
    assert code == 0
    assert out.count("pass") == len(out.strip().splitlines())


def test_verify_failure_exit_code(monkeypatch):
    from pascalhankel import verify as v

    def broken(report, n_max):
        report.checked += 1
        report.fail("n=1", 0, 1)

    monkeypatch.setitem(v.IDENTITIES, "item1",
                        v.Identity(broken, {"n_max": 1}, "n <= {n_max}".format))
    code, out = run(["verify", "item1"])
    assert code == 1
    assert "FAIL" in out


def test_cf_expand():
    code, out = run(["cf", "expand", "--series", "L1", "--coeffs", "21",
                     "--quotients", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "integer part: 0"
    assert [l for l in lines if l.startswith("A_")] == \
        [f"A_{i} = X" for i in range(1, 11)]

    code, out = run(["cf", "expand", "--series", "L2", "--coeffs", "21",
                     "--quotients", "8", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["partial_quotients"][:4] == ["X", "-1*X", "-1*X", "-1*X"]
    assert payload["exhausted_precision"] is False


def test_seq_dump():
    code, out = run(["seq", "catalan", "--count", "5"])
    assert code == 0
    assert json.loads(out) == ["1", "1", "2", "5", "14"]

    code, out = run(["seq", "paperfolding", "--count", "3"])
    assert code == 0
    assert json.loads(out) == ["1", "-1", "-1"]

    # the Catalan rows print from their decimal text; the shortest counts end mid-pair
    for kind in ("catalan", "catalan_interspersed"):
        for count in (1, 2, 3):
            code, out = run(["seq", kind, "--count", str(count)])
            assert code == 0
            assert json.loads(out) == [str(sequences.SEQUENCES[kind](i)) for i in range(count)]


def test_net_t_value():
    code, out = run(["net", "t-value", "--p", "3", "--dims", "M1:a=0,M1:a=1",
                     "--m-max", "8"])
    assert code == 0
    assert "overall t = 0" in out


def test_net_points_and_discrepancy(tmp_path):
    code, out = run(["net", "points", "--p", "2", "--dims", "P1:a=0",
                     "--m", "2", "--n", "4"])
    assert code == 0
    assert out.strip().splitlines() == ["0/1", "1/2", "1/4", "3/4"]

    path = tmp_path / "points.csv"
    path.write_text(out)
    code, out = run(["net", "discrepancy", "--input", str(path)])
    assert code == 0
    assert out.strip() == "1/4"


def test_net_search():
    code, out = run(["net", "search", "--p", "3", "--m-max", "3",
                     "--candidates", "m1", "--budget", "1"])
    assert code == 0
    assert "M1:a=2" in out


def test_deterministic_output():
    args = ["verify", "det-m2", "--n-max", "32", "--json"]
    _, first = run(args)
    _, second = run(args)
    first = json.loads(first)[0]
    second = json.loads(second)[0]
    first.pop("elapsed")
    second.pop("elapsed")
    assert first == second


def test_usage_error_exit_code():
    code, _ = run(["matrix", "det", "--family", "M2"])  # missing --n
    assert code == 2
    code, _ = run(["frobnicate"])
    assert code == 2
    code, _ = run(["matrix", "det", "--family", "P3", "--n", "2"])
    assert code == 2
    code, _ = run(["net", "t-value", "--p", "3", "--dims", "M1:a=0,Q7", "--m-max", "2"])
    assert code == 2
    code, _ = run(["seq", "fibonacci", "--count", "1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    "item1 --k-max 3",            # options the identity's grid lacks
    "det-p1 --a-range=1:2",
    "hankel-h1 --a-range=1:2",
    "hankel-h2 --k-max 3",
    "all --n-max 8",              # grid flags with 'all'
    "no-such-identity",
    "item2 --a-range=5",          # malformed range
    "item2 --a-range=1:x",
    "lemma1 --n-max 0",           # sizes out of range
    "det-p1 --n-max -1",
    "det-p1 --k-max -1",
    "group-law-p1 --a-range=3:1",  # grids that check nothing
    "det-m1a --a-range=0:0",
    "item2 --a-range=0:0",
])
def test_verify_usage_error_exit_code(argv, capsys):
    code, out = run(["verify"] + argv.split())
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    "matrix det --family M2 --n -1",        # negative sizes
    "matrix show --family M2 --n 2 --k -1",
    "matrix rank --family M2 --n 3 --p 4",  # non-prime bases
    "matrix rank --family M2 --n 2 --p 18446744073709551629",  # a prime, 2^64 + 13
    "net t-value --p 4 --dims P1 --m-max 2",
    "net search --p 4 --budget 1",
    "net points --p 2 --dims P1 --m 2 --n 9",  # more points than p^m
    "net points --p 2 --dims P1 --m 2 --n 4 --format csv",  # points take no --format
    "cf expand --series L1 --coeffs 0 --quotients 3",
    "cf expand --series L1 --coeffs 5 --quotients -1",
    "net t-value --p 3 --dims P1 --m-max 0",
    "seq catalan --count -3",               # counts that dump or check nothing
    "seq catalan --count 0",
    "net search --budget -1",
    "net search --budget 0",
    "net search --p 2 --budget 1",         # the m1 walk a = 2 .. p - 1 is empty
    "matrix det --family M2 --n x",
    "matrix det --family P2 --n 2 --m 3",   # det and LDU take no --m
    "matrix det --family P2 --n 3 --m 3",
    "matrix ldu --family P2 --n 2 --m 3",
    "matrix ldu --family H1 --n 3 --k 1",   # a zero leading minor: no LDU exists
])
def test_out_of_range_argument_exit_code(argv, capsys):
    code, out = run(argv.split())
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("content", [
    "", "x,1/2\n", "1/0\n", "1/2,1/2\n1/4\n", "3/2\n", "1/2,1/2,1/2\n",
], ids=["empty", "malformed", "zero-denominator", "ragged", "outside-unit-cube",
        "three-dimensional"])
def test_discrepancy_input_error_exit_code(content, tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text(content)
    code, out = run(["net", "discrepancy", "--input", str(path)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("content, message", [
    ("1/2\n1/3,1/4\n", "point 1/3,1/4 has 2 coordinates, the first point has 1"),
    ("1/2,1/2\n1/4\n", "point 1/4 has 1 coordinates, the first point has 2"),
], ids=["longer", "shorter"])
def test_discrepancy_input_names_unequal_dimension(content, message, tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text(content)
    code, out = run(["net", "discrepancy", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


def test_internal_error_exit_code(monkeypatch, capsys):
    code, _ = run(["net", "discrepancy", "--input", "/nonexistent/points.csv"])
    assert code == 3
    # exact integers print past the interpreter's default 4300-digit limit
    code, out = run(["matrix", "show", "--family", "P1:a=10", "--n", "2", "--k", "5000"])
    assert code == 0
    assert [row.split(",") for row in out.splitlines()] == \
        [[str(math.comb(j, i) * 10 ** (j - i)) for j in (5000, 5001)] for i in (0, 1)]

    # a ValueError from inside the program is internal, not a usage mistake,
    # and an unexpected exception is an internal error too, never exit 1
    for error in (ValueError, TypeError):
        def crash(i, error=error):
            raise error("boom")

        monkeypatch.setitem(sequences.SEQUENCES, "catalan", crash)
        code, _ = run(["seq", "catalan", "--count", "2"])
        assert code == 3
    assert "TypeError: boom" in capsys.readouterr().err


def test_inexact_decimal_step_exits_3(monkeypatch, capsys):
    # a recurrence step that rounds (here at a 5-digit precision) prints no digit
    import decimal
    import types

    monkeypatch.setattr(sequences, "decimal",
                        types.SimpleNamespace(**{**vars(decimal), "MAX_PREC": 5}))
    for kind in ("catalan", "catalan_interspersed"):
        code, out = run(["seq", kind, "--count", "30"])
        assert (code, out) == (3, "")
    assert "error:" in capsys.readouterr().err


def test_readme_matches_the_cli():
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].split(">")[0].split() for line in block.splitlines()]
    examples = [words for words in lines if words]
    assert examples and all(words[0] == "pascalhankel" for words in examples)
    parser = cli._build_parser()
    for words in examples:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(words)}")
    # the identity table has one row per registry key, in registry order
    assert re.findall(r"^\| `([^`]+)` \|", text, re.M) == list(verify.IDENTITIES)
    # and each row names its identity's grid, defaults and flags exactly;
    # every grid key has a flag, so no option is reachable from Python only
    flags = {"n_max": "--n-max", "k_max": "--k-max", "a": "--a-range"}
    rows = re.findall(r"^\| `([^`]+)` \|.*?(?<!\\)\| (.*?) \| (.*?) \|$", text, re.M)
    assert [row[0] for row in rows] == list(verify.IDENTITIES)
    for identity_id, grid_cell, flag_cell in rows:
        grid = verify.IDENTITIES[identity_id].grid
        assert set(grid) <= set(flags), identity_id
        shown = dict(re.findall(r"`(\w+)=([^`]*)`", grid_cell))
        assert shown == {key: _grid_text(value) for key, value in grid.items()}, identity_id
        assert (re.findall(r"`(--[\w-]+)`", flag_cell)
                == [flags[key] for key in grid]), identity_id
    # the features x families table: a cell names registry keys, tests of
    # this suite, or a `matrix det` window that the feature fails on
    table = text.split("\n| feature | ", 1)[1].split("\n\n", 1)[0].splitlines()
    assert table[0] == " | ".join(families.KINDS) + " |"
    tests = "\n".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py"))
    for row in table[2:]:
        cells = re.split(r"(?<!\\)\|", row)[2:-1]
        assert len(cells) == len(families.KINDS), row
        for cell in cells:
            names = re.findall(r"`([^`]+)`", cell)
            assert names or cell.strip() == "n/a", row
            for name in names:
                if name.startswith("test_"):
                    assert f"def {name}(" in tests, name
                elif name.startswith("matrix det "):
                    assert cell.strip().startswith("fails:"), name
                    assert run(name.split()) == (0, "0\n"), name
                else:
                    assert name in verify.IDENTITIES, name


def _grid_text(value) -> str:
    """A default grid value as the README's identity table writes it."""
    if isinstance(value, int):
        return str(value)
    if value == tuple(range(value[0], value[-1] + 1)):
        return f"{value[0]}..{value[-1]}"
    return f"({','.join(map(str, value))})"
