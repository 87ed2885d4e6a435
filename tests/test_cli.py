"""Command-line interface: exit codes, text and JSON output, file writing."""

import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import oracles
from flatkit import cli, flatcore, spin

from conftest import DATA, build_2ngon, build_bad_square


def child_env() -> dict:
    """The environment of a child interpreter that imports the same flatkit as this one."""
    package_root = str(pathlib.Path(cli.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def modules_loaded_by(commands, modules) -> str:
    """Which of the modules a fresh interpreter has loaded after running the commands."""
    code = (
        "import contextlib, io, sys\n"
        "from flatkit import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        f"print(sorted({set(modules)!r} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    return proc.stdout.strip()


def test_strata_loads_neither_origami_nor_spin():
    """Each subcommand imports only the modules it runs."""
    commands = [["strata", "--genus", "3"]]
    assert modules_loaded_by(commands, ["flatkit.origami", "flatkit.spin"]) == "[]"


def test_origami_commands_do_not_load_the_enumeration_engine(tmp_path):
    """analyze, orbit, spin, act and render on an origami never import flatkit.census."""
    origami_path = str(DATA / "l5.origami")
    commands = [
        ["analyze", origami_path],
        ["orbit", origami_path],
        ["spin", origami_path],
        ["act", origami_path, "--matrix", "1", "1", "0", "1", "-o", str(tmp_path / "t.json")],
        ["render", origami_path, "-o", str(tmp_path / "l5.svg")],
    ]
    modules = ["flatkit.origami", "flatkit.spin", "flatkit.census"]
    assert modules_loaded_by(commands, modules) == "['flatkit.origami', 'flatkit.spin']"
    assert (tmp_path / "t.json").exists() and (tmp_path / "l5.svg").exists()


def test_permutation_commands_do_not_load_the_polygon_model():
    """analyze, orbit and spin on an origami, and divisor, never import flatkit.flatcore:
    the records and the stratum signature come from flatkit._base."""
    origami_path = str(DATA / "l5.origami")
    commands = [
        ["analyze", origami_path],
        ["analyze", origami_path, "--json"],
        ["orbit", origami_path],
        ["spin", origami_path],
        ["divisor", "--branch", "0,1,2,-1,3,-2", "--form", "(z-10)^2"],
    ]
    modules = ["flatkit._base", "flatkit.flatcore", "flatkit.gl2", "flatkit.hyperell"]
    assert modules_loaded_by(commands, modules) == "['flatkit._base', 'flatkit.hyperell']"


def test_enumeration_entry_points_keep_their_kind():
    """The entry points of flatkit.census stay in origami and spin: the two
    enumerators are generator functions, the scan a plain function."""
    import inspect

    from flatkit import origami

    assert inspect.isgeneratorfunction(origami.origamis_in_stratum)
    assert inspect.isgeneratorfunction(origami.stratum_pairs_raw)
    assert not inspect.isgeneratorfunction(spin.hyperelliptic_scan)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_surface_text(capsys):
    code, out, err = run_cli(capsys, "analyze", str(DATA / "octagon.json"))
    assert code == 0
    assert err == ""
    assert "stratum: H(2)" in out
    assert "genus: 2" in out
    assert "cone angles: 6pi" in out
    assert "period rank: 4" in out


def test_analyze_surface_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(DATA / "decagon.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert payload["stratum_orders"] == [1, 1]
    assert payload["period_rank"] == 5
    assert payload["kind"] == "surface"


def test_analyze_origami(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(DATA / "l5.origami"))
    assert code == 0
    assert "degree: 5" in out
    assert "stratum: H(2)" in out
    assert "spin parity: 1" in out
    assert "component: connected" in out


ORIGAMI_FILES = {
    "torus.origami": "d: 1\nh: ()\nv: ()\n",
    "h11.origami": "d: 4\nh: (1,2,3,4)\nv: (1,3)\n",
}
PINNED_TEXT = {  # command line -> full stdout; PATH stands for the input file
    "analyze l5.origami": """\
input: PATH (origami)
degree: 5
genus: 2
stratum: H(2)
cone angles: 6pi, 2pi, 2pi
period rank: 4
integral periods: yes
spin parity: 1
component: connected
""",
    "analyze decagon.json": """\
input: PATH (surface)
genus: 2
stratum: H(1,1)
cone angles: 4pi, 4pi
period rank: 5
integral periods: yes
""",
    "analyze torus.origami": """\
input: PATH (origami)
degree: 1
genus: 1
stratum: H() [torus]
cone angles: 2pi
period rank: 2
integral periods: yes
spin parity: 1
component: connected
""",
    "analyze h11.origami": """\
input: PATH (origami)
degree: 4
genus: 2
stratum: H(1,1)
cone angles: 4pi, 4pi
period rank: 5
integral periods: yes
component: connected
note: spin parity undefined (odd zero order)
""",
    "orbit l3.origami": """\
orbit size: 3
cusp widths: [2, 1]
  [0] h: (2,3)  v: (1,2)
  [1] h: (2,3)  v: (1,2,3)
  [2] h: (1,2,3)  v: (2,3)
""",
    "spin l3.origami": "spin parity: 1\n",
    "strata --genus 1": """\
genus 1: 1 strata
  H(): dim 2, components {connected}
""",
    "strata --genus 3": """\
genus 3: 5 strata
ambient (curve, form) dimension: 9; hyperelliptic locus: 5
  H(4): dim 6, components {hyperelliptic, odd_spin}
  H(3,1): dim 7, components {connected}
  H(2,2): dim 7, components {hyperelliptic, odd_spin}
  H(2,1,1): dim 8, components {connected}
  H(1,1,1,1): dim 9, components {connected}
""",
    "divisor --branch 0,1,2,-1,3,-2 --form (z-10)^2": """\
genus 2, form (z-10)^2 * dz/x
  pair(10): order 2
  inf+: order -1
  inf-: order -1
total order: 2
holomorphic: no
""",
}


@pytest.mark.parametrize("line", list(PINNED_TEXT))
def test_text_output_is_pinned(tmp_path, capsys, line):
    """The full text stdout of each command, rendered from its JSON payload."""
    argv = line.split()
    expected = PINNED_TEXT[line]
    if argv[0] in ("analyze", "orbit", "spin"):
        name = argv[1]
        path = DATA / name
        if name in ORIGAMI_FILES:
            path = tmp_path / name
            path.write_text(ORIGAMI_FILES[name])
        argv[1] = str(path)
        expected = expected.replace("PATH", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def test_analyze_builds_one_quadratic_form(tmp_path, capsys, monkeypatch):
    # H(4), odd spin: classify_component already computes the parity analyze prints
    path = tmp_path / "h4_odd.origami"
    path.write_text("d: 5\nh: (1,2,4,5,3)\nv: (2,4)(3,5)\n")
    calls = []
    build = spin.build_quadratic_form

    def counted(o, rng=None):
        calls.append(o)
        return build(o, rng)

    monkeypatch.setattr(spin, "build_quadratic_form", counted)
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "spin parity: 1" in out
    assert "component: odd_spin" in out
    assert len(calls) == 1


def test_analyze_invalid_surface(tmp_path, capsys):
    path = tmp_path / "bad.json"
    flatcore.dump_surface(build_bad_square(), str(path))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "invalid:" in err
    assert "not opposite" in err


@pytest.mark.parametrize("command", ["act", "render"])
def test_invalid_surface_lines(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    flatcore.dump_surface(build_bad_square(), str(path))
    extra = ["--matrix", "1,1,0,1"] if command == "act" else ["-o", str(tmp_path / "bad.svg")]
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "invalid: paired edge vectors not opposite: (0, 0) and (0, 3)",
        "invalid: paired edge vectors not opposite: (0, 1) and (0, 2)",
    ]


def test_analyze_validates_once(validation_calls, capsys):
    code, _, _ = run_cli(capsys, "analyze", str(DATA / "octagon.json"))
    assert code == 0
    assert len(validation_calls) == 1


def test_analyze_never_validates_an_origami(validation_calls, capsys):
    """An origami's invariants come from its permutations: no polygon is validated."""
    code, _, _ = run_cli(capsys, "analyze", str(DATA / "l5.origami"))
    assert code == 0
    assert validation_calls == []


def test_analyze_unreadable_input(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{ not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["analyze", "spin", "orbit"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "binary.origami"
    path.write_bytes(b"d: 2\nh: (1,2)\xff\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot read {path}: not UTF-8 text\n"


@pytest.mark.parametrize("command", ["analyze", "act", "render"])
def test_deeply_nested_json_is_an_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    extra = {"act": ["--matrix", "1,1,0,1"], "render": ["-o", str(tmp_path / "deep.svg")]}
    code, out, err = run_cli(capsys, command, str(path), *extra.get(command, []))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {path}: JSON nested too deeply"]
    assert "Traceback" not in err


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
SQUARE_PAIRS = [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"polygons": 4, "pairings": SQUARE_PAIRS}, '"polygons" must be a list'),
        ({"polygons": [SQUARE], "pairings": {"0": 2}}, '"pairings" must be a list'),
        ({"polygons": [7], "pairings": SQUARE_PAIRS}, "polygon 0 must be a list"),
        ({"polygons": [[[0, 0, 0], [1, 0], [1, 1]]], "pairings": []}, "vertex of polygon 0"),
        ({"polygons": [SQUARE], "pairings": [SQUARE_PAIRS[0], 3]}, "pairing entry must be a pair"),
        ({"polygons": [SQUARE], "pairings": [[[0, 0], [0, 2], [0, 1]]]}, "pairing entry must be a pair"),
        ({"polygons": [SQUARE], "pairings": [[[0, 0], 2], SQUARE_PAIRS[1]]}, "edge reference"),
        ({"polygons": [SQUARE], "pairings": [[[0.9, 0], [0, 2]], SQUARE_PAIRS[1]]}, "must be integers, got [0.9, 0]"),
        ({"polygons": [SQUARE], "pairings": [[[0, True], [0, 3]], [[0, 0], [0, 2]]]}, "must be integers, got [0, True]"),
        ([1, 2], "surface JSON must be an object"),
        # A repeated key is refused, not read as its last value (text, since a dict cannot repeat one).
        (f'{{"polygons": [{SQUARE}], "pairings": [], "pairings": {SQUARE_PAIRS}}}', "key 'pairings' appears twice"),
        (f'{{"polygons": [{SQUARE}], "pairings": {SQUARE_PAIRS}, "polygons": []}}', "key 'polygons' appears twice"),
        ({"polygons": [SQUARE], "pairings": SQUARE_PAIRS, "name": "square"}, "unknown key 'name'"),
        ({"polygons": [SQUARE]}, "missing key 'pairings'"),
    ],
    ids=[
        "polygons_not_list", "pairings_not_list", "polygon_not_list", "vertex_not_pair",
        "entry_not_pair", "entry_of_three", "edge_not_pair", "index_float", "index_bool",
        "top_level_array", "pairings_twice", "polygons_twice", "unknown_key", "missing_key",
    ],
)
def test_analyze_malformed_surface_json(tmp_path, capsys, payload, message):
    path = tmp_path / "malformed.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def _square_json(x1: object) -> str:
    """The unit square, with x1 written for its coordinate 1 on the x axis."""
    poly = [[0, 0], [x1, 0], [x1, 1], [0, 1]]
    return json.dumps({"polygons": [poly], "pairings": SQUARE_PAIRS})


REFUSED_SPELLINGS = [
    ("degree_underscore.origami", "d: 0_3\nh: (1,2,3)\nv: ()\n", "line 1: bad degree '0_3'"),
    ("degree_arabic.origami", "d: \u0663\nh: (1,2,3)\nv: ()\n", "line 1: bad degree '\u0663'"),
    ("degree_plus.origami", "d: +3\nh: (1,2,3)\nv: ()\n", "line 1: bad degree '+3'"),
    ("doubled_comma.origami", "d: 2\nh: (1,,2)\nv: ()\n", "line 2: unparsed text '(1,,2)' in cycle notation '(1,,2)'"),
    ("trailing_comma.origami", "d: 2\nh: (1,2,)\nv: ()\n", "line 2: unparsed text '(1,2,)' in cycle notation '(1,2,)'"),
    ("label_plus.origami", "d: 3\nh: (1,2)\nv: (+2,3)\n", "line 3: unparsed text '(+2,3)' in cycle notation '(+2,3)'"),
    ("label_arabic.origami", "d: 2\nh: (1,\u0662)\nv: ()\n", "line 2: unparsed text '(1,\u0662)' in cycle notation '(1,\u0662)'"),
    ("exponent.json", _square_json("1e0"), "bad coordinate '1e0': not an integer or p/q in ASCII digits"),
    ("blanks.json", _square_json(" 1 "), "bad coordinate ' 1 ': not an integer or p/q in ASCII digits"),
    ("plus.json", _square_json("+1"), "bad coordinate '+1': not an integer or p/q in ASCII digits"),
    ("underscore.json", _square_json("1_0"), "bad coordinate '1_0': not an integer or p/q in ASCII digits"),
    ("decimal.json", _square_json("1.0"), "bad coordinate '1.0': not an integer or p/q in ASCII digits"),
    ("arabic.json", _square_json("\u0661"), "bad coordinate '\u0661': not an integer or p/q in ASCII digits"),
]


@pytest.mark.parametrize("name,text,line", REFUSED_SPELLINGS, ids=[c[0] for c in REFUSED_SPELLINGS])
def test_spellings_int_or_fraction_would_take_are_refused(tmp_path, capsys, name, text, line):
    """Python's int() or Fraction() reads each of these as a number (1_0 as 10, Arabic-Indic
    digits as their values, 1,,2 as 1,2): flatkit refuses each with one error line."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {path}: {line}"]


def test_analyze_refuses_a_degree_beyond_the_written_labels(tmp_path, capsys):
    """A degree no cycle could reach is refused as disconnected, not allocated."""
    path = tmp_path / "huge.origami"
    path.write_text("d: 1000000000000\nh: ()\nv: ()\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "not connected" in err
    assert len(err.splitlines()) == 1


def test_analyze_refuses_stray_parentheses(tmp_path, capsys):
    """Parentheses that close no cycle are an error, not the identity."""
    path = tmp_path / "stray.origami"
    path.write_text("d: 2\nh: (1,2)\nv: (\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: {path}: line 3: unparsed text '(' in cycle notation '('"
    ]


def test_analyze_half_paired_square(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"polygons": [SQUARE], "pairings": SQUARE_PAIRS[:1]}))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "invalid: edge (0, 1) is unpaired",
        "invalid: edge (0, 3) is unpaired",
    ]


def test_orbit_command(capsys):
    code, out, _ = run_cli(capsys, "orbit", str(DATA / "l3.origami"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_size"] == 3
    assert sorted(payload["cusp_widths"]) == [1, 2]
    assert len(payload["elements"]) == 3


def test_orbit_json_renders_no_text(capsys, monkeypatch):
    """With --json, no element is decoded or written in cycle notation."""
    from flatkit import origami

    def refuse(*args, **kwargs):
        raise AssertionError("text rendering under --json")

    monkeypatch.setattr(origami, "decode_canonical", refuse)
    monkeypatch.setattr(origami, "format_cycles", refuse)
    code, out, _ = run_cli(capsys, "orbit", str(DATA / "l5.origami"), "--json")
    assert code == 0
    assert json.loads(out)["orbit_size"] == 18


def test_orbit_budget_error(capsys):
    code, _, err = run_cli(capsys, "orbit", str(DATA / "l5.origami"), "--max", "2")
    assert code == 1
    assert "budget exceeded" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_orbit_max_names_the_flag(capsys, value):
    code, out, err = run_cli(capsys, "orbit", str(DATA / "l5.origami"), "--max", value)
    assert (code, out, err) == (1, "", "error: --max must be at least 1\n")


def test_spin_command(capsys):
    code, out, _ = run_cli(capsys, "spin", str(DATA / "l5.origami"))
    assert code == 0
    assert "spin parity: 1" in out


def test_spin_undefined(tmp_path, capsys):
    path = tmp_path / "h11.origami"
    path.write_text("d: 4\nh: (2,3)\nv: (1,2)(3,4)\n")
    code, _, err = run_cli(capsys, "spin", str(path))
    assert code == 1
    assert "spin undefined" in err


def test_spin_rejects_surface(capsys):
    code, _, err = run_cli(capsys, "spin", str(DATA / "octagon.json"))
    assert code == 1
    assert "requires an origami" in err


def test_act_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "sheared.json"
    code, out, _ = run_cli(
        capsys, "act", str(DATA / "octagon.json"), "--matrix", "1", "1", "0", "1",
        "-o", str(out_path),
    )
    assert code == 0
    image = flatcore.load_surface(str(out_path))
    assert flatcore.validate(image).ok
    assert str(flatcore.stratum(image)) == "H(2)"


@pytest.mark.parametrize("command", ["act", "render"])
def test_write_into_missing_directory(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out"
    extra = ["--matrix", "1,1,0,1"] if command == "act" else []
    code, out, err = run_cli(capsys, command, str(DATA / "octagon.json"), *extra, "-o", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_act_comma_matrix_with_negatives(capsys):
    code, out, _ = run_cli(
        capsys, "act", str(DATA / "octagon.json"), "--matrix", "3/5,-4/5,4/5,3/5"
    )
    assert code == 0
    payload = json.loads(out)
    image = flatcore.surface_from_json(payload)
    assert flatcore.validate(image).ok


def test_act_takes_the_path_after_the_matrix(capsys):
    """`act --matrix a b c d PATH` reads the last token as the path and gives
    what every other form gives; a missing path or entry is an error line."""
    path = str(DATA / "decagon.json")
    forms = [
        ["--matrix", "2", "0", "0", "1", path],
        ["--matrix", "2,0,0,1", path],
        ["--matrix=2,0,0,1", path],
        [path, "--matrix", "2", "0", "0", "1"],
        [path, "--matrix", "2,0,0,1"],
        [path, "--matrix=2,0,0,1"],
    ]
    outputs = set()
    for form in forms:
        code, out, err = run_cli(capsys, "act", *form)
        assert (code, err) == (0, ""), form
        outputs.add(out)
    assert len(outputs) == 1
    code, out, err = run_cli(capsys, "act", "--matrix", "1", "0", "0", "-1", path)
    assert code == 1
    assert "orientation-reversing" in err
    for form in (["2", "0", "0", "1"], ["2,0,0,1"], ["2", "0", "0", "1", "1", path]):
        code, out, err = run_cli(capsys, "act", "--matrix", *form)
        assert (code, out) == (1, ""), form
        assert err.startswith("error: matrix needs 4 entries") and err.count("\n") == 1, form


def test_act_rejects_bad_matrix(capsys):
    code, _, err = run_cli(
        capsys, "act", str(DATA / "octagon.json"), "--matrix", "1", "0", "0", "-1"
    )
    assert code == 1
    assert "orientation-reversing" in err
    code, _, err = run_cli(
        capsys, "act", str(DATA / "octagon.json"), "--matrix", "1", "2", "3"
    )
    assert code == 1
    assert "4 entries" in err


def test_strata_command(capsys):
    code, out, _ = run_cli(capsys, "strata", "--genus", "3")
    assert code == 0
    assert "H(4)" in out
    assert "H(2,2)" in out
    assert "H(1,1,1,1)" in out
    assert "hyperelliptic" in out
    code, out, _ = run_cli(capsys, "strata", "--genus", "3", "--json")
    payload = json.loads(out)
    assert payload["genus"] == 3
    assert len(payload["strata"]) == 5


def test_strata_budget(capsys):
    for genus in ("24", "40"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "strata", "--genus", genus)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: budget exceeded")


def test_polygon_budget(tmp_path, validation_calls, capsys):
    n = cli.MAX_POLYGON_EDGES // 2 + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps(flatcore.surface_to_json(build_2ngon(n))))
    for argv in (["analyze", str(path)], ["act", str(path), "--matrix", "1 0 0 1"],
                 ["render", str(path)]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == (
            f"error: budget exceeded: polygon 0 has {2 * n} edges, "
            f"more than {cli.MAX_POLYGON_EDGES}\n"
        )
    assert validation_calls == []


def test_divisor_command(capsys):
    code, out, _ = run_cli(
        capsys, "divisor", "--branch", "0,1,2,-1,3,-2", "--form", "z"
    )
    assert code == 0
    assert "W(0): order 2" in out
    assert "total order: 2" in out
    assert "holomorphic: yes" in out
    code, out, _ = run_cli(
        capsys, "divisor", "--branch", "0,1,2,-1,3,-2", "--form", "(z-10)^3", "--json"
    )
    payload = json.loads(out)
    assert payload["holomorphic"] is False
    assert payload["total_order"] == 2


def test_divisor_genus_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "divisor", "--branch", "0,1,2,3", "--form", "z", "--genus", "2"
    )
    assert code == 1
    assert "genus 1" in err


@pytest.mark.parametrize("branch", ["0,,1,2,3", "0,1,2,3,", ",0,1,2,3", "0,1,2,3.0", "0,1,2,+3"])
def test_divisor_refuses_a_misspelled_branch_list(capsys, branch):
    """An empty place between commas is refused, not skipped, as is a number that is not a
    rational; blanks around a value are allowed."""
    code, out, err = run_cli(capsys, "divisor", "--branch", branch, "--form", "z")
    assert (code, out) == (1, "")
    assert err.startswith("error: bad branch point '") and err.count("\n") == 1
    assert run_cli(capsys, "divisor", "--branch", " 0, 1 ,2,3 ", "--form", "z")[0] == 0


def test_divisor_zero_denominator_root(capsys):
    code, out, err = run_cli(
        capsys, "divisor", "--branch", "1,2,3,4", "--form", "(z-1/0)"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: zero denominator")
    assert len(err.splitlines()) == 1


def test_render_writes_svg(tmp_path, capsys):
    out_path = tmp_path / "picture.svg"
    code, out, _ = run_cli(capsys, "render", str(DATA / "octagon.json"), "-o", str(out_path))
    assert code == 0
    blob = out_path.read_text()
    assert blob.startswith("<svg")
    assert "<polygon" in blob
    assert "<circle" in blob


def test_render_default_output_name(tmp_path, capsys, monkeypatch):
    """The default output drops the file's extension, never a dot elsewhere in the path."""
    src = tmp_path / "torus.json"
    src.write_text((DATA / "torus.json").read_text())
    code, out, _ = run_cli(capsys, "render", str(src))
    assert code == 0
    assert (tmp_path / "torus.svg").exists()
    (tmp_path / "my.dir").mkdir()
    (tmp_path / "work").mkdir()
    for name in ("my.dir/l5", "l5"):
        (tmp_path / name).write_text((DATA / "l5.origami").read_text())
    monkeypatch.chdir(tmp_path / "work")
    for path in ("../my.dir/l5", "../l5"):
        code, out, _ = run_cli(capsys, "render", path)
        assert (code, out) == (0, f"wrote {path}.svg\n")
        assert (tmp_path / "work" / f"{path}.svg").exists()
    assert sorted(p.name for p in tmp_path.rglob("*.svg")) == ["l5.svg", "l5.svg", "torus.svg"]


def test_render_huge_coordinates_is_an_error(tmp_path, capsys):
    """A valid square too large for floats, or a rectangle whose drawing would be
    too tall for them, is analyzed, but not drawn."""
    path = tmp_path / "huge.json"
    for width, height in [(10**400, 10**400), (1, 10**307)]:
        rectangle = [[0, 0], [width, 0], [width, height], [0, height]]
        path.write_text(json.dumps({"polygons": [rectangle], "pairings": SQUARE_PAIRS}))
        assert run_cli(capsys, "analyze", str(path))[0] == 0
        svg = tmp_path / "huge.svg"
        code, out, err = run_cli(capsys, "render", str(path), "-o", str(svg))
        assert code == 1, height
        assert out == ""
        assert err.splitlines() == [f"error: {path}: coordinates too large to draw"]
        assert "Traceback" not in err
        assert not svg.exists()


FUZZ_ALPHABET = "09-(),[]{}: x\n"


def mutations(text):
    """Deterministic damage to a fixture: truncations at a few offsets, then
    single-character substitutions at seeded positions."""
    n = len(text)
    yield from (text[:k] for k in (0, 1, n // 4, n // 2, 3 * n // 4, n - 1))
    rng = random.Random(n)
    for i in rng.sample(range(n), 20):
        yield text[:i] + rng.choice(FUZZ_ALPHABET.replace(text[i], "")) + text[i + 1 :]


@pytest.mark.parametrize("fixture", sorted(p.name for p in DATA.iterdir()))
def test_commands_survive_mutated_fixtures(tmp_path, capsys, fixture):
    """Every command ends with status 0, or 1 and only error/invalid lines."""
    commands = [
        ["analyze"],
        ["spin"],
        ["orbit", "--max", "50"],
        ["act", "--matrix", "1,1,0,1", "-o", str(tmp_path / "out.json")],
        ["render", "-o", str(tmp_path / "out.svg")],
    ]
    path = tmp_path / fixture
    for text in mutations((DATA / fixture).read_text()):
        path.write_text(text)
        for command, *extra in commands:
            code, _, err = run_cli(capsys, command, str(path), *extra)
            assert code in (0, 1), (command, text)
            if code == 1:
                lines = err.splitlines()
                assert lines, (command, text)
                assert all(line.startswith(("error: ", "invalid: ")) for line in lines), (
                    command, text, err,
                )


def _respell(number: str, rng: random.Random) -> list[str]:
    """Spellings of an ASCII digit run that int() or Fraction() would read as a number, or
    that are plainly not one, and the two that the grammar keeps (a leading zero, -)."""
    first = int(number[0])
    return [
        chr(0x660 + first) + number[1:],  # Arabic-Indic digit
        chr(0xFF10 + first) + number[1:],  # fullwidth digit
        "+" + number, "-" + number, "0" + number,
        number + "_0", number + "e0", number + ".0", number + ".5", number + "/1", number + "/0",
        " " + number, number + " ", rng.choice(("x", "", "--1", "1//2", "1/-2")),
    ]


def grammar_mutations(text: str, seed: int):
    """Seeded rewrites of a fixture along its grammar: number spellings (also inside JSON
    strings), doubled, leading and trailing separators, blanks and line ends, repeated and
    unknown keys, and a type swap of each field."""
    rng = random.Random(seed)
    numbers = [(m.start(), m.end()) for m in re.finditer(r"[0-9]+", text)]
    for a, b in rng.sample(numbers, min(3, len(numbers))):
        for spelling in _respell(text[a:b], rng):
            yield text[:a] + spelling + text[b:]
            if text.lstrip().startswith("{"):
                yield text[:a] + json.dumps(spelling) + text[b:]
    for old, new in [(",", ",,"), (",", ", "), (",", " "), (",", "\t"), ("(", "(,"), (")", ",)"),
                     ("(", "( "), (")", " )"), ("(", "(("), ("]", ",]"), (":", " : "), (":", ":")]:
        spots = [i for i in range(len(text)) if text.startswith(old, i)]
        for i in rng.sample(spots, min(2, len(spots))):
            yield text[:i] + new + text[i + len(old) :]
    for old, new in [("\n", "\r\n"), ("\n", "\r"), ("\n", "\n\n  # note\n"), (" ", "\u00a0"),
                     (" ", "\t"), (" ", "\f"), (" ", "")]:
        yield text.replace(old, new)
    if text.lstrip().startswith("{"):
        yield text.replace("{", '{"pairings": [], ', 1)
        yield text.rstrip()[:-1] + ', "polygons": []}'
        yield text.replace("{", '{"extra": 0, ', 1)
        yield text.replace('"pairings"', '"pairing"')
        data = json.loads(text)
        swaps = [{}, "x", 0, None, True, 1.5, [0], "0", {"x": 0, "y": 0}]
        for path in (("polygons",), ("pairings",), ("polygons", 0), ("polygons", 0, 0),
                     ("polygons", 0, 0, 0), ("pairings", 0), ("pairings", 0, 0), ("pairings", 0, 0, 1)):
            for value in rng.sample(swaps, 3) + ["1/2", -1]:
                swapped = json.loads(text)
                *parents, last = path
                target = swapped
                for key in parents:
                    target = target[key]
                target[last] = value
                yield json.dumps(swapped)
        for shift in (0, 1):  # every coordinate c as (q c + shift)/q, with q = 2, 3, 4 in turn
            spelled = json.loads(text)
            for poly in spelled["polygons"]:
                for j, pt in enumerate(poly):
                    pt[:] = [f"{(j % 3 + 2) * c + shift}/{j % 3 + 2}" for c in pt]
            yield json.dumps(spelled)
        assert json.loads(text) == data
    else:
        lines = text.splitlines()
        for k, line in enumerate(lines):
            key, _, rest = line.partition(":")
            for value in ("(1,2)", "id", "", "3/2", "5 5", rest + rest):
                if key in ("d", "h", "v"):
                    yield "\n".join(lines[:k] + [f"{key}: {value}"] + lines[k + 1 :])
        yield "\n".join(reversed(lines))
        yield text + lines[-1] + "\n"
        yield "\n".join(lines[:-1])
        yield text.replace("d:", "D:")


def test_reader_agrees_with_the_reference_grammar(tmp_path, capsys, monkeypatch):
    """A seeded differential fuzz of the two file readers against the README grammar as
    tests/oracles.py reads it: each input ends in exit 0 (or only invalid: lines from
    validation) exactly when the reference accepts it, then parses to the reference's
    object, and otherwise in exactly one error: line with exit 1."""
    parser = cli.build_parser()  # built once: it is most of an in-process analyze
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    inputs = []
    for k, fixture in enumerate(sorted(p.name for p in DATA.iterdir())):
        text = (DATA / fixture).read_text()
        inputs += [text, *mutations(text), *grammar_mutations(text, seed=k)]
    path = tmp_path / "input"
    accepted = 0
    for text in inputs:
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(path))
        try:
            kind, expected = oracles.read_input_reference(text)
        except oracles.Refused:
            assert (code, out) == (1, ""), text
            assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
            continue
        accepted += 1
        assert code == 0 or all(line.startswith("invalid: ") for line in err.splitlines()), (text, err)
        got_kind, got = cli._load_input(str(path))
        assert got_kind == kind, text
        if kind == "origami":
            assert (got.d, got.h, got.v) == expected, text
        else:
            polygons = tuple(tuple((v.x, v.y) for v in poly.vertices) for poly in got.polygons)
            assert (polygons, dict(got.pairing)) == expected, text
    assert len(inputs) > 500 and 50 < accepted < len(inputs) - 200, (len(inputs), accepted)


def test_console_script_runs():
    # The child imports the same flatkit as this process, installed or not.
    proc = subprocess.run(
        [sys.executable, "-m", "flatkit.cli", "analyze", str(DATA / "l3.origami")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "stratum: H(2)" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["strata", "--genus", "3"],  # fits the buffer: written by the flush in main
        ["strata", "--genus", "9"],  # overflows it: written inside print
        ["orbit", str(DATA / "l5.origami")],
    ],
)
def test_closed_stdout_exits_quietly(argv):
    """A reader that closes stdout before the command writes (`| head -1` on a long
    output) gets status 1 and nothing on stderr, not a BrokenPipeError traceback.
    stdout is block-buffered, as in a shell pipe, so a short output is written only when
    main flushes it."""
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts: every write it makes fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flatkit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
