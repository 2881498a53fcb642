import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewtab
from skewtab import asymptotics, cli, excited, shapes, verify
from skewtab.exact import catalan
from skewtab.shapes import SkewShape
from skewtab.verify import SweepResult


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refuses the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_golden(capsys):
    code, out, _ = run_cli(capsys, "count", "4,4,3,2/2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == "3060" and doc["F"] == "1260" and doc["xi"] == "5"


def test_count_text_format(capsys):
    code, out, _ = run_cli(capsys, "count", "4,4,3,2/2,1", "--format", "text")
    assert code == 0
    assert out == "shape: 4,4,3,2/2,1\nn: 10\ne: 3060\nF: 1260\nxi: 5\n"


# the whole stdout of `bounds 4,4,3,2/2,1 --format text`; hp is a Fraction
BOUNDS_TEXT = """\
shape 4,4,3,2/2,1  n=10  exact=3060  xi=5
  lower rank-factorial                      864  ok
  lower hp                                  672  ok
  lower naive-hlf                          1260  ok
  upper chain                             16800  ok
  upper xi-times-F                         6300  ok
  upper skew-lr                          241920  ok
"""


def test_bounds_text_format(capsys):
    assert run_cli(capsys, "bounds", "4,4,3,2/2,1", "--format", "text") == (0, BOUNDS_TEXT, "")


# the JSON documents for a shape whose naive hook value F = 40/3 is not an integer
RATIONAL_DOCS = {
    "count": {"shape": "3,2,1/1", "n": 5, "e": "16", "F": "40/3", "xi": "2"},
    "bounds": {
        "shape": "3,2,1/1",
        "n": 5,
        "exact": "16",
        "xi": "2",
        "lower": {"rank-factorial": "12", "hp": "40/3", "naive-hlf": "40/3"},
        "upper": {"chain": "30", "xi-times-F": "80/3", "skew-lr": "45"},
        "chain-sizes": [2, 2, 1],
        "verdicts": dict.fromkeys(
            ["rank-factorial", "hp", "naive-hlf", "chain", "xi-times-F", "skew-lr"], True
        ),
        "log-gaps": {
            "rank-factorial": "0.287682072452",
            "hp": "0.182321556794",
            "naive-hlf": "0.182321556794",
            "chain": "0.628608659422",
            "xi-times-F": "0.510825623766",
            "skew-lr": "1.03407376753",
        },
    },
    "nhlf": {"shape": "3,2,1/1", "e": "16", "xi": "2", "min-term": "1/45", "max-term": "1/9"},
}


@pytest.mark.parametrize("command", sorted(RATIONAL_DOCS))
def test_rational_json_bytes(capsys, command):
    want = json.dumps(RATIONAL_DOCS[command], indent=2) + "\n"
    assert run_cli(capsys, command, "thick-ribbon:k=2") == (0, want, "")


def test_count_single_cell(capsys):
    code, out, _ = run_cli(capsys, "count", "1")
    assert code == 0
    assert json.loads(out)["e"] == "1"


def test_count_family_and_rational(capsys):
    code, out, _ = run_cli(capsys, "count", "thick-ribbon:k=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == "3,2,1/1"
    assert doc["F"] == "40/3"


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "count", "5,4,4,1/2,1")
    _, second, _ = run_cli(capsys, "count", "5,4,4,1/2,1")
    assert first == second


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "count", "3,4/1")
    assert code == 2
    assert "index 2" in err
    code, _, err = run_cli(capsys, "count", "2,1/3")
    assert code == 2
    # verify always runs both sweeps; it takes no list of them
    code, out, err = run_cli(capsys, "verify", "--groups", "oracles")
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert "unrecognized arguments: --groups oracles" in err


def test_repeated_family_parameter_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "count", "thick-ribbon:k=4:k=5")
    assert code == 2 and out == ""
    assert "'k' is given twice" in err and "Traceback" not in err


# a parameter a family's builder does not take, or one it needs, named as
# the command spells it: an option of `family`, a key of family text
FAMILY_PARAMETER_ERRORS = [
    (["family", "square", "--k", "2", "--m", "2"], "family 'square' takes no --m"),
    (["family", "ribbon-rho", "--k", "2"], "family 'ribbon-rho' needs --m"),
    (["count", "square:k=2:m=3"], "family 'square' takes no parameter 'm'"),
    (["count", "ribbon-rho:k=2"], "family 'ribbon-rho' needs parameter 'm'"),
]


@pytest.mark.parametrize("argv,message", FAMILY_PARAMETER_ERRORS)
def test_family_parameter_errors_name_the_parameter(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# the first member over the cap, named with its cell count, by command
CAPPED_MEMBER = {
    "family": "k=100000002 gives 15000000550000005",
    "count": "k=100000000 gives 14999999950000000",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "thick-ribbon", "--k", "2:1000000000:100000000"],
        ["count", "thick-ribbon:k=100000000"],
    ],
)
def test_family_size_is_capped_before_any_member_is_built(monkeypatch, capsys, argv):
    built = []
    real = shapes.FAMILY_BUILDERS["thick-ribbon"]
    monkeypatch.setitem(
        shapes.FAMILY_BUILDERS, "thick-ribbon", lambda *a, **kw: built.append(a) or real(*a, **kw)
    )
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        f"error: family 'thick-ribbon' needs n <= {shapes.FAMILY_CELL_CAP} cells;"
        f" {CAPPED_MEMBER[argv[0]]}\n"
    )
    assert built == []  # not even the k = 2 member of the sweep


def test_family_cap_quotes_a_partition_parameter(capsys):
    # sigma is spelt as family text spells it, its parts quoted
    assert run_cli(capsys, "count", "regev-vershik:sigma=2,1:rows=1000:cols=1001") == (
        3,
        "",
        f"error: family 'regev-vershik' needs n <= {shapes.FAMILY_CELL_CAP} cells; "
        "sigma='2,1', rows=1000, cols=1001 gives 1001003\n",
    )


@pytest.mark.parametrize("argv, message", [
    (["staircase", "--k", "90:1:-89"], "family 'staircase' member k=1 is empty"),
    (["square", "--k", "3:0:-1"], "square parameter must be >= 1"),
    (["ribbon-rho", "--k", "1:3", "--m", "0"], "ribbon parameters must be >= 1"),
    (["zigzag", "--k", "2:0:-1"], "zigzag parameter must be >= 1"),
])
def test_family_refuses_an_empty_member_before_any_row(monkeypatch, capsys, argv, message):
    def no_rows(shape):
        raise AssertionError("a row was computed before every member was checked")

    monkeypatch.setattr(asymptotics, "jacobi_trudi_count", no_rows)
    assert run_cli(capsys, "family", *argv) == (2, "", f"error: {message}\n")


def test_family_range_is_never_listed():
    # 10^8 members as a list would take about 4 GB; iterated, the range costs
    # nothing, and under a 256 MB address-space limit the cap refuses k = 1001
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "skewtab.cli", "family", "square", "--k", "1:100000000"],
        env=_fresh_env(), capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        f"error: family 'square' needs n <= {shapes.FAMILY_CELL_CAP} cells; k=1001 gives 1002001\n"
    )


SPEC = '{"outer": [[0, 1], [1, 1]], "grid": %s}'
HUGE = "9" * 5000

# each integer is refused by shapes.parse_int, or a spec 'grid' as an
# unknown key, with the part, parameter, option or spec key it came from named
BAD_INTEGER_ARGV = [
    (["count", "²"], "part 1"),
    (["count", "٣"], "part 1"),
    (["count", "3,٣"], "part 2"),
    (["count", "square:k=--5"], "'k'"),
    (["count", "square:k=²"], "'k'"),
    (["family", "square", "--k", "x"], "--k"),
    (["family", "square", "--k", "2:x"], "--k"),
    (["family", "square", "--k", "2:6:0"], "--k"),
    (["integrate", SPEC % "100.9"], "'grid'"),
    (["integrate", SPEC % '"128"'], "'grid'"),
    (["integrate", SPEC % "true"], "'grid'"),
    (["count", "9" * 4301], "part 1"),
    (["count", HUGE], "part 1"),
    (["count", "2,1/" + HUGE], "inner: part 1"),
    (["count", "square:k=" + HUGE], "'k'"),
    (["family", "square", "--k", "2:" + HUGE], "--k"),
    (["lr", "2,1", HUGE, "1"], "part 1"),
    (["integrate", SPEC % HUGE], "spec number"),
    (["verify", "--max-size", "٣"], "--max-size"),
    (["verify", "--max-size", HUGE], "--max-size"),
    (["integrate", '{"outer": [[0, 1], [1, 1]]}', "--grid", "1_024"], "--grid"),
    (["excited", "4,4/2", "--max-cells", "1_000"], "--max-cells"),
    (["excited", "4,4/2", "--max-cells", "-1"], "--max-cells must not be negative"),
    (["lr", "2,1", "1", "1,1", "--max-brute", "²"], "--max-brute"),
    (["lr", "2,1", "1", "1,1", "--max-brute", "-1"], "--max-brute must not be negative"),
    (["family", "ribbon-rho", "--k", "2", "--m", "٣"], "--m"),
]


# text of any length is refused with its field named and at most a short
# prefix of it quoted
LONG = "x" * 100_000
LONG_TEXT_ARGV = [
    (["count", LONG + ":k=1"], "unknown family"),
    (["count", "square:" + LONG + "=1"], "unknown family parameter"),
    (["verify", "--groups", LONG], "unrecognized arguments"),
    (["verify", "--groups", "," * 100_000], "unrecognized arguments"),
    (["integrate", "/missing/" + LONG], "boundary spec"),
    (["family", "thick-ribbon", "--k", "9" + "0" * 4000 + ":1"], "--k range"),
    (["verify", "--max-size", "-" + "9" * 4300], "--max-size"),
    (["family", LONG, "--k", "1"], "argument family"),
    (["count", "1", "--" + LONG], "unrecognized arguments"),
]


@pytest.mark.parametrize("argv, named", BAD_INTEGER_ARGV + LONG_TEXT_ARGV)
def test_bad_integers_are_usage_errors(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err and len(err) < 200, err
    assert "invalid literal" not in err and "range()" not in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no str(int) digit limit before 3.10.7"
)
def test_counts_print_at_any_length(capsys):
    # e = Catalan(7200) has 4,329 digits, past the default limit of 4,300 on
    # str(int); main lifts the limit and restores it on every return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(catalan(7200))
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, _ = run_cli(capsys, "count", "7200,7200")
    assert code == 0 and json.loads(out)["e"] == want
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run_cli(capsys, "bounds", "7200,7200")
    assert code == 0 and json.loads(out)["exact"] == want
    assert sys.get_int_max_str_digits() == limit
    assert run_cli(capsys, "count", HUGE)[0] == 2
    assert sys.get_int_max_str_digits() == limit


def test_resource_cap_exit(capsys):
    code, _, err = run_cli(
        capsys, "excited", "9,9,9,9,9,9/4,4,4,4", "--max-cells", "28223"
    )
    assert code == 3
    assert "excited" in err and "28223" in err  # xi * |inner| = 1764 * 16 = 28224


def test_excited_and_paths(capsys):
    code, out, _ = run_cli(capsys, "excited", "2,2/1", "--paths")
    assert code == 0
    doc = json.loads(out)
    assert doc["xi"] == "2"
    assert [[1, 1]] in doc["diagrams"] and [[2, 2]] in doc["diagrams"]
    assert len(doc["paths"]) == 2


# sha256 of `skewtab excited SHAPE --paths` stdout, diagrams in tableau order;
# the last shape is disconnected
EXCITED_PATHS_DIGESTS = {
    "5,4,4,1/2,1": "11ff63bf2b5328b85074cb0329142c6d764aa07d48a9edf2db54df346fcd13c1",
    "4,4,3,2/2,1": "f661de1546fe1aa32f5a6173b06460db2faf41e0994a7ba8ba10352ee74bcef1",
    "4,4,4,1/3,3,1": "dc2e3fabcca9038867b61ce7c430cc777e6c5cb7a5e9e2f01a69211eac010aa8",
}


def test_excited_paths_digests(capsys):
    for shape, digest in EXCITED_PATHS_DIGESTS.items():
        code, out, err = run_cli(capsys, "excited", shape, "--paths")
        assert (code, err) == (0, ""), shape
        assert hashlib.sha256(out.encode()).hexdigest() == digest, shape


def test_excited_render(capsys):
    code, out, _ = run_cli(capsys, "excited", "2,2/1", "--render")
    assert code == 0
    assert "#." in out and ".#" in out
    # grids show no paths, so asking for both is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["excited", "2,2/1", "--paths", "--render"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_nhlf_subcommand(capsys):
    code, out, _ = run_cli(capsys, "nhlf", "4,4,3,2/2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == "3060"
    assert doc["max-term"] == "1/2880"


def test_bounds_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "bounds", "4,4,3,2/2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"]["rank-factorial"] == "864"
    assert doc["upper"]["chain"] == "16800"
    assert all(doc["verdicts"].values())


def test_family_csv(capsys):
    code, out, _ = run_cli(capsys, "family", "thick-ribbon", "--k", "2:4:2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,k,n,log_e_exact,c_k,logF,logXi,verdict"
    assert len(lines) == 3
    assert lines[1].startswith("thick-ribbon,2,5,")
    assert lines[1].endswith(",true")


@pytest.mark.parametrize("spec, ks", [
    ("2:6:2", [2, 4, 6]), ("6:2:-2", [6, 4, 2]), ("2:7:2", [2, 4, 6]), ("7:2:-2", [7, 5, 3]),
])
def test_family_range_includes_hi_for_either_step_sign(capsys, spec, ks):
    code, out, _ = run_cli(capsys, "family", "square", "--k", spec)
    assert code == 0
    assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == ks


@pytest.mark.parametrize("spec", ["6:2:2", "2:6:-2"])
def test_family_range_stepping_away_from_hi_is_empty(capsys, spec):
    code, _, err = run_cli(capsys, "family", "square", "--k", spec)
    assert code == 2
    assert "is empty" in err


def test_every_family_choice_prints_a_row(capsys):
    _, usage, _ = run_cli(capsys, "family", "--help")
    choices = usage[usage.index("{") + 1 : usage.index("}")].split(",")
    assert len(choices) == 8 and "regev-vershik" not in choices  # its first parameter is sigma
    for family in choices:
        extra = ["--m", "2"] if family == "ribbon-rho" else []
        code, out, err = run_cli(capsys, "family", family, "--k", "2", *extra)
        assert code == 0, (family, err)
        assert out.splitlines()[1].startswith(f"{family},2,")


def test_integrate_inline(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", '{"outer": [[0, 1], [1, 1]]}', "--grid", "256"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["integral"]) + 0.1137) < 1e-3
    # the README command, pinned to the exact digits it prints
    code, out, _ = run_cli(
        capsys, "integrate", '{"outer": [[0, 1], [1, 1]]}', "--grid", "512"
    )
    assert code == 0
    assert '"integral": "-0.113703245084"' in out
    assert abs(float(json.loads(out)["integral"]) + 0.1137) < 1e-3


def test_integrate_file(tmp_path, capsys):
    spec = tmp_path / "shape.json"
    spec.write_text(json.dumps({"outer": [[0, 1], [1, 1]]}))
    code, out, _ = run_cli(capsys, "integrate", str(spec), "--grid", "128")
    assert code == 0
    assert json.loads(out)["grid"] == 128


def test_integrate_bad_specs(tmp_path, capsys):
    cases = [
        ([str(tmp_path / "missing.json")], "No such file"),
        (['{"outer": 5}'], "[x, y]"),
        (['{"outer": [[0,1],[1,1]], "inner": 7}'], "[x, y]"),
        (['{"outer": [[0,1],[1,1]], "grid": null}'], "'grid'"),
        (['{"outer": [[0,NaN],[1,1]]}', "--grid", "64"], "finite"),
        (['{"outer": [[0,1],[Infinity,1]]}'], "finite"),
        (['{"outer": [[0,1],[1,1]], "inner": [[0,-Infinity],[1,0]]}'], "finite"),
        # the inner boundary pokes above the outer on (0.5001, 0.5002) only
        (['{"outer": [[0,1],[0.5001,1],[0.5001,0.2],[1,0.2]], '
          '"inner": [[0,0.3],[0.5002,0.3],[0.5002,0],[1,0]]}', "--grid", "512"],
         "exceeds outer"),
    ]
    for argv, named in cases:
        code, out, err = run_cli(capsys, "integrate", *argv)
        assert code == 2, argv
        assert out == "" and named in err, (argv, err)


# a spec is a JSON object {outer, inner?}, each point two real numbers; a
# refusal is one short line naming the boundary and point, or the key
REFUSED_SPECS = [
    ('{"outer": [["1.5", 1], [2, 1]]}', "outer point 1 must be [x, y]"),
    ('{"outer": [[true, 1], [2, 1]]}', "outer point 1 must be [x, y]"),
    ('{"outer": [[0, 1], [1, 1]], "inner": [[0, 0], [1, false]]}', "inner point 2"),
    ('{"outer": [[0, 1, 2], [1, 1]]}', "outer point 1 must be [x, y]"),
    ('{"outer": {"a": 1}}', "outer boundary needs a list"),
    ('{"outer": [["' + LONG + '", 1], [2, 1]]}', "outer point 1 must be [x, y]"),
    ('{"outer": [[0, 1], [1, 1]], "extra": 1}', "unknown boundary spec key 'extra'"),
    ('{"outer": [[0, 1], [1, 1]], "' + LONG + '": 1}', "unknown boundary spec key 'xxx"),
    ("[[0, 1], [1, 1]]", "JSON object"),
    ('{"outer": ' + "[" * 100_000 + "}", "nested too deeply"),
    ('{"outer": [[0, 1e999], [1, 1]]}', "outer point 1 must be finite"),
    ('{"outer": [[0, 1' + "0" * 400 + "], [1, 1]]}", "outer point 1 must be finite"),
    ('{"outer": [[0, 1], [1, 2]]}', "outer point 2: boundary must move right"),
]


@pytest.mark.parametrize("spec, named", REFUSED_SPECS)
def test_integrate_spec_schema(capsys, spec, named):
    code, out, err = run_cli(capsys, "integrate", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err
    assert named in err, err


def test_escaped_quotes_stay_short(capsys):
    # repr writes each of these characters as a ten-character escape
    code, out, err = run_cli(capsys, "count", "\U000e0000" * 30 + ":k=1")
    assert (code, out) == (2, "")
    assert "unknown family" in err and err.count("\n") == 1 and len(err) < 100, err


@pytest.mark.filterwarnings("error")
def test_integrate_non_finite_is_not_converged(capsys):
    # the integral overflows to inf at both resolutions; inf - inf is NaN,
    # which passes no tolerance, so the quadrature is declared non-convergent
    code, out, err = run_cli(capsys, "integrate", '{"outer": [[0, 1e308], [1, 1e308]]}')
    assert code == 1
    assert out == "" and err.startswith("error: quadrature not converged")
    assert err.count("\n") == 1


def test_integrate_extreme_scales(capsys):
    # a per-cell change of the inverse taken as one slope, -1e400, would overflow
    spec = '{"outer": [[0, 1e-200], [1e200, 0]]}'
    code, out, _ = run_cli(capsys, "integrate", spec, "--grid", "512")
    assert code == 0
    assert '"integral": "229.508846315"' in out


def test_out_of_memory_is_a_resource_error(monkeypatch, capsys):
    # simulated: the shape and the quadrature raise as an allocation that
    # size would; the square stays within shapes.FAMILY_CELL_CAP
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setitem(shapes.FAMILY_BUILDERS, "square", exhausted)
    monkeypatch.setattr(asymptotics, "_hook_integral_at", exhausted)
    for argv in (
        ["count", "square:k=1000"],
        ["integrate", '{"outer": [[0,1],[1,1]]}', "--grid", "4096"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert (out, err) == ("", "error: out of memory\n"), argv


def test_grid_over_cap_is_a_resource_error(monkeypatch, capsys):
    def quadrature(*args):
        raise AssertionError("quadrature ran past the grid cap")

    monkeypatch.setattr(asymptotics, "_hook_integral_at", quadrature)
    huge = "99999999999999999999"
    for grid in (huge, str(asymptotics.GRID_CAP + 1)):
        argv = ["integrate", '{"outer": [[0,1],[1,1]]}', "--grid", grid]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert (out, err) == ("", f"error: grid must be <= {asymptotics.GRID_CAP}\n"), argv


# 10**20 does not fit an index, so these overflow before anything is allocated
OVERFLOW_ARGV = [
    ["count", "square:k=99999999999999999999"],
    ["family", "square", "--k", "99999999999999999999"],
]


def test_overflowing_parameters_are_usage_errors(capsys):
    for argv in OVERFLOW_ARGV:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


SHAPE_JUNK = [
    "", "a", "-", "0", "-1", "/", "3/", "3,,2", "3,4/1", "2,1/3", "1,1/1,1",
    "2.5", "square", "square:k=x", "square:k=-1", "bogus:k=2", "thick-ribbon:k=0",
    "zigzag:k=0", "inverted-hook:k=0", "slim-stripe:ell=0", "ribbon-rho:k=1:m=0",
    "regev-vershik:sigma=2,1:rows=0:cols=0", "staircase:k=1:r=2",
]

FUZZ_ARGV = (
    [[], ["bogus"], ["count"], ["count", "2,1", "--threads", "4"]]
    + [[cmd, shape] for cmd in ("count", "bounds", "excited", "nhlf") for shape in SHAPE_JUNK]
    + OVERFLOW_ARGV
    + [
        ["count", "2,1", "--format", "xml"],
        ["bounds", "3,2,1/1", "--format", "text"],
        ["excited", "4,4/2", "--max-cells", "-1"],
        ["excited", "4,4/2", "--max-cells", "0"],
        ["excited", "4,4/2", "--max-cells", "x"],
        ["excited", "-", "--paths", "--render"],
        ["nhlf", "4,4/2", "--max-cells", "1"],
        ["nhlf", "-"],
        ["family", "bogus", "--k", "2"],
        ["family", "square"],
        ["family", "square", "--k", "x"],
        ["family", "square", "--k", "1:2:0"],
        ["family", "square", "--k", "1:2:3:4"],
        ["family", "square", "--k", "3:1"],
        ["family", "square", "--k", "0"],
        ["family", "square", "--k", "-2"],
        ["family", "zigzag", "--k", "0:1"],
        ["family", "ribbon-rho", "--k", "2", "--m", "-1"],
        ["family", "ribbon-rho", "--k", "2", "--m", "0"],
        ["integrate", ""],
        ["integrate", "{"],
        ["integrate", "{}"],
        ["integrate", '{"outer": []}'],
        ["integrate", '{"outer": [[0,1]]}'],
        ["integrate", '{"outer": [null, [1,1]]}'],
        ["integrate", '{"outer": [[0,"a"],[1,1]]}'],
        ["integrate", '{"outer": [[0,1,2],[1,1]]}'],
        ["integrate", '{"outer": [[1,1],[0,1]]}'],
        ["integrate", '{"outer": [[0,1],[1,1]], "inner": [[0,2],[1,2]]}'],
        ["integrate", '{"outer": [[0,1],[1,1]], "inner": [[0,0],[2,0]]}'],
        ["integrate", '{"outer": [[0,1],[1,1]], "grid": "x"}'],
        ["integrate", '{"outer": [[0,1],[1,1]], "grid": [64]}'],
        ["integrate", '{"outer": [[0,1],[1,1]], "grid": Infinity}'],
        ["integrate", '{"outer": [[0,1],[1,1]], "grid": 10}'],
        ["integrate", '{"outer": [[0,1],[1,1]]}', "--grid", "0"],
        ["integrate", '{"outer": [[0,1],[1,1]]}', "--grid", "-64"],
        ["integrate", '{"outer": [[0,NaN],[1,1]]}', "--grid", "64"],
        ["lr"],
        ["lr", "a", "b", "c"],
        ["lr", "2,1", "1", "1"],
        ["lr", "2,1", "3", "-"],
        ["lr", "1,2", "1", "1"],
        ["lr", "30", "-", "30"],
        ["lr", "2,1", "1", "1,1", "--max-brute", "-1"],
        ["verify", "--max-size", "-1"],
        ["verify", "--max-size", "0"],
        ["verify", "--max-size", "x"],
        ["verify", "--max-size", "3", "--groups", ""],
        ["verify", "--max-size", "3", "--groups", ",,"],
        ["verify", "--max-size", "3", "--groups", "oracles,bogus"],
    ]
)


def test_cli_fuzz(capsys):
    """Junk arguments end in a documented exit code, never an uncaught exception."""
    for argv in FUZZ_ARGV:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:
            pytest.fail(f"skewtab {' '.join(argv)} raised {exc!r}")
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv


def test_vacuous_runs_are_usage_errors(capsys):
    # a sweep or a report that would check nothing must not read as a pass
    cases = [
        (["verify", "--max-size", "0"], "--max-size"),
        (["verify", "--max-size", "-1"], "--max-size"),
        (["family", "square", "--k", "3:1"], "empty"),
        (["family", "square", "--k", "2:6:-1"], "empty"),
    ]
    for argv, named in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and named in err, (argv, err)


def test_nhlf_has_no_enumeration_caps(capsys):
    # |inner| = 13 was over the enumeration cap; the hook sum needs none
    code, out, _ = run_cli(capsys, "nhlf", "8,8,8,8,8,8/4,4,3,2")
    assert code == 0
    _, counted, _ = run_cli(capsys, "count", "8,8,8,8,8,8/4,4,3,2")
    assert json.loads(out)["e"] == json.loads(counted)["e"]
    with pytest.raises(SystemExit):
        cli.main(["nhlf", "4,4/2", "--max-cells", "3"])
    capsys.readouterr()


def test_lr_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lr", "2,1", "1", "1,1")
    assert code == 0
    assert json.loads(out)["lr"] == "1"


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-size", "4")
    assert code == 0
    assert "oracles" in out and "bounds" in out


def test_env_cap_override(monkeypatch, capsys):
    code, _, err = run_cli(capsys, "excited", "4,4,4/2,1", "--max-cells", "2")
    assert code == 3
    code, _, err = run_cli(capsys, "excited", "4,4,4/2,1", "--max-cells", "23")
    assert code == 3 and "xi * |inner| <= 23 cells, got 8 * 3" in err
    code, out, _ = run_cli(capsys, "integrate", '{"outer": [[0, 1], [1, 1]]}', "--grid", "128")
    assert code == 0
    assert json.loads(out)["grid"] == 128
    code, out, _ = run_cli(capsys, "integrate", '{"outer": [[0, 1], [1, 1]]}', "--grid", "64")
    assert json.loads(out)["grid"] == 64
    # caps are flags only; the environment no longer sets them
    monkeypatch.setenv("SKEWTAB_MAX_CELLS", "2")
    monkeypatch.setenv("SKEWTAB_GRID", "128")
    assert run_cli(capsys, "excited", "4,4,4/2,1")[0] == 0
    code, out, _ = run_cli(capsys, "integrate", '{"outer": [[0, 1], [1, 1]]}')
    assert code == 0 and json.loads(out)["grid"] == 512


def test_verify_beyond_enumeration_cap(monkeypatch):
    # |inner| = 13: xi is checked by the path count and by enumerating its
    # 28 diagrams, 364 cells against the cell cap
    shape = SkewShape([6, 6, 6, 5], [5, 4, 3, 1])
    monkeypatch.setattr(verify, "skew_shapes", lambda max_size: iter([shape]))
    result = verify.oracle_sweep(14)
    assert (result.checked, result.failures) == (1, [])


def test_verify_brute_cap_before_sweeping(monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept shapes before checking the brute-force cap")

    monkeypatch.setattr(verify, "skew_shapes", no_sweep)
    code, out, err = run_cli(capsys, "verify", "--max-size", "25")
    assert (code, out) == (3, "")
    assert "brute-force count needs n <= 24" in err


def test_oracle_sweep_calls_per_shape(monkeypatch):
    # one flag determinant per shape, for the enumeration's cap and count
    # checks; one border-strip decomposition per shape for the path count of xi, and
    # one more for each shape whose hook sum takes the strip lattice, e.g. a
    # cell under four inner rows
    strip_lattice = sum(
        len(s.inner) > 3 * len(excited.border_strip_decomposition(s)) for s in verify.skew_shapes(6)
    )
    assert strip_lattice > 0
    calls = Counter()
    for name in ("border_strip_decomposition", "xi_determinant"):
        real = getattr(excited, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (excited, verify):
            monkeypatch.setattr(module, name, counted, raising=False)
    result = verify.oracle_sweep(6)
    assert result.failures == []
    assert calls == {
        "xi_determinant": result.checked,
        "border_strip_decomposition": result.checked + strip_lattice,
    }


def test_sweep_failures_and_progress(monkeypatch):
    # progress counts every shape; a wrong kernel shows as one failure line
    # per check it breaks, naming the shape
    for sweep in (verify.oracle_sweep, verify.bounds_sweep):
        seen = []
        result = sweep(4, progress=seen.append)
        assert result.failures == [] and seen == list(range(1, result.checked + 1))
    monkeypatch.setattr(verify, "nhlf_count", lambda shape: 0)
    monkeypatch.setattr(verify, "xi_path_count", lambda shape: 0)
    result = verify.oracle_sweep(2)
    assert len(result.failures) == 2 * result.checked
    assert result.failures[:2] == [
        "1: counts disagree jt=1 bf=1 nhlf=0",
        "1: xi paths=0 enum=1",
    ]
    # the enumeration checks its own length against the flag determinant
    monkeypatch.setattr(excited, "xi_determinant", lambda shape: 2)
    result = verify.oracle_sweep(2)
    assert len(result.failures) == 2 * result.checked
    assert result.failures[1] == "1: excited enumeration found 1 diagrams, the flag determinant 2"
    real = verify.bounds_report

    def unsound(shape):
        report = real(shape)
        report.verdicts["hp"] = False
        return report

    monkeypatch.setattr(verify, "bounds_report", unsound)
    monkeypatch.setattr(verify, "xi_bounds", lambda shape: (0, 0))
    result = verify.bounds_sweep(2)
    assert len(result.failures) == 2 * result.checked
    assert result.failures[:2] == ["1: failed hp", "1: xi bound violated"]


def test_verify_failure_exit(monkeypatch, capsys):
    def failing(max_size=8, progress=None):
        return SweepResult("oracles", 1, ["injected: stub failure"])

    monkeypatch.setattr(verify, "oracle_sweep", failing)
    code, out, _ = run_cli(capsys, "verify", "--max-size", "1")
    assert code == 1
    assert out == (
        "oracles: checked 1 shapes, 1 failures\n"
        "  injected: stub failure\n"
        "bounds: checked 1 shapes, ok\n"
    )


def test_numpy_never_loaded():
    # a fresh interpreter: other tests have already loaded numpy into this one
    script = "\n".join([
        "import sys, skewtab, skewtab.cli",
        "skewtab.cli.main(['count', '4,3,2/2,1'])",
        "assert 'numpy' not in sys.modules, 'numpy loaded by a subcommand'",
        "assert not {'dataclasses', 'inspect'} & set(sys.modules), 'heavy start-up imports'",
        "from skewtab import StableShape, hook_integral, unit_box_log_integral",
        "import skewtab.asymptotics as asy",
        "assert asy.StableShape is StableShape and asy.hook_integral is hook_integral",
        "assert abs(hook_integral(asy.StableShape.unit_square(), 128) + 0.1137) < 1e-3",
        "assert abs(unit_box_log_integral(0.0) + 0.1137) < 1e-3",
        "assert 'numpy' not in sys.modules, 'numpy loaded by the quadrature'",
    ])
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["e"] == "61"


def test_reports_load_no_dataclasses():
    # the result records are named tuples, so reports need neither module
    script = "\n".join([
        "import sys, skewtab.cli",
        "skewtab.cli.main(['bounds', '4,3,2/2,1'])",
        "skewtab.cli.main(['verify', '--max-size', '4'])",
        "assert not {'dataclasses', 'inspect'} & set(sys.modules), 'heavy imports'",
    ])
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_lr_depth_is_not_recursion():
    # 1,500 cells in one row: one stack entry per cell, not one Python frame
    proc = _fresh_python("-m", "skewtab.cli", "lr", "1500", "-", "1500", "--max-brute", "2000")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"lr": "1"}


def _fresh_env():
    """The environment of a fresh interpreter on this checkout's skewtab."""
    src = str(Path(skewtab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _fresh_python(*args):
    """Run a fresh interpreter on this checkout's skewtab."""
    return subprocess.run(
        [sys.executable, *args], env=_fresh_env(), capture_output=True, text=True, timeout=120
    )


def test_reader_closing_stdout_ends_quietly():
    # 152 kB of JSON, far more than a pipe holds: the reader takes 10 bytes
    # and closes the pipe while the command is still writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "skewtab.cli", "excited", "5,5,5,5,5/3,2,1", "--paths"],
        env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head == b'{\n  "shape'
    assert (code, err) == (cli.EXIT_PIPE, b"")


@pytest.mark.parametrize("spec", ["zigzag:k=40", "thick-ribbon:k=12"])
@pytest.mark.parametrize("command", ["count", "bounds"])
def test_optimized_interpreter_prints_the_same(command, spec):
    # `python -O` strips assert statements; every invariant is checked by
    # raising instead, so the output must not change
    plain = _fresh_python("-m", "skewtab.cli", command, spec)
    optimized = _fresh_python("-O", "-m", "skewtab.cli", command, spec)
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert plain.stdout and optimized.stdout == plain.stdout


def test_optimized_interpreter_refuses_the_same():
    # the spec and argparse checks raise; none is an assert that -O strips
    for argv in (
        ["integrate", '{"outer": [["1.5", 1], [2, 1]]}'],
        ["integrate", '{"outer": [[0, 1], [1, 1]], "grid": 64}'],
        ["integrate", "[[0, 1], [1, 1]]"],
        ["family", LONG, "--k", "1"],
    ):
        proc = _fresh_python("-O", "-m", "skewtab.cli", *argv)
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200, proc.stderr


# -- a property test over argv and integrate specs --------------------------------

# Junk has no ASCII digit, so it never reads as a size: every size comes from
# the bounded strategies below (at most 12 cells, k <= 6, --max-size <= 5,
# --grid <= 256), which keeps each example well under a second.
_junk = st.one_of(
    st.text(st.characters(blacklist_characters="0123456789"), max_size=30),
    st.builds(
        lambda chunk, times: chunk * times,
        st.text(st.characters(blacklist_characters="0123456789"), min_size=1, max_size=5),
        st.integers(1, 20_000),
    ),
)
_small_int = st.integers(-2, 6).map(str)
_partitions = st.lists(st.integers(1, 4), max_size=3).map(
    lambda parts: ",".join(map(str, sorted(parts, reverse=True))) or "-"
)
_families = st.tuples(
    st.sampled_from(sorted(shapes.FAMILY_BUILDERS)),
    st.lists(st.tuples(st.sampled_from(["k", "r", "m", "ell", "rows", "cols", "sigma"]),
                       _small_int), min_size=1, max_size=3),
).map(lambda t: ":".join([t[0]] + [f"{key}={value}" for key, value in t[1]]))
# at most 12 cells, or a family member with parameters <= 6
_shape_texts = st.one_of(
    st.tuples(_partitions, st.one_of(st.just(""), _partitions.map("/".__add__))).map("".join),
    _families,
)
_shape_args = st.one_of(_shape_texts, _junk)
_coordinate = st.one_of(
    st.floats(-1.0, 2.0), st.floats(), st.integers(-(10**400), 10**400), st.booleans(),
    st.none(), st.text(max_size=3),
)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=5)),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=10,
)


@st.composite
def _boundaries(draw):
    """A point list: a weakly decreasing staircase, loose pairs, or any JSON."""
    kind = draw(st.sampled_from(["staircase", "pairs", "json"]))
    if kind == "staircase":
        xs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5)))
        ys = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs), max_size=len(xs))))
        return [[x, y] for x, y in zip(xs, reversed(ys))]
    if kind == "pairs":
        return draw(st.lists(st.lists(_coordinate, min_size=1, max_size=3), max_size=5))
    return draw(_json)


_specs = st.one_of(
    st.fixed_dictionaries(
        {"outer": _boundaries()},
        optional={"inner": _boundaries(), "grid": st.integers(-5, 256)},
    ).map(json.dumps),
    _json.map(json.dumps),
    _junk,
)


def _options(*pairs):
    """Each option flag, with its value, present or not."""
    return st.tuples(*(st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v]))
                       for flag, value in pairs)).map(lambda parts: sum(parts, []))


_argvs = st.one_of(
    st.tuples(st.sampled_from(["count", "bounds"]), _shape_args,
              _options(("--format", st.sampled_from(["json", "text", "xml"])))),
    st.tuples(st.just("nhlf"), _shape_args),
    st.tuples(st.just("excited"), _shape_args, st.just("--max-cells"),
              st.integers(-1, 10_000).map(str), st.sampled_from([[], ["--paths"], ["--render"]])),
    st.tuples(st.just("family"), st.one_of(st.sampled_from(sorted(shapes.FAMILY_BUILDERS)), _junk),
              st.just("--k"),
              st.one_of(st.lists(_small_int, min_size=1, max_size=4).map(":".join), _junk),
              _options(("--m", st.one_of(_small_int, _junk)))),
    st.tuples(st.just("integrate"), _specs, _options(("--grid", st.one_of(
        st.integers(-1, 256).map(str), _junk)))),
    st.tuples(st.just("lr"), _partitions, _partitions, _partitions,
              _options(("--max-brute", st.one_of(_small_int, _junk)))),
    st.tuples(st.just("verify"), _options(("--max-size", st.integers(-1, 5).map(str)),
                                          ("--groups", st.one_of(
                                              st.sampled_from(["oracles", "bounds", ",,"]),
                                              _junk)))),
    st.lists(_junk, max_size=4),
)


def _flatten(parts):
    return [p for part in parts for p in ([part] if isinstance(part, str) else _flatten(part))]


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(_argvs.map(_flatten))
def test_cli_property(argv):
    """Any argv ends in a documented exit code, without a traceback, and with
    stderr empty or one line under 200 characters."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n") and len(err) < 200), err
