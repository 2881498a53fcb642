"""The result records: constructor parameters, repr text and properties."""

import inspect
from fractions import Fraction

import pytest

from skewtab import (
    BandConstants,
    BoundsReport,
    PathFamily,
    SkewShape,
    TvkData,
    bounds_report,
    parse_shape,
)
from skewtab.asymptotics import FamilyRow, LogEstimate, RibbonTermsReport, SubpolyReport
from skewtab.excited import SlimReport
from skewtab.verify import SweepResult

EMPTY = inspect.Parameter.empty
PATHS = (((1, 2),), ((2, 1),))

# (class, its parameters as (name, default), field values, repr, properties)
RECORDS = [
    (
        LogEstimate,
        [("exact", EMPTY), ("estimate", EMPTY)],
        (1.5, 0.5),
        "LogEstimate(exact=1.5, estimate=0.5)",
        {"gap": 1.0},
    ),
    (
        BandConstants,
        [("lower", EMPTY), ("upper", EMPTY), ("exact", None)],
        (-1.5, 0.5, None),
        "BandConstants(lower=-1.5, upper=0.5, exact=None)",
        {},
    ),
    (
        TvkData,
        [("alpha", EMPTY), ("beta", EMPTY), ("pi", EMPTY), ("tau", EMPTY)],
        ((0.5,), (0.5,), (0.0,), (0.0,)),
        "TvkData(alpha=(0.5,), beta=(0.5,), pi=(0.0,), tau=(0.0,))",
        {"gamma": 1.0},
    ),
    (
        SubpolyReport,
        [(name, EMPTY) for name in (
            "n", "width", "depth", "n_log_n", "sum_log_hooks", "n_log_depth", "log_naive",
            "hook_bound_ok",
        )],
        (2, 2, 1, 1.5, 0.0, 0.0, 0.5, True),
        "SubpolyReport(n=2, width=2, depth=1, n_log_n=1.5, sum_log_hooks=0.0, "
        "n_log_depth=0.0, log_naive=0.5, hook_bound_ok=True)",
        {},
    ),
    (
        RibbonTermsReport,
        [(name, EMPTY) for name in ("k", "m", "n", "terms", "estimate", "log_exact", "residual")],
        (2, 2, 4, (1.0, -2.0), -1.0, 1.5, 2.5),
        "RibbonTermsReport(k=2, m=2, n=4, terms=(1.0, -2.0), estimate=-1.0, "
        "log_exact=1.5, residual=2.5)",
        {},
    ),
    (
        FamilyRow,
        [(name, EMPTY) for name in (
            "family", "k", "n", "log_e", "c_k", "log_F", "log_xi", "verdict",
        )],
        ("square", 2, 4, 0.5, -0.5, 0.5, 0.0, True),
        "FamilyRow(family='square', k=2, n=4, log_e=0.5, c_k=-0.5, log_F=0.5, "
        "log_xi=0.0, verdict=True)",
        {},
    ),
    (
        BoundsReport,
        # the parameters after xi had placeholder defaults, overwritten once
        # the report was built; the report is built whole, so they are not
        # pinned
        [(name, EMPTY) for name in (
            "shape", "exact", "xi", "lower", "upper", "chain_sizes", "verdicts", "log_gaps",
        )],
        (
            SkewShape([2, 1], [1]), 2, 1, {"hp": Fraction(2)}, {"chain": 2},
            (1, 1), {"hp": True, "chain": False}, {"hp": 0.0, "chain": 0.0},
        ),
        "BoundsReport(shape=SkewShape([2, 1], [1]), exact=2, xi=1, "
        "lower={'hp': Fraction(2, 1)}, upper={'chain': 2}, "
        "chain_sizes=(1, 1), "
        "verdicts={'hp': True, 'chain': False}, log_gaps={'hp': 0.0, 'chain': 0.0})",
        {"all_verdicts_hold": False},
    ),
    (
        PathFamily,
        [("paths", EMPTY)],
        (PATHS,),
        "PathFamily(paths=(((1, 2),), ((2, 1),)))",
        {"support": frozenset({(1, 2), (2, 1)}), "endpoints": (((1, 2), (1, 2)), ((2, 1), (2, 1)))},
    ),
    (
        SlimReport,
        [("ell", EMPTY), ("xi", EMPTY), ("ratio", EMPTY), ("staircase_power_ok", EMPTY)],
        (2, 2, Fraction(1), True),
        "SlimReport(ell=2, xi=2, ratio=Fraction(1, 1), staircase_power_ok=True)",
        {},
    ),
    (
        SweepResult,
        [("name", EMPTY), ("checked", EMPTY), ("failures", EMPTY)],
        ("oracles", 1, ["x"]),
        "SweepResult(name='oracles', checked=1, failures=['x'])",
        {"ok": False},
    ),
]


@pytest.mark.parametrize(
    "cls, params, values, text, props", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_api(cls, params, values, text, props):
    signature = inspect.signature(cls).parameters.values()
    assert [p.name for p in signature] == [name for name, _ in params]
    assert {p.kind for p in signature} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    if cls is not BoundsReport:
        assert [p.default for p in signature] == [default for _, default in params]
    positional = cls(*values)
    by_name = cls(**{name: value for (name, _), value in zip(params, values)})
    assert repr(positional) == repr(by_name) == text
    for name, want in props.items():
        got = getattr(positional, name)
        assert (got() if callable(got) else got) == want, name


def test_bounds_report_key_order():
    report = bounds_report(parse_shape("4,3,2/2,1"))
    names = ["rank-factorial", "hp", "naive-hlf", "chain", "xi-times-F", "skew-lr"]
    assert list(report.lower) + list(report.upper) == names
    assert list(report.verdicts) == list(report.log_gaps) == names
