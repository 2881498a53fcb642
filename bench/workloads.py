"""The benchmark's four workloads.

Each workload builds its inputs from a seed in ``setup`` (the only place
that imports ``skewtab``, so set-up time includes the import), runs one pass
over its fixed list of operations in ``run_pass`` and checks a pass's
outputs in ``check``, which is never timed.  The library only ever sees the
generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from math import isfinite, sqrt
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class PassResult:
    wall_s: float
    op_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # an exception marks a failed op


class Workload:
    name = ""
    min_passes = 3
    subprocess_pass = False  # True when run_pass runs the program out of process

    def setup(self, seed: int, quick: bool) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def warm_up(self) -> PassResult | None:
        """Untimed work before the first timed pass; a returned pass is checked."""
        return None

    def inprocess_pass(self) -> PassResult:
        """The pass a traced run instruments; in-process workloads trace run_pass."""
        return self.run_pass()

    def check(self, result: PassResult) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) for one pass."""
        raise NotImplementedError

    @property
    def ops_per_pass(self) -> int:
        return len(self.ops)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_ops(ops, call) -> PassResult:
    """Run call(op) for every op, one at a time; an exception fails that op only."""
    res = PassResult(0.0)
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            out = call(op)
        except Exception as exc:  # a raising op is a failed op, the pass goes on
            out = exc
        res.op_s.append(perf_counter() - t0)
        res.outputs.append(out)
    res.wall_s = perf_counter() - start
    return res


def _digest(value: int) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:32]


# -- large-shapes ---------------------------------------------------------------

# sha256 prefixes of the decimal count e, each cross-checked against the
# counts of the conjugate and the 180-degree rotation when recorded.
LARGE_DIGESTS = {
    "thick-ribbon-8": "2a4fa3f5baa31211e95b693b703b3158",
    "thick-ribbon-12": "18e0073c103acd66b954f4fb9d48a4c2",
    "thick-ribbon-14": "1221c405868e07091543d4ed3eca362e",
    "thick-ribbon-16": "e03314f3d0ee6e70363c5abe5eed1653",
    "thick-ribbon-20": "e9dbb349a7547f48d07bb659d4f3b16c",
    "thick-ribbon-24": "3f7ff356e6664a94a50a4199eef57bf1",
    "zigzag-10": "d8c9f3baec62945c925b265d1a9884f5",
    "zigzag-20": "6022a7e59836c99461c07cdb03cd5c97",
    "zigzag-30": "ae4fa9b0cc18d8f20adfa34d471a2149",
    "zigzag-40": "7994373567dbd2ae1658b5e7d6f40ce4",
    "square-10": "fa2a8cc9f739d1e0a98b5dd263a0b2a5",
    "square-20": "972da8796eb47111a69982877c766556",
    "square-24": "000ef88333857dc425edca0730326104",
    "square-30": "1c7406d61d96461631c02ecd621dc97e",
    "inverted-thick-hook-5": "089cbfc1dee6b49dc95baba8c4e14fd9",
    "inverted-thick-hook-10": "f2f8040e92c4c5b68ada1df58ab45249",
    "inverted-thick-hook-12": "c7e183fa7c7118ca370996cd78a33df7",
    "inverted-thick-hook-15": "d84e97136dad3555710b34c28c66ca79",
    "inverted-thick-hook-20": "0e86ed1c4a2df82c30ac8223e718eae9",
}
QUICK_LARGE = ("thick-ribbon-8", "zigzag-10", "square-10", "inverted-thick-hook-5")

# thick-ribbon-14, square-24 and inverted-thick-hook-12 fill the gap in cost
# between square-20 and zigzag-30 (about 50 and 100 ms): with twenty ops the
# median fell in that gap and jumped with small changes of speed.  Now the
# pass has 23 ops and the median one is inverted-thick-hook-12, its
# neighbours within 1.3x of it.
#
# Seeded members: (rows, first-row width) per slot.  Fixing both per slot
# keeps a member's determinant cost within about 10% across seeds.  Two
# slots cost less than square-20 and two more than zigzag-30, so the ops
# around the median are the same fixed members whatever the seed, and the
# tail is among the largest fixed shapes.
LARGE_SLOTS = ((20, 24), (23, 18), (40, 12), (40, 20))


def _slot_shape(rng: random.Random, rows: int, width: int):
    from skewtab.shapes import SkewShape

    outer = [width] + sorted((rng.randint(1, width) for _ in range(rows - 1)), reverse=True)
    inner: list[int] = []
    for i, p in enumerate(outer):
        hi = p - 1 if i == 0 else min(p - 1, inner[-1])
        inner.append(rng.randint(0, hi) if hi > 0 else 0)
    return SkewShape(outer, inner)


def _large_member(name: str):
    """Build a fixed member from its name, e.g. thick-ribbon-24."""
    from skewtab import shapes

    family, k = name.rsplit("-", 1)
    builders = {
        "thick-ribbon": shapes.thick_ribbon,
        "zigzag": shapes.zigzag,
        "square": shapes.square_shape,
        "inverted-thick-hook": shapes.inverted_thick_hook,
    }
    return builders[family](int(k))


def large_member_keys() -> dict:
    """Shape key -> name for every fixed large-shapes member."""
    keys = {}
    for name in LARGE_DIGESTS:
        shape = _large_member(name)
        keys[(shape.outer.parts, shape.inner.parts)] = name
    return keys


class LargeShapes(Workload):
    """In-process `skewtab bounds` on large shapes: big-integer Bareiss dominates."""

    name = "large-shapes"

    def setup(self, seed, quick):
        from skewtab import asymptotics, bounds, exact

        self.bounds, self.asymptotics, self.exact = bounds, asymptotics, exact
        self.ops = [(name, _large_member(name)) for name in (QUICK_LARGE if quick else LARGE_DIGESTS)]
        rng = random.Random(seed)
        for i, (rows, width) in enumerate(LARGE_SLOTS[:1] if quick else LARGE_SLOTS):
            self.ops.append((f"random-{i}-{rows}-rows", _slot_shape(rng, rows, width)))
        self._conjugate_counts: dict = {}

    def _op(self, op):
        _, shape = op
        report = self.bounds.bounds_report(shape)
        c = self.asymptotics.second_order_constant(shape, exact=report.exact)
        return report.exact, report.all_verdicts_hold, c

    def run_pass(self):
        return _timed_ops(self.ops, self._op)

    def check(self, result):
        from skewtab.shapes import SkewShape

        bad = []
        for (name, shape), out in zip(self.ops, result.outputs):
            if isinstance(out, Exception):
                bad.append(f"{name}: raised {out!r}")
                continue
            e, verdicts_hold, c = out
            if not verdicts_hold:
                bad.append(f"{name}: a bound verdict failed")
            elif not isfinite(c):
                bad.append(f"{name}: second-order constant {c}")
            elif name in LARGE_DIGESTS:
                if _digest(e) != LARGE_DIGESTS[name]:
                    bad.append(f"{name}: count digest differs")
            else:
                if name not in self._conjugate_counts:
                    conj = SkewShape(shape.outer.conjugate(), shape.inner.conjugate())
                    self._conjugate_counts[name] = self.exact.jacobi_trudi_count(conj)
                if e != self._conjugate_counts[name]:
                    bad.append(f"{name}: count differs from the conjugate shape's")
        return len(self.ops), len(bad), bad


# -- small-sweep ----------------------------------------------------------------

# Connected skew shapes with |outer| <= max size, as the sweeps generate them.
SWEEP_TOTALS = {11: 2276, 7: 268}


class SmallSweep(Workload):
    """Both exhaustive sweeps over every connected shape with |outer| <= 11."""

    name = "small-sweep"

    def setup(self, seed, quick):
        # Nothing to generate: the sweep is exhaustive and the seed permutes
        # nothing the library sees.
        from skewtab import verify

        self.verify = verify
        self.max_size = 7 if quick else 11
        self.expected = SWEEP_TOTALS[self.max_size]

    @property
    def ops_per_pass(self):
        return 2 * self.expected  # one op per sweep step

    def warm_up(self):
        return self.run_pass()  # a first pass is about 10% slower (median of ten runs)

    def run_pass(self):
        res = PassResult(0.0)
        marks = []
        start = perf_counter()
        for sweep in (self.verify.oracle_sweep, self.verify.bounds_sweep):
            marks.append(perf_counter())
            try:
                res.outputs.append(sweep(self.max_size, progress=lambda _: marks.append(perf_counter())))
            except Exception as exc:  # the whole sweep failed
                res.outputs.append(exc)
            # per-step latency: time between consecutive progress callbacks
            res.op_s.extend(b - a for a, b in zip(marks, marks[1:]))
            marks.clear()
        res.wall_s = perf_counter() - start
        return res

    def check(self, result):
        bad = []
        failed = 0
        for out in result.outputs:
            if isinstance(out, Exception):
                bad.append(f"sweep raised {out!r}")
                failed += self.expected
                continue
            failed += len(out.failures) + abs(self.expected - out.checked)
            if not out.ok:
                bad.extend(f"{out.name}: {f}" for f in out.failures[:5])
            if out.checked != self.expected:
                bad.append(f"{out.name}: checked {out.checked}, expected {self.expected}")
        return 2 * self.expected, min(failed, 2 * self.expected), bad


# -- hook-sum -------------------------------------------------------------------

# Seeded members are screened on their estimated cost, not on their number
# of excited diagrams alone: time per diagram grows with the inner size, as
# about (|inner| + 10) (fit to the per-member medians of 20 runs, within
# 15%), so the estimate is xi * (|inner| + 10).  Each seeded slot has its own
# band, +-7% around a centre.  The slots come in pairs; the pairs' centres
# are log-spaced 1.2x apart, from 0.22 to 0.37 of the cost of 7^7/4,3,2,1
# (estimate 226,520), which gives 2,200 to 5,000 diagrams.  So a member costs
# about the same whatever the seed, consecutive levels differ by 1.2x, and
# the median and the tail percentile each fall among the samples of a pair
# of members, which halves what the seed's choice of shapes adds to them.
# The machine this was tuned on switches between two speeds about 1.5x
# apart for seconds at a time; with costs closer than that, a percentile of
# the op latencies moves smoothly with the share of the run spent at the
# slow speed, rather than jumping from one member's samples to the next
# one's.
HOOK_SLOTS = tuple(49_000 * 1.2 ** (i // 2) for i in range(8))
HOOK_BAND = 1.07


def _hook_cost(excited, shape) -> float:
    return excited.xi_determinant(shape) * (shape.inner.size + 10)


class HookSum(Workload):
    """What `skewtab nhlf` computes, on shapes with 2,200 to 24,696 excited diagrams."""

    name = "hook-sum"
    min_passes = 4  # 40 op samples, so the tail percentile is p75

    def setup(self, seed, quick):
        from skewtab import exact, excited
        from skewtab.shapes import SkewShape, partitions_of

        self.exact, self.excited = exact, excited
        fixed = [("7^7/4,3,2,1", SkewShape([7] * 7, [4, 3, 2, 1])),  # 11,326 diagrams
                 ("8^8/3^4", SkewShape([8] * 8, [3, 3, 3, 3]))]  # 24,696 diagrams
        self.ops = fixed[:1] if quick else list(fixed)
        # Seeded members: random inner shapes of 3 to 12 cells in a square
        # outer of side 7 to 9, one per cost band.
        candidates = [
            SkewShape([side] * side, parts)
            for side in (7, 8, 9)
            for n in range(3, 13)
            for parts in partitions_of(n, side - 1)
            if len(parts) < side
        ]
        rng = random.Random(seed)
        rng.shuffle(candidates)
        for centre in HOOK_SLOTS[:2] if quick else HOOK_SLOTS:
            shape = next(sh for sh in candidates
                         if centre / HOOK_BAND <= _hook_cost(excited, sh) <= centre * HOOK_BAND)
            candidates.remove(shape)
            side = shape.outer.parts[0]
            self.ops.append((f"{side}^{side}/{','.join(map(str, shape.inner.parts))}", shape))
        self.seed, self.quick = seed, quick
        self._expected: dict | None = None

    def reference(self) -> dict:
        """Per member: the Jacobi-Trudi count and the number of enumerated diagrams."""
        return {
            name: [self.exact.jacobi_trudi_count(shape), len(self.excited.enumerate_excited(shape))]
            for name, shape in self.ops
        }

    def _load_reference(self) -> dict:
        # A child process computes the reference, so its enumeration does not
        # count toward this process's peak RSS, which measures the passes.
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--reference",
               "--workload", self.name, "--seed", str(self.seed)] + (["--quick"] if self.quick else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def _op(self, op):
        _, shape = op
        e = self.excited.nhlf_count(shape)
        lo, hi = self.excited.min_max_term(shape)
        return e, lo, hi, self.excited.xi_determinant(shape)

    def run_pass(self):
        return _timed_ops(self.ops, self._op)

    def warm_up(self):
        # A process's first pass ran about 10% slower (median of fifteen
        # runs) while the allocator's arenas grew to the largest member's
        # diagram lists.  After one untimed, unchecked op on that member the
        # first timed pass took a median 1.0x of the run's other passes
        # (twenty runs).
        self._op(max(self.ops, key=lambda op: self.excited.xi_determinant(op[1])))
        return None

    def check(self, result):
        if self._expected is None:
            self._expected = self._load_reference()
        bad = []
        for (name, _), out in zip(self.ops, result.outputs):
            if isinstance(out, Exception):
                bad.append(f"{name}: raised {out!r}")
                continue
            jt, diagrams = self._expected[name]
            e, lo, hi, xi = out
            if e != jt:
                bad.append(f"{name}: nhlf {e} != jacobi-trudi {jt}")
            elif xi != diagrams:
                bad.append(f"{name}: xi determinant {xi} != {diagrams} enumerated")
            elif not 0 < lo <= hi:
                bad.append(f"{name}: min/max terms out of order")
        return len(self.ops), len(bad), bad


# -- cli ------------------------------------------------------------------------

_S = 1 / sqrt(3)
FIXED_SPECS = {
    "unit-square": {"outer": [[0.0, 1.0], [1.0, 1.0]]},
    "inverted-thick-hook": {
        "outer": [[0.0, 2 * _S], [2 * _S, 2 * _S]],
        "inner": [[0.0, _S], [_S, _S], [_S, 0.0], [2 * _S, 0.0]],
    },
    "thick-l": {"outer": [[0.0, 2 * _S], [_S, 2 * _S], [_S, _S], [2 * _S, _S]]},
}


def _random_partition(rng, n):
    from skewtab.shapes import partitions_of

    return rng.choice(list(partitions_of(n)))


def _random_skew(rng, n, max_inner, xi_cap=None):
    """A seeded skew shape with |outer| = n, screened on inner size and xi."""
    from skewtab.excited import xi_determinant
    from skewtab.shapes import Partition, SkewShape, subpartitions

    while True:
        lam = Partition(_random_partition(rng, n))
        inners = [mu for mu in subpartitions(lam) if 0 < mu.size <= max_inner]
        if not inners:
            continue
        shape = SkewShape(lam, rng.choice(inners))
        if xi_cap is None or xi_determinant(shape) <= xi_cap:
            return shape


def _staircase_polygon(rng):
    """A seeded weakly decreasing staircase boundary on [0, 1]."""
    k = rng.randint(3, 5)
    xs = sorted(rng.uniform(0.1, 0.9) for _ in range(k - 1))
    ys = sorted((rng.uniform(0.2, 1.0) for _ in range(k)), reverse=True)
    pts = [[0.0, ys[0]]]
    for x, y in zip(xs, ys[1:]):
        pts += [[x, pts[-1][1]], [x, y]]
    pts.append([1.0, ys[-1]])
    return {"outer": pts}


class Cli(Workload):
    """One fresh `python -m skewtab.cli` subprocess per request, closed loop."""

    name = "cli"
    subprocess_pass = True

    def setup(self, seed, quick):
        from skewtab import asymptotics, cli
        from skewtab.shapes import Partition, shape_text, subpartitions

        self.cli = cli
        rng = random.Random(seed)
        grids = (256, 512) if quick else (1024, 2048)
        specs = dict(FIXED_SPECS)
        while True:
            # screen at a coarse grid: convergence there implies it at the finer ones
            poly = _staircase_polygon(rng)
            try:
                asymptotics.hook_integral(asymptotics.StableShape(poly["outer"]), grid=256)
            except ArithmeticError:
                continue
            specs["polygon"] = poly
            break
        lam = Partition(_random_partition(rng, 10))
        mu = rng.choice([m for m in subpartitions(lam) if 3 <= m.size <= 7])
        nu = Partition(_random_partition(rng, lam.size - mu.size))
        self.ops = [
            ["count", shape_text(_random_skew(rng, rng.randint(10, 14), 5))],
            ["bounds", shape_text(_random_skew(rng, rng.randint(10, 14), 5))],
            ["nhlf", shape_text(_random_skew(rng, rng.randint(9, 11), 4, xi_cap=200))],
            ["excited", shape_text(_random_skew(rng, rng.randint(7, 9), 3, xi_cap=30)), "--paths"],
            ["family", "thick-ribbon", "--k", "2:6:2" if quick else "2:12:2"],
            ["lr"] + [",".join(map(str, p)) for p in (lam, mu, nu)],
            ["verify", "--max-size", "6" if quick else "8"],
        ]
        for name, spec in specs.items():
            for grid in grids:
                self.ops.append(["integrate", json.dumps(spec), "--grid", str(grid)])
        rng.shuffle(self.ops)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._reference: dict = {}
        self._peak_kb = 0

    def _spawn(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "skewtab.cli", *argv],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        with proc:
            out = proc.stdout.read()
            err = proc.stderr.read()
            # wait4 rather than wait, to read the child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self._peak_kb = max(self._peak_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def run_pass(self):
        return _timed_ops(self.ops, self._spawn)

    def _inprocess(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.cli.main(list(argv))
        return code, buf.getvalue().encode(), err.getvalue().encode()

    def inprocess_pass(self):
        return _timed_ops(self.ops, self._inprocess)

    def check(self, result):
        bad = []
        for argv, out in zip(self.ops, result.outputs):
            label = " ".join(argv[:2])[:60]
            if isinstance(out, Exception):
                bad.append(f"{label}: raised {out!r}")
                continue
            key = tuple(argv)
            if key not in self._reference:
                self._reference[key] = self._inprocess(argv)[1]
            code, stdout, stderr = out
            if code != 0:
                bad.append(f"{label}: exit {code}: {stderr.decode(errors='replace')[-200:]}")
            elif stdout != self._reference[key]:
                bad.append(f"{label}: stdout differs from the in-process result")
        return len(self.ops), len(bad), bad

    def peak_rss_mb(self):
        """Peak RSS of the largest CLI subprocess: the process doing the work."""
        return self._peak_kb / 1024


WORKLOADS = {w.name: w for w in (LargeShapes, SmallSweep, HookSum, Cli)}
