#!/usr/bin/env python3
"""skewtab benchmark: four workloads, end-to-end time to solution, traced layers.

Run from the repository root, against the working tree (nothing is
installed; ``src`` is put on the import path):

    python3 bench/run.py --workload large-shapes --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``large-shapes``,
``small-sweep``, ``hook-sum`` and ``cli``.  All load comes from this one
process with one caller at a time, a closed loop; ``cli`` runs one
subprocess at a time.

A run sets the workload up in this process, then repeats passes over the
workload's fixed operation list until ``--seconds`` have elapsed (at least
three passes, four for hook-sum) and checks every pass's outputs, untimed.
No timing is a minimum: on a shared machine a minimum hangs on rare fast
outliers and varied more from run to run.  ``op_p50_ms`` and ``op_tail_ms``
are percentiles of all operations of all passes, and ``setup_s`` is the
median of several set-ups in fresh interpreters, spread over the run so
that they do not all fall into one slow spell of the machine.  ``solve_s``
is the mean pass.  The machine this was tuned on (2 vCPUs of a shared host)
runs for seconds at a time at one of two speeds about 1.5x apart, so pass
times are bimodal and the median of a run's 3 to 8 passes flips between the
two levels, while the mean moves in proportion to the share of the run
spent at the slow speed: over 19 ten-seed sets of the four workloads,
IQR/median of the mean pass was lower than that of the median pass in 15,
equal in one (hook-sum 0.16 against 0.28 in the latest).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, the tracing overhead included.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, with
machine metadata and every raw sample, is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from math import floor
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracing import Tracer, layer_metrics, layer_stats  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, large_member_keys  # noqa: E402

OUT = BENCH / "out"
SETUP_SAMPLES = 9  # fresh-interpreter set-ups per untraced run
IMPORT_SAMPLES = 5  # fresh-interpreter pairs behind cli.import_s


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """Highest percentile (to 0.1), at most p99, with at least ten samples beyond it.

    It is fixed per workload from the smallest sample a run can have, the
    ops of min_passes passes, so it does not move when a faster machine fits
    more passes into the run.  Beyond p99 of small-sweep's sub-millisecond
    steps lie isolated pauses that hit random steps rather than the slow
    shapes: p99.9 there varied tenfold from run to run, p99 by about 13%.
    """
    return min(99.0, max(50.0, floor(1000 * (1 - 10 / samples)) / 10))


def time_setup(workload, seed: int, quick: bool) -> float:
    t0 = perf_counter()
    workload.setup(seed, quick)
    return perf_counter() - t0


def child_setup_s(args) -> float:
    """Set-up time measured in a fresh interpreter, import of skewtab included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def cli_import_s() -> float:
    """Median fresh-interpreter `import skewtab.cli` minus median bare start-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, into in (("pass", bare), ("import skewtab.cli", full)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
            into.append(perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def metadata() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "skewtab").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_skewtab_lines": src_lines,
    }


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # fresh-interpreter set-up times
    walls: list = field(default_factory=list)  # wall time of each untraced pass
    op_passes: list = field(default_factory=list)  # per untraced pass: each op's latency
    layers: list = field(default_factory=list)  # per traced pass: name -> (value, unit)
    base_walls: list = field(default_factory=list)  # untraced twin of each traced pass
    traced_walls: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # of the last traced pass

    def check(self, workload, result):
        attempted, failed, messages = workload.check(result)
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: max(0, 20 - len(self.messages))])


def measure(workload, seconds: int, trace: bool, setup_sample=None) -> Measurement:
    """Repeat rounds for `seconds` (at least min_passes); check every pass, untimed.

    The workload's untimed warm-up comes first: a process's first pass of
    some workloads is measurably slower while the allocator's arenas fill.
    A round is one pass, plus, when tracing, its untraced in-process twin and
    the traced pass.  A new round starts only if one as long as the last one
    still fits in `seconds`, so a run does not overshoot by a whole round.
    When `setup_sample` is given, SETUP_SAMPLES calls of it are spread evenly
    over the run, between rounds.
    """
    m = Measurement()
    want_setups = SETUP_SAMPLES if setup_sample else 0
    members = large_member_keys() if trace else {}
    start = perf_counter()
    warm = workload.warm_up()
    if warm is not None:
        m.check(workload, warm)
    round_s = 0.0
    while len(m.walls) < workload.min_passes or perf_counter() - start + round_s <= seconds:
        t0 = perf_counter()
        res = workload.run_pass()
        m.check(workload, res)
        m.walls.append(res.wall_s)
        m.op_passes.append(res.op_s)
        if trace:
            _traced_round(workload, res, m, members)
        while len(m.setups) < min(want_setups, want_setups * (perf_counter() - start) / seconds):
            m.setups.append(setup_sample())
        round_s = perf_counter() - t0
    while len(m.setups) < want_setups:
        m.setups.append(setup_sample())
    return m


def _traced_round(workload, res, m: Measurement, members: dict) -> None:
    base = res
    if workload.subprocess_pass:
        # The in-process passes of a subprocess workload only give the
        # tracer something to see: their output is the check's own
        # reference, so they are not checked or counted as attempted.
        base = workload.inprocess_pass()
    tracer = Tracer()
    with tracer.active():
        traced = workload.inprocess_pass()
    if not workload.subprocess_pass:
        m.check(workload, traced)
    m.base_walls.append(base.wall_s)
    m.traced_walls.append(traced.wall_s)
    layer = layer_metrics(tracer.spans, traced.wall_s, members)
    # share of the CLI requests' wall time spent outside cli.main
    share = 1 - base.wall_s / res.wall_s if workload.subprocess_pass else 0.0
    layer["cli.startup_share"] = (share, "1")
    m.layers.append(layer)
    m.spans = tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes and one pass minimum (harness self-check)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "skewtab" / "__init__.py").is_file():
        print(f"error: no skewtab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("SKEWTAB_")]:
        del os.environ[key]  # caps from the caller's environment would change outputs

    workload = WORKLOADS[args.workload]()
    if args.quick:
        workload.min_passes = 1
    if args.setup_only:
        print(json.dumps({"setup_s": time_setup(workload, args.seed, args.quick)}))
        return 0
    if args.reference:
        workload.setup(args.seed, args.quick)
        print(json.dumps(workload.reference()))
        return 0

    inprocess_setup_s = time_setup(workload, args.seed, args.quick)
    m = measure(workload, args.seconds, bool(args.trace),
                None if args.trace else (lambda: child_setup_s(args)))
    op_s = [t for ops in m.op_passes for t in ops]  # every (op, pass) sample
    p_tail = tail_percentile(workload.ops_per_pass * workload.min_passes)
    meta = metadata()

    if args.trace:
        metrics = {
            name: (statistics.median_low(layer[name][0] for layer in m.layers), unit)
            for name, (_, unit) in m.layers[0].items()
        }
        metrics["cli.import_s"] = (cli_import_s(), "s")
        metrics["trace.solve_s"] = (statistics.mean(m.traced_walls), "s")
        # paired by round: a traced pass runs right after its untraced twin
        overheads = [t - b for t, b in zip(m.traced_walls, m.base_walls)]
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(m.setups), "s"),
            "solve_s": (statistics.mean(m.walls), "s"),
            "op_p50_ms": (1000 * percentile(op_s, 50), "ms"),
            "op_tail_ms": (1000 * percentile(op_s, p_tail), "ms"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
            "ok_ratio": ((m.attempted - m.failed) / m.attempted, "1"),
        }

    notes = {
        "passes": len(m.walls),
        "ops_per_pass": workload.ops_per_pass,
        "op_samples": len(op_s),
        "op_tail_percentile": p_tail,
        "inprocess_setup_s": inprocess_setup_s,
        "setup_samples_s": m.setups,
        "pass_walls_s": m.walls,
        "op_passes_s": m.op_passes,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {meta['nproc']}  python {meta['python']}  numpy {meta['numpy']}  "
          f"src/skewtab {meta['src_skewtab_lines']} lines  cpu {meta['cpu_model']}")
    print(f"passes {len(m.walls)}, {workload.ops_per_pass} ops per pass; "
          f"op_p50_ms and op_tail_ms (p{p_tail:g}) are of {len(op_s)} op samples")
    if args.trace:
        stats = layer_stats(m.spans)
        wall = m.traced_walls[-1]
        top = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        print(f"last traced pass {wall:.4f} s; largest self times:")
        for name, st in top:
            print(f"  {name:34s} self {st['self_s']:.4f} s  {100 * st['self_s'] / wall:5.1f}%  ({st['calls']} calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:>14.6g} {unit}")
    for message in m.messages:
        print(f"FAILED {message}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "metadata": meta, "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": m.messages,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": [s[:4] for s in m.spans]}),
            encoding="utf-8",
        )

    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
