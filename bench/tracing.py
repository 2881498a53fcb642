"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark side only: every traced public
function of ``skewtab`` is replaced, at every module attribute it is bound
under, by a wrapper that appends ``[name, start, end, parent, info]`` to an
in-memory list.  Rebinding every alias matters because ``verify``,
``bounds`` and ``asymptotics`` import kernels with ``from .exact import``,
so patching ``exact.jacobi_trudi_count`` alone would miss their calls.
Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter


def _shape_key(shape):
    return (shape.outer.parts, shape.inner.parts)


def _first_shape(args, kwargs):
    return args[0] if args else kwargs["shape"]


def _info_jt(args, kwargs, result):
    shape = _first_shape(args, kwargs)
    return (_shape_key(shape), len(shape.outer), result.bit_length())


def _info_shape(args, kwargs, result):
    return (_shape_key(_first_shape(args, kwargs)),)


def _info_size(args, kwargs, result):
    shape = _first_shape(args, kwargs)
    return (_shape_key(shape), shape.size)


def _info_enum(args, kwargs, result):
    return (_shape_key(_first_shape(args, kwargs)), len(result))


def _info_grid(args, kwargs, result):
    grid = kwargs.get("grid", args[1] if len(args) > 1 else 512)
    return (grid * grid + (grid // 2) ** 2,)


def _info_sweep(args, kwargs, result):
    return (result.checked,)


# (module, attribute, info extractor); a dotted attribute is a method.
TRACED = [
    ("shapes", "parse_shape", None),
    ("shapes", "ShapeFamily.build", None),
    ("exact", "jacobi_trudi_count", _info_jt),
    ("exact", "brute_force_count", _info_size),
    ("exact", "naive_hlf", None),
    ("exact", "lr_coefficient", None),
    ("excited", "enumerate_excited", _info_enum),
    ("excited", "nhlf_count", None),
    ("excited", "min_max_term", None),
    ("excited", "xi_determinant", _info_shape),
    ("excited", "xi_bounds", None),
    ("excited", "paths_from_diagram", None),
    ("bounds", "bounds_report", None),
    ("bounds", "hp_lower", None),
    ("bounds", "chain_upper", None),
    ("bounds", "rank_factorial_lower", None),
    ("bounds", "skew_lr_upper", None),
    ("asymptotics", "hook_integral", _info_grid),
    ("asymptotics", "family_row", None),
    ("verify", "skew_shapes", None),
    ("verify", "oracle_sweep", _info_sweep),
    ("verify", "bounds_sweep", _info_sweep),
    ("cli", "main", None),
]


class Tracer:
    """Collects spans while active; one caller at a time (no threads)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        if inspect.isgeneratorfunction(fn):
            # A generator is timed per item, so each span covers the work
            # done inside the generator for one ``next`` call.
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                    spans.append(span)
                    stack.append(len(spans) - 1)
                    span[1] = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        span[2] = perf_counter()
                        stack.pop()
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Patch every traced function at every binding, restore on exit."""
        owners = {mod_name: importlib.import_module(f"skewtab.{mod_name}") for mod_name, _, _ in TRACED}
        modules = [m for n, m in list(sys.modules.items()) if n == "skewtab" or n.startswith("skewtab.")]
        # module-level tables such as verify.SWEEP_GROUPS hold functions too
        tables = [v for m in modules for v in vars(m).values() if isinstance(v, dict)]
        restore = []
        try:
            for mod_name, attr, info in TRACED:
                owner = owners[mod_name]
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original, info))
                    restore.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, info)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, original))
                for table in tables:
                    for key, value in list(table.items()):
                        if value is original:
                            table[key] = wrapper
                            restore.append((table, key, original))
            yield self
        finally:
            for target, key, original in reversed(restore):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)


def layer_stats(spans) -> dict:
    """Aggregate one pass's spans per traced name.

    Returns name -> {calls, s, self_s, infos}; ``s`` is inclusive time and
    ``self_s`` subtracts the time covered by direct child spans.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, dict] = {}
    for idx, (name, start, end, _parent, info) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "infos": []})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - child_time[idx]
        if info is not None:
            st["infos"].append((end - start, info))
    return out


_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "infos": []}


def _dup_ratio(st) -> float:
    keys = {info[0] for _, info in st["infos"]}
    return st["calls"] / len(keys) if keys else 0.0


def layer_metrics(spans, wall_s: float, members: dict) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``members`` maps a shape key to the name of a fixed large-shapes member,
    whose determinant time is reported on its own to show size growth.
    """
    stats = layer_stats(spans)

    def get(name):
        return stats.get(name, _EMPTY)

    m: dict[str, tuple] = {}
    jt = get("exact.jacobi_trudi_count")
    m["exact.jacobi_trudi_count.calls"] = (jt["calls"], "count")
    m["exact.jacobi_trudi_count.s"] = (jt["s"], "s")
    m["exact.jacobi_trudi_count.self_s"] = (jt["self_s"], "s")
    m["exact.jacobi_trudi_count.share"] = (jt["self_s"] / wall_s, "1")
    m["exact.jacobi_trudi_count.max_dim"] = (max((i[1] for _, i in jt["infos"]), default=0), "count")
    m["exact.jacobi_trudi_count.max_bits"] = (max((i[2] for _, i in jt["infos"]), default=0), "bits")
    m["exact.jacobi_trudi_count.dup_ratio"] = (_dup_ratio(jt), "1")
    member_s = dict.fromkeys(members.values(), 0.0)
    for dt, info in jt["infos"]:
        if info[0] in members:
            member_s[members[info[0]]] += dt
    for name, dt in member_s.items():
        m[f"exact.jacobi_trudi_count.s.{name}"] = (dt, "s")
    bf = get("exact.brute_force_count")
    m["exact.brute_force_count.calls"] = (bf["calls"], "count")
    m["exact.brute_force_count.s"] = (bf["s"], "s")
    m["exact.brute_force_count.max_n"] = (max((i[1] for _, i in bf["infos"]), default=0), "count")
    m["exact.naive_hlf.s"] = (get("exact.naive_hlf")["s"], "s")
    m["exact.lr_coefficient.s"] = (get("exact.lr_coefficient")["s"], "s")

    en = get("excited.enumerate_excited")
    diagrams = sum(i[1] for _, i in en["infos"])
    m["excited.enumerate_excited.calls"] = (en["calls"], "count")
    m["excited.enumerate_excited.s"] = (en["s"], "s")
    m["excited.enumerate_excited.share"] = (en["s"] / wall_s, "1")
    m["excited.enumerate_excited.diagrams"] = (diagrams, "count")
    m["excited.enumerate_excited.us_per_diagram"] = (1e6 * en["s"] / diagrams if diagrams else 0.0, "us")
    m["excited.enumerate_excited.dup_ratio"] = (_dup_ratio(en), "1")
    m["excited.nhlf_count.self_s"] = (get("excited.nhlf_count")["self_s"], "s")
    m["excited.min_max_term.self_s"] = (get("excited.min_max_term")["self_s"], "s")
    xi = get("excited.xi_determinant")
    m["excited.xi_determinant.calls"] = (xi["calls"], "count")
    m["excited.xi_determinant.s"] = (xi["s"], "s")
    m["excited.xi_determinant.dup_ratio"] = (_dup_ratio(xi), "1")
    m["excited.xi_bounds.s"] = (get("excited.xi_bounds")["s"], "s")
    m["excited.paths_from_diagram.s"] = (get("excited.paths_from_diagram")["s"], "s")

    br = get("bounds.bounds_report")
    m["bounds.bounds_report.calls"] = (br["calls"], "count")
    m["bounds.bounds_report.s"] = (br["s"], "s")
    m["bounds.bounds_report.self_s"] = (br["self_s"], "s")
    for name in ("hp_lower", "chain_upper", "rank_factorial_lower", "skew_lr_upper"):
        m[f"bounds.{name}.s"] = (get(f"bounds.{name}")["s"], "s")

    hi = get("asymptotics.hook_integral")
    m["asymptotics.hook_integral.calls"] = (hi["calls"], "count")
    m["asymptotics.hook_integral.s"] = (hi["s"], "s")
    m["asymptotics.hook_integral.grid_cells"] = (sum(i[0] for _, i in hi["infos"]), "count")
    fr = get("asymptotics.family_row")
    m["asymptotics.family_row.s"] = (fr["s"], "s")
    m["asymptotics.family_row.self_s"] = (fr["self_s"], "s")

    m["verify.skew_shapes.s"] = (get("verify.skew_shapes")["s"], "s")
    checked = 0
    for name in ("oracle_sweep", "bounds_sweep"):
        st = get(f"verify.{name}")
        m[f"verify.{name}.s"] = (st["s"], "s")
        checked += sum(i[0] for _, i in st["infos"])
    m["verify.shapes_checked"] = (checked, "count")
    m["shapes.parse_shape.s"] = (get("shapes.parse_shape")["s"], "s")
    m["shapes.ShapeFamily.build.s"] = (get("shapes.ShapeFamily.build")["s"], "s")

    main = get("cli.main")
    m["cli.main.s"] = (main["s"] / main["calls"] if main["calls"] else 0.0, "s")
    return m
