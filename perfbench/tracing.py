"""Per-layer spans and counters, recorded from outside the library.

Each hook wraps one function at the attribute its caller looks it up
through (a module global such as ``valsat._ratkernel.gcd``, or a class
attribute such as ``PackedEngine.insert_vector``), so a refactor that keeps
the call sites keeps the hooks.  A target that no longer exists is reported
as absent and its metrics read 0; nothing fails.

A hook is either a counter or a span.  Spans that share a nesting key are
recorded only at the outermost level, so ``GenericEngine.insert_shift_of``
calling ``insert_vector`` counts once, as a shift.  Time outside every span
is reported as unattributed.

The hooks come in two sets that are installed in separate passes.
SPAN_HOOKS time the layers.  COUNT_HOOKS sit on functions called tens of
thousands of times per instance inside those spans (``gcd``, the row
eliminations, ``_pgcd``); their wrappers would inflate the very span times
they sit in, so they run in a pass of their own, which reports only their
counts and the time inside ``_pgcd``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    target: str                     # "module:attr" or "module:Class.attr"
    key: str | None = None          # nesting key; None for a plain counter
    time_metric: str | None = None
    count_metric: str | None = None
    observe: Callable | None = None  # observe(tracer, args, result)


def _height(c) -> int:
    """Bits of a rational or an F_p residue; t-degree of a rational function."""
    if hasattr(c, "num"):
        return max(len(c.num), len(c.den)) - 1
    v = c.value
    if hasattr(v, "denominator"):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return abs(v).bit_length()


def _obs_saturation(tr, args, res):
    rounds = res.trace[-1].k if res.trace else 0
    tr.add("vxsat.rounds", rounds)
    tr.peak("vxsat.rounds_max", rounds)
    tr.add("vxsat.basis_cols", len(res.basis))
    tr.add("vxsat.generators", len(res.generators))
    height = max((_height(c) for v in res.basis for comp in v.comps for c in comp),
                 default=0)
    tr.peak("vxsat.height_max", height)


def _obs_insert(tr, args, result):
    if result[0]:
        tr.add("engines.survived", 1)


def _obs_engine(tr, args, engine):
    label = f"{type(engine).__name__}({getattr(engine, 'name', '?')})"
    seen = tr.engines.setdefault(tr.family, {})
    seen[label] = seen.get(label, 0) + 1


def _obs_parse(tr, args, result):
    tr.add("textio.bytes_in", len(args[0].encode()))


def _obs_render(tr, args, result):
    tr.add("textio.bytes_out", len(result.encode()) + 1)


def _obs_kernel(tr, args, result):
    tr.add("syzygy.kernel_vecs", len(result))


def _obs_cli(tr, args, rc):
    if rc != 0:
        tr.add("cli.exit_nonzero", 1)


# The engine hooks are cheap (one call per saturation) and also run untraced,
# to record which engine each family ran on.
ENGINE_HOOKS = [
    Hook("valsat.vxsat:select_engine", observe=_obs_engine),
    Hook("valsat._engines:select_engine", observe=_obs_engine),
]


def _engine_hooks(cls_path):
    return [
        Hook(f"{cls_path}.insert_vector", "engines", "engines.fold_s",
             "engines.inserts", _obs_insert),
        Hook(f"{cls_path}.insert_shift_of", "engines", "engines.shift_s",
             "engines.inserts", _obs_insert),
        Hook(f"{cls_path}.export_basis", "engines", "engines.export_s"),
        Hook(f"{cls_path}.polyvec", "engines", "engines.export_s"),
    ]


SPAN_HOOKS = [
    Hook("valsat.textio:parse_instance", "parse", "textio.parse_s", None, _obs_parse),
    Hook("valsat.cli:parse_instance", "parse", "textio.parse_s", None, _obs_parse),
    Hook("valsat.textio:render_vector", "render", "textio.render_s", None, _obs_render),
    Hook("valsat.cli:render_vector", "render", "textio.render_s", None, _obs_render),
    Hook("valsat.vxsat:saturate_vx", "vxsat", "vxsat.s", "vxsat.calls", _obs_saturation),
    Hook("valsat.syzygy:saturate_vx", "vxsat", "vxsat.s", "vxsat.calls", _obs_saturation),
    Hook("valsat.cli:saturate_vx", "vxsat", "vxsat.s", "vxsat.calls", _obs_saturation),
    *_engine_hooks("valsat._engines:GenericEngine"),
    *_engine_hooks("valsat._packed:PackedEngine"),
    Hook("valsat._ratkernel:insert", "ratkernel", "ratkernel.insert_s", "ratkernel.inserts"),
    Hook("valsat._engines:echelon_insert", "echelon", "echelon.insert_s", "echelon.inserts"),
    Hook("valsat.cli:saturate_free", "free", "echelon.free_s"),
    Hook("valsat.syzygy:kernel_kx", "kernel", "syzygy.kernel_kx_s", None, _obs_kernel),
    Hook("valsat.syzygy:primitive_scale", "scale", "syzygy.scale_s"),
    Hook("valsat.cli:main", "cli", "cli.s", None, _obs_cli),
    # Every public function of the oracle, found by inspection, so that a
    # rewrite of the oracle keeps being measured.
    Hook("valsat.oracle:*", "oracle", "oracle.s", "oracle.calls"),
]

COUNT_HOOKS = [
    Hook("valsat._ratkernel:_sub_scaled", count_metric="ratkernel.elims"),
    Hook("valsat._ratkernel:gcd", count_metric="ratkernel.gcd_calls"),
    Hook("valsat.polyvec:PolyVec.sub_scaled", count_metric="polyvec.elims"),
    Hook("valsat.valuation:_pgcd", "pgcd", "valuation.pgcd_s", "valuation.pgcd_calls"),
]


def _resolve(target):
    """[(owner, attribute name, current value)]; empty when the target is gone.

    An attribute ``*`` stands for every public function the module defines.
    """
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        if attr == "*":
            return [(owner, name, obj) for name, obj in sorted(vars(owner).items())
                    if callable(obj) and not name.startswith("_")
                    and getattr(obj, "__module__", None) == mod_name]
        return [(owner, attr, getattr(owner, attr))]
    except (ImportError, AttributeError):
        return []


class Tracer:
    """Installs hooks, accumulates their metrics, and removes them again."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.values: dict[str, float] = defaultdict(float)
        self.engines: dict[str, dict[str, int]] = {}
        self.family = "?"
        self.absent: list[str] = []
        self.covered = 0.0
        self._depth = 0
        self._active: dict[str, int] = defaultdict(int)
        self._undo = []

    def add(self, name, amount):
        self.values[name] += amount

    def peak(self, name, value):
        self.values[name] = max(self.values[name], value)

    def __enter__(self):
        for hook in self.hooks:
            found = _resolve(hook.target)
            if not found:
                self.absent.append(hook.target)
            for owner, attr, fn in found:
                had_own = isinstance(owner, type) and attr in vars(owner)
                self._undo.append((owner, attr, fn, had_own or not isinstance(owner, type)))
                setattr(owner, attr, self._wrap(hook, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn, own in reversed(self._undo):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._undo.clear()
        return False

    def _wrap(self, hook, fn):
        tr = self
        if hook.key is None:
            count, observe = hook.count_metric, hook.observe

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if count:
                    tr.values[count] += 1
                if observe:
                    observe(tr, args, result)
                return result
            return counted

        key, tname, cname, observe = hook.key, hook.time_metric, hook.count_metric, hook.observe
        clock = time.perf_counter

        def span(*args, **kwargs):
            if tr._active[key]:
                return fn(*args, **kwargs)
            tr._active[key] += 1
            tr._depth += 1
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                tr._active[key] -= 1
                tr.values[tname] += t1 - t0
                if cname:
                    tr.values[cname] += 1
                if ok and observe:
                    observe(tr, args, result)
                tr._depth -= 1
                if tr._depth == 0:
                    tr.covered += clock() - t0
            return result
        return span
