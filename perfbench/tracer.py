"""Per-layer timing of ``lineflags`` from outside the package.

:class:`Tracer` replaces public functions of the package modules by
wrappers that count calls, errors and busy time with
``time.perf_counter``.  A function is replaced in every ``lineflags``
module that binds it, so calls between modules are seen too.  Busy time
is inclusive of callees; each call also records its self time, its time
minus that of the traced calls it made, from which the order residuals
are derived.  :meth:`Tracer.uninstall` puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction
from typing import Callable

KINDS = ("I", "II", "IIIa", "IIIb", "IVa", "IVb", "IVc", "V")
CLI_COMMANDS = ("enum", "hasse", "compare", "verify", "chain")
TABLE_VARIANTS = ("standard", "basis", "family", "limit")


def _probe_variant(tr: "Tracer", args, kwargs) -> str | None:
    return "chain_probe" if tr.probe else None


def _tables_variant(tr: "Tracer", args, kwargs) -> str | None:
    return tr.config_source


def _family_variant(tr: "Tracer", args, kwargs) -> str:
    tau = args[2] if len(args) > 2 else kwargs["tau"]
    return "limit" if Fraction(tau) == 0 else "family"


def _cli_variant(tr: "Tracer", args, kwargs) -> str | None:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _count(name: str, measure: Callable) -> Callable:
    def hook(tr: "Tracer", args, result) -> None:
        tr.stats[name] += measure(result)

    return hook


def _set_source(source: str | None) -> Callable:
    def hook(tr: "Tracer", args, result) -> None:
        tr.config_source = source

    return hook


def _family_source(tr: "Tracer", args, result) -> None:
    tr.config_source = _family_variant(tr, args, {})


def _report_counts(tr: "Tracer", args, report) -> None:
    tr.stats["moves.verify_equivalence.elements"] += report.element_count
    tr.stats["moves.verify_equivalence.covers"] += report.cover_count


# (module, function, variant of a call or None, hook run on the result or None)
TIMED = (
    ("flagcore", "raise_if_invalid", None, None),
    ("twoflags", "enumerate_transport_matrices", None, None),
    ("twoflags", "rank_table", _probe_variant, None),
    ("twoflags", "simple_moves", None, None),
    ("twoflags", "verify_two_flag_theorem", None, None),
    ("decorated", "enumerate_orbits", None,
     _count("decorated.enumerate_orbits.orbits", len)),
    ("decorated", "rbar_table", _probe_variant, None),
    ("decorated", "rk_leq_dec", None, None),
    ("decorated", "rk_first_difference", None, None),
    ("decorated", "decorated_from_tables", None, None),
    ("moves", "applicable_moves", _probe_variant, None),
    ("moves", "apply_move", None, None),
    ("moves", "find_chain", None,
     _count("moves.find_chain.steps", lambda chain: len(chain or ()))),
    ("moves", "build_poset", None,
     _count("moves.build_poset.covers", lambda poset: len(poset.covers))),
    ("moves", "verify_equivalence", None, _report_counts),
    ("witness", "standard_configuration", None, _set_source("standard")),
    ("witness", "apply_basis_change", None, _set_source("basis")),
    ("witness", "geometric_rank_tables", _tables_variant, None),
    ("witness", "degeneration_family", _family_variant, _family_source),
    ("witness", "verify_move_degeneration", None, None),
    ("cli", "main", _cli_variant, None),
)


class Tracer:
    """Counts and busy times of the traced functions, per variant.

    ``stats`` maps a metric name to its running total.  The totals of the
    workload's set-up are kept apart (:meth:`end_setup`), so that the
    batch totals can be reported per batch.
    """

    def __init__(self) -> None:
        self.stats: Counter = Counter()
        self.setup_stats: Counter = Counter()
        self.probe = False
        self.config_source: str | None = None
        self._on = False
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def end_setup(self) -> None:
        self.setup_stats, self.stats = self.stats, Counter()

    def pause(self) -> None:
        self._on = False

    def resume(self) -> None:
        self._on = True

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded ``lineflags`` module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "lineflags" or name.startswith("lineflags.")
        ]
        wrappers = {}
        for module, func, variant, hook in TIMED:
            loaded = sys.modules.get(f"lineflags.{module}")
            if loaded is None:  # cli is loaded by the cli-small workload only
                continue
            original = getattr(loaded, func)
            wrappers[original] = self._timed(f"{module}.{func}", original, variant, hook)
        iter_moves = sys.modules["lineflags.moves"].iter_moves
        wrappers[iter_moves] = self._counting_moves(iter_moves)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._on = False

    def _timed(self, name: str, fn: Callable, variant, hook) -> Callable:
        tr = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tr._on:
                return fn(*args, **kwargs)
            key = name
            if variant is not None:
                v = variant(tr, args, kwargs)
                if v is not None:
                    key = f"{name}.{v}"
            frame = [0.0]
            tr._stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tr.stats[f"{name}.errors"] += 1
                raise
            finally:
                dt = clock() - t0
                tr._stack.pop()
                if tr._stack:
                    tr._stack[-1][0] += dt
                tr.stats[f"{key}.calls"] += 1
                tr.stats[f"{key}.busy_s"] += dt
                tr.stats[f"{name}.self_s"] += dt - frame[0]
            if hook is not None:
                hook(tr, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_moves(self, fn: Callable) -> Callable:
        tr = self

        def traced_iter_moves(*args, **kwargs):
            for move in fn(*args, **kwargs):
                if tr._on:
                    tr.stats[f"moves.kind.{move.kind}"] += 1
                yield move

        traced_iter_moves.__wrapped__ = fn
        return traced_iter_moves

    # -- reporting -----------------------------------------------------

    def metrics(self, batches: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: the set-up's total plus the mean over
        the traced batches."""
        per = 1.0 / max(1, batches)

        def value(name: str) -> float:
            return self.setup_stats[name] + self.stats[name] * per

        names = []
        for module, func, variant, _ in TIMED:
            name = f"{module}.{func}"
            variants = {
                "witness.geometric_rank_tables": TABLE_VARIANTS,
                "witness.degeneration_family": ("family", "limit"),
                "cli.main": CLI_COMMANDS,
            }.get(name)
            if variants is None:
                variants = ("",) if variant is None else ("", ".chain_probe")
            else:
                variants = tuple(f".{v}" for v in variants)
            for v in variants:
                names += [f"{name}{v}.calls", f"{name}{v}.busy_s"]
            names.append(f"{name}.errors")
        names += [f"moves.kind.{kind}" for kind in KINDS]
        names += [
            "decorated.enumerate_orbits.orbits",
            "moves.find_chain.steps",
            "moves.build_poset.covers",
            "moves.verify_equivalence.elements",
            "moves.verify_equivalence.covers",
        ]
        out = {
            name: (value(name), "s" if name.endswith("_s") else "count") for name in names
        }
        out["moves.order_residual_s"] = (value("moves.verify_equivalence.self_s"), "s")
        out["twoflags.order_residual_s"] = (
            value("twoflags.verify_two_flag_theorem.self_s"), "s"
        )
        return out
