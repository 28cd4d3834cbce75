"""The four benchmark workloads.

Each workload turns a seed into a fixed batch of :class:`~harness.Op`
objects.  Ops call ``lineflags`` through the package namespace at run
time, so the tracer's wrappers see them.  Every answer is checked: against
the goldens pinned in ``goldens/<workload>.json`` where one applies to the
seed, and against invariants that hold for any seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from typing import Any

import oracle
from harness import (
    CPU_PROBE, MIN_BATCHES, PROCESS_PROBE, ROOT, GoldenMismatch, Op, digest, run_process,
)

DEFAULT_SEED = 1
HELDOUT_SEED = 7919


def compositions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [(f,) + rest for f in range(1, n + 1) for rest in compositions(n - f)]


def all_pairs(mass: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every pair of margins of the given mass."""
    return [(b, c) for b in compositions(mass) for c in compositions(mass)]


def margins_text(b: tuple[int, ...], c: tuple[int, ...]) -> str:
    return ",".join(map(str, b)) + "|" + ",".join(map(str, c))


def element_key(el) -> oracle.Key:
    return oracle.key(el.matrix.m, el.delta)


# The expected answer of an op that the goldens should cover but do not.
MISSING = object()


def _golden_problem(op_key: str, expected, got: str) -> str | None:
    """Compare an answer with its golden.  ``expected`` is the pinned
    answer, ``MISSING``, or None when no golden applies to the op: the
    workload was built without goldens, or the seed is not the pinned one.
    """
    if expected is MISSING:
        return f"{op_key}: no golden pinned for it"
    if expected is not None and expected != got:
        return f"{op_key}: golden mismatch (expected {expected}, got {got})"
    return None


def _pinned(goldens: dict | None, key):
    """The golden of ``key``: None when ``goldens`` is None, ``MISSING``
    when they lack it."""
    return None if goldens is None else goldens.get(key, MISSING)


def _pinned_at(goldens: dict | None, n: int) -> dict | None:
    """``goldens``, after checking that they were pinned at size ``n``."""
    if goldens is not None and goldens["n"] != n:
        raise GoldenMismatch(f"goldens pinned at n={goldens['n']}, not n={n}")
    return goldens


class Workload:
    """Defaults shared by the workloads."""

    name: str
    rss_of_children = False  # peak RSS of the worker's child processes, not its own
    imports: tuple[str, ...] = ()  # package modules to load before tracing starts
    min_batches = MIN_BATCHES
    probe = CPU_PROBE  # what op costs are measured against


# ---------------------------------------------------------------------------
# poset-n5: the batch order pipeline


class PosetWorkload(Workload):
    """``verify_equivalence``, ``build_poset`` and ``verify_two_flag_theorem``
    over margin pairs.

    The batch holds the ``named`` steps and the three steps on each margin
    pair of ``pairs``: by default every pair of mass 4 and ``MASS5``.  The
    steps do not depend on the seed, which only orders the batch: a seeded
    subset of the mass-5 pairs would change the batch's cost by about 17%
    between seeds.
    """

    name = "poset-n5"
    NAMED = (
        ("verify", (1, 1, 1, 1), (1, 1, 1, 1)),
        ("twoflag", (1, 1, 1, 1, 1), (1, 1, 1, 1, 1)),
        ("poset", (2, 2, 1), (1, 2, 2)),
        ("poset", (2, 2, 2), (2, 2, 2)),
    )
    # The middle pair of each of 12 strata, by orbit count, of the 247
    # margin pairs of mass 5 with at most 400 orbits (counts in comments).
    MASS5 = (
        ((1, 2, 2), (5,)),  # 3
        ((5,), (1, 1, 1, 1, 1)),  # 5
        ((1, 4), (1, 1, 3)),  # 13
        ((1, 1, 3), (3, 2)),  # 20
        ((1, 4), (2, 1, 1, 1)),  # 23
        ((1, 4), (1, 1, 1, 1, 1)),  # 35
        ((2, 3), (1, 1, 2, 1)),  # 46
        ((2, 2, 1), (3, 1, 1)),  # 52
        ((1, 1, 2, 1), (1, 1, 3)),  # 99
        ((1, 1, 1, 2), (1, 2, 2)),  # 148
        ((2, 2, 1), (1, 1, 2, 1)),  # 148
        ((1, 1, 2, 1), (1, 1, 2, 1)),  # 311
    )
    STEPS = ("verify", "poset", "twoflag")

    def __init__(self, goldens: dict | None, named=NAMED, pairs=None):
        self.goldens = None
        if goldens is not None:
            self.goldens = {key: pinned["digest"] for key, pinned in goldens["results"].items()}
        self.named = named
        self.pairs = all_pairs(4) + list(self.MASS5) if pairs is None else list(pairs)

    def steps(self) -> list[tuple[str, tuple, tuple]]:
        return list(self.named) + [(s, b, c) for b, c in self.pairs for s in self.STEPS]

    def setup(self, lf, seed: int, tracer=None) -> list[Op]:
        steps = self.steps()
        random.Random(seed).shuffle(steps)
        return [self._op(lf, step, b, c) for step, b, c in steps]

    @staticmethod
    def answer(lf, step: str, result) -> tuple[Any, int, int, bool]:
        """A canonical form of one step's result, its orbit and cover
        counts, and whether the program's own checks passed."""
        if step == "poset":
            form = [[lf.element_to_obj(el) for el in result.elements],
                    [list(cv) for cv in result.covers],
                    [list(kinds) for kinds in result.cover_kinds]]
            return form, len(result.elements), len(result.covers), True
        fields = ["element_count", "cover_count", "order_equivalent", "moves_are_covers"]
        if step == "verify":
            fields += ["covers_are_moves", "chains_ok"]
        form = [getattr(result, f) for f in fields] + [list(result.counterexamples)]
        return form, result.element_count, result.cover_count, result.passed

    def _op(self, lf, step: str, b, c) -> Op:
        key = f"{step} {margins_text(b, c)}"
        call = {
            "verify": lambda: lf.verify_equivalence(b, c),
            "poset": lambda: lf.build_poset(b, c),
            "twoflag": lambda: lf.verify_two_flag_theorem(b, c),
        }[step]

        def check(result):
            form, _, _, passed = self.answer(lf, step, result)
            got = digest(form)
            if not passed:
                return got, f"{key}: the program's own check failed"
            return got, _golden_problem(key, _pinned(self.goldens, key), got)

        return Op(key, call, check)

    def pin(self, lf) -> dict:
        """Goldens for every step of the batch."""
        results = {}
        for step, b, c in sorted(self.steps()):
            op = self._op(lf, step, b, c)
            form, elements, covers, passed = self.answer(lf, step, op.run())
            if not passed:
                raise GoldenMismatch(f"{op.key}: the program's own check failed")
            results[op.key] = {"digest": digest(form), "elements": elements, "covers": covers}
        return {"results": results}


# ---------------------------------------------------------------------------
# chain-n6: seeded point queries


class ChainWorkload(Workload):
    """``compare`` then ``chain`` on seeded pairs of full-flag orbits.

    Each op runs ``rk_first_difference`` and ``rk_leq_dec`` both ways, then
    ``find_chain`` upwards when the pair is comparable.  The batch holds
    ``comparable`` comparable and ``incomparable`` incomparable pairs; the
    comparable ones are drawn stratified by rank distance.
    """

    name = "chain-n6"

    def __init__(self, goldens: dict | None, n: int = 6, comparable: int = 300,
                 incomparable: int = 100):
        self.goldens = _pinned_at(goldens, n)
        self.n = n
        self.comparable = comparable
        self.incomparable = incomparable

    def setup(self, lf, seed: int, tracer=None) -> list[Op]:
        full = (1,) * self.n
        orbits = lf.enumerate_orbits(full, full)
        if self.goldens is not None and self.goldens["orbits"] != len(orbits):
            raise GoldenMismatch(
                f"{len(orbits)} orbits at n={self.n}, pinned {self.goldens['orbits']}")
        keys: dict[int, oracle.Key] = {}

        def key_of(k: int) -> oracle.Key:
            if k not in keys:
                keys[k] = element_key(orbits[k])
            return keys[k]

        rng = random.Random(seed)
        comparable, incomparable = [], []
        while len(comparable) < 2 * self.comparable or len(incomparable) < self.incomparable:
            a, b = rng.sample(range(len(orbits)), 2)
            if oracle.relation(key_of(a), key_of(b)) == "incomparable":
                incomparable.append((a, b))
            else:
                comparable.append((a, b))
        # Keep one of each two comparable pairs adjacent in rank distance, so
        # that every seed's batch has nearly the same spread of chain lengths.
        comparable.sort(key=lambda p: sum(abs(u - v) for u, v in zip(key_of(p[0]), key_of(p[1]))))
        pairs = [rng.choice(comparable[2 * s:2 * s + 2]) for s in range(self.comparable)]
        pairs += incomparable[:self.incomparable]
        rng.shuffle(pairs)
        answers = None
        if self.goldens is not None and seed == self.goldens["seed"]:
            answers = dict(enumerate(self.goldens["answers"]))
        return [
            self._op(lf, k, orbits[a], orbits[b], key_of(a), key_of(b),
                     _pinned(answers, k), tracer)
            for k, (a, b) in enumerate(pairs)
        ]

    @staticmethod
    def replay(lf, lo, chain) -> list:
        """The orbits a chain passes through, starting at ``lo``."""
        path = [lo]
        for mv in chain:
            path.append(lf.apply_move(path[-1], mv))
        return path

    def _op(self, lf, k, x, y, kx, ky, expected, tracer) -> Op:
        key = f"query {k}"

        def run():
            diff = lf.rk_first_difference(x, y)
            up = lf.rk_leq_dec(x, y)
            down = lf.rk_leq_dec(y, x)
            chain = lf.find_chain(x, y) if up else lf.find_chain(y, x) if down else None
            return diff, up, down, chain

        def check(result):
            diff, up, down, chain = result
            rel = "=" if diff is None else "<" if up else ">" if down else "incomparable"
            got = digest([rel, None if chain is None else [str(mv) for mv in chain]])
            want = oracle.relation(kx, ky)
            if rel != want:
                return got, f"{key}: compare says {rel}, the order says {want}"
            if rel in "<>":
                lo, hi = (x, y) if rel == "<" else (y, x)
                path = self.replay(lf, lo, chain)
                for z0, z1 in zip(path, path[1:]):
                    k0, k1 = element_key(z0), element_key(z1)
                    if k0 == k1 or not oracle.leq(k0, k1):
                        return got, f"{key}: chain step does not go strictly up"
                if element_key(path[-1]) != element_key(hi):
                    return got, f"{key}: chain does not end at the upper orbit"
            return got, _golden_problem(key, expected, got)

        def probe(result):
            chain = result[3]
            if not chain:
                return None
            tracer.pause()
            path = self.replay(lf, x if result[1] else y, chain)[:-1]
            tracer.resume()
            tracer.probe = True
            try:
                for z in path:
                    lf.applicable_moves(z)
                    lf.rank_table(z.matrix)
                    lf.rbar_table(z)
            finally:
                tracer.probe = False
            return None

        return Op(key, run, check, probe if tracer is not None else None)

    def pin(self, lf) -> dict:
        full = (1,) * self.n
        orbits = len(lf.enumerate_orbits(full, full))
        answers = []
        for op in self.setup(lf, DEFAULT_SEED):
            got, problem = op.check(op.run())
            if problem is not None:
                raise GoldenMismatch(problem)
            answers.append(got)
        return {"orbits": orbits, "seed": DEFAULT_SEED, "n": self.n, "answers": answers}


# ---------------------------------------------------------------------------
# witness-n4: the geometric oracle


class WitnessWorkload(Workload):
    """Orbit identification and move degenerations on full flags.

    The batch identifies the standard configuration of every orbit and a
    copy of it after a seeded basis change, and verifies the degeneration
    of one cover, drawn by the seed, out of every ``stride`` consecutive
    covers.
    """

    name = "witness-n4"

    def __init__(self, goldens: dict | None, n: int = 4, stride: int = 4):
        self.goldens = _pinned_at(goldens, n)
        self.n = n
        self.stride = stride

    def _poset(self, lf):
        full = (1,) * self.n
        poset = lf.build_poset(full, full, check_reduction=False)
        shape = {"elements": len(poset.elements), "covers": len(poset.covers),
                 "covers_digest": digest([list(cv) for cv in poset.covers])}
        for name, value in shape.items():
            if self.goldens is not None and self.goldens[name] != value:
                raise GoldenMismatch(
                    f"n={self.n} poset {name} {value}, pinned {self.goldens[name]}")
        return poset, shape

    def setup(self, lf, seed: int, tracer=None) -> list[Op]:
        poset, _ = self._poset(lf)
        rng = random.Random(seed)
        moves = None if self.goldens is None else self.goldens["moves"]
        ops = []
        for k, el in enumerate(poset.elements):
            ops.append(self._identify(lf, k, el))
            config = lf.standard_configuration(el.matrix, el.delta)
            g = lf.random_int_invertible(el.n, rng)
            ops.append(self._basis(lf, k, el, config, g))
        covers = poset.covers
        for lo in range(0, len(covers), self.stride):
            a, t = covers[rng.randrange(lo, min(lo + self.stride, len(covers)))]
            ops.append(self._degenerate(lf, poset.elements[a], poset.elements[t],
                                        f"{a} {t}", _pinned(moves, f"{a} {t}")))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _identified(key: str, el, got) -> tuple[str, str | None]:
        if got != el:
            return "wrong", f"{key}: identified as another orbit"
        return "ok", None

    def _identify(self, lf, k, el) -> Op:
        key = f"identify {k}"
        return Op(
            key,
            lambda: lf.identify_orbit(lf.standard_configuration(el.matrix, el.delta)),
            lambda got: self._identified(key, el, got),
        )

    def _basis(self, lf, k, el, config, g) -> Op:
        key = f"basis {k}"
        return Op(
            key,
            lambda: lf.identify_orbit(lf.apply_basis_change(config, g)),
            lambda got: self._identified(key, el, got),
        )

    @staticmethod
    def realizing_move(lf, source, target):
        return next(
            (mv for mv in lf.applicable_moves(source) if lf.apply_move(source, mv) == target),
            None,
        )

    def _degenerate(self, lf, source, target, cover: str, expected) -> Op:
        key = f"degenerate {cover}"

        def run():
            move = self.realizing_move(lf, source, target)
            return move, (None if move is None else lf.verify_move_degeneration(source, move))

        def check(result):
            move, report = result
            if move is None:
                return "none", f"{key}: no move realizes the cover"
            got = str(move)
            if not report.passed:
                return got, f"{key}: degeneration failed: {'; '.join(report.failures)}"
            return got, _golden_problem(key, expected, got)

        return Op(key, run, check)

    def pin(self, lf) -> dict:
        poset, shape = self._poset(lf)
        moves = {}
        for a, t in poset.covers:
            move = self.realizing_move(lf, poset.elements[a], poset.elements[t])
            moves[f"{a} {t}"] = str(move)
        return {"n": self.n, **shape, "moves": moves}


# ---------------------------------------------------------------------------
# cli-small: the command line, one process at a time


class CliWorkload(Workload):
    """Sequential ``python -m lineflags`` processes.

    The batch holds the fixed invocations below and, for ``pairs`` seeded
    pairs of orbits on each margin pair of ``PAIR_MARGINS``, one
    ``compare`` and one ``chain``.  Stdout bytes and exit codes are checked.
    """

    name = "cli-small"
    FIXED = (
        ("enum", "--b", "1,1,1", "--c", "1,1,1"),
        ("enum", "--format", "json", "--b", "2,2,1", "--c", "1,2,2"),
        ("hasse", "--format", "json", "--b", "1,1,1", "--c", "1,1,1"),
        ("hasse", "--format", "json", "--b", "2,2,1", "--c", "1,2,2"),
        ("hasse", "--b", "2,1", "--c", "1,2"),
        ("verify", "--b", "1,1,1", "--c", "1,1,1"),
        ("verify", "--b", "2,2,1", "--c", "1,2,2"),
        ("verify", "--witness", "--b", "1,1,1", "--c", "1,1,1"),
        ("verify", "--witness", "--b", "2,1", "--c", "1,2"),
    )
    PAIR_MARGINS = (((1, 1, 1), (1, 1, 1)), ((2, 2, 1), (1, 2, 2)))
    rss_of_children = True
    imports = ("lineflags.cli",)
    min_batches = 8  # 25 invocations: at least 200 latency samples
    probe = PROCESS_PROBE

    def __init__(self, goldens: dict | None, pairs: int = 4, fixed=FIXED):
        self.goldens = goldens
        self.pairs = pairs
        self.fixed = fixed
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def invocations(self, lf, seed: int) -> list[tuple[tuple[str, ...], Any]]:
        """Each argv with the two orbits it compares, or None."""
        rng = random.Random(seed)
        out = [(argv, None) for argv in self.fixed]
        for b, c in self.PAIR_MARGINS:
            orbits = lf.enumerate_orbits(b, c)
            for _ in range(self.pairs):
                x, y = rng.sample(orbits, 2)
                lhs, rhs = (json.dumps(lf.element_to_obj(el)) for el in (x, y))
                out.append((("compare", lhs, rhs), (x, y)))
                out.append((("chain", lhs, rhs), (x, y)))
        rng.shuffle(out)
        return out

    def setup(self, lf, seed: int, tracer=None) -> list[Op]:
        fixed = seeded = None
        if self.goldens is not None:
            fixed = self.goldens["fixed"]
            seeded = self.goldens["seeded"] if seed == self.goldens["seed"] else None
        return [
            self._op(lf, argv, pair,
                     _pinned(fixed if pair is None else seeded, self.key(argv, pair)), tracer)
            for argv, pair in self.invocations(lf, seed)
        ]

    @staticmethod
    def key(argv, pair) -> str:
        """The invocation's name: its argv, with the inline orbits of a
        seeded one replaced by their digest."""
        return " ".join(argv) if pair is None else f"{argv[0]} #{digest(list(argv))}"

    def run_process(self, argv) -> tuple[int, bytes]:
        return run_process([sys.executable, "-m", "lineflags", *argv], 120,
                           cwd=ROOT, env=self.env, stderr=subprocess.DEVNULL)

    def _op(self, lf, argv, pair, expected, tracer) -> Op:
        key = self.key(argv, pair)

        def check(result):
            code, out = result
            got = f"{code}:{digest(out)}"
            problem = None if pair is None else self._invariant(lf, argv[0], pair, code, out)
            if problem is None and pair is None and code != 0:
                problem = f"exit code {code}"
            if problem is not None:
                return got, f"{key}: {problem}"
            return got, _golden_problem(key, expected, got)

        def probe(result):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lf.cli.main(list(argv))
            if (code, buf.getvalue().encode()) != result:
                return f"{key}: in-process output differs from the process's"
            return None

        return Op(key, lambda: self.run_process(argv), check,
                  probe if tracer is not None else None)

    @staticmethod
    def _invariant(lf, command, pair, code, out) -> str | None:
        x, y = pair
        want = oracle.relation(element_key(x), element_key(y))
        lines = out.decode().splitlines()
        if command == "compare":
            if code != 0 or not lines or lines[0] != want:
                return f"compare printed {lines[:1]} (exit {code}), the order says {want}"
            return None
        if want != "<":
            if (code, lines) != (3, ["not comparable"]):
                return f"chain exit {code} on a pair the order calls {want}"
            return None
        if code != 0:
            return f"chain exit {code} on a comparable pair"
        z = x
        for line in lines:
            kind, *cells = line.split()
            anchors = tuple(tuple(int(v) for v in cell.strip("()").split(",")) for cell in cells)
            nxt = lf.apply_move(z, lf.Move(kind, anchors))
            if not oracle.leq(element_key(z), element_key(nxt)) or nxt == z:
                return "chain step does not go strictly up"
            z = nxt
        return None if z == y else "chain does not end at the upper orbit"

    def pin(self, lf) -> dict:
        fixed, seeded = {}, {}
        for argv, pair in self.invocations(lf, DEFAULT_SEED):
            op = self._op(lf, argv, pair, None, None)
            got, problem = op.check(op.run())
            if problem is not None:
                raise GoldenMismatch(problem)
            (fixed if pair is None else seeded)[op.key] = got
        return {"seed": DEFAULT_SEED, "fixed": fixed, "seeded": seeded}


WORKLOADS = {
    w.name: w for w in (PosetWorkload, ChainWorkload, WitnessWorkload, CliWorkload)
}
