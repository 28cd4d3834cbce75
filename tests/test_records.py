"""The record types: read-only named tuples, and a package that loads
without ``dataclasses``, and without ``fractions`` or ``json`` until used."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lineflags
from lineflags import (
    Configuration,
    DecoratedMatrix,
    TransportMatrix,
    ValidationError,
    applicable_moves,
    build_poset,
    geometric_rank_tables,
    rank_table,
    rbar_table,
    simple_moves,
    standard_configuration,
    verify_equivalence,
    verify_move_degeneration,
    verify_two_flag_theorem,
)


def records() -> dict:
    """One freshly built record of each named-tuple type."""
    dm = DecoratedMatrix.make(TransportMatrix.from_rows([[1, 0], [0, 1]]), [(2, 2)])
    move = applicable_moves(dm)[0]
    found = [
        dm.matrix,
        dm,
        rank_table(dm.matrix),
        rbar_table(dm),
        simple_moves(dm.matrix)[0],
        verify_two_flag_theorem((1, 1), (1, 1)),
        move,
        verify_equivalence((1, 1), (1, 1)),
        standard_configuration(dm.matrix, dm.delta),
        verify_move_degeneration(dm, move),
    ]
    return {type(rec).__name__: rec for rec in found}


NAMES = sorted(records())


def test_every_record_type_is_covered():
    assert NAMES == sorted(
        "TransportMatrix DecoratedMatrix RankTable RBarTable Rectangle TwoFlagReport"
        " Move EquivalenceReport Configuration MoveDegenerationReport".split()
    )


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh ``python -I -S`` that imports this package."""
    src = str(Path(lineflags.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True,
        text=True,
        check=True,
    )


def test_the_cli_imports_without_dataclasses():
    """The records cost no ``dataclasses`` (and so no ``inspect``, ``ast``
    or ``dis``) at start-up, and the CLI loads ``fractions`` (with
    ``decimal`` and ``numbers``) and ``json`` only where it uses them."""
    lazy = {"dataclasses", "inspect", "fractions", "decimal", "numbers", "json"}
    out = fresh(f"import lineflags.cli; print(sorted({lazy!r} & set(sys.modules)))")
    assert out.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv, module, loaded",
    [
        (["verify", "--witness", "--b", "1,1,1", "--c", "1,1,1"], "fractions", False),
        (["enum", "--b", "1,1,1", "--c", "1,1,1"], "json", False),
        (["enum", "--b", "1,1,1", "--c", "1,1,1", "--format", "json"], "json", True),
    ],
)
def test_a_command_loads_a_deferred_module_only_if_it_uses_it(argv, module, loaded):
    out = fresh(
        "from lineflags.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, {module!r} in sys.modules, file=sys.stderr)"
    )
    assert out.stderr == f"0 {loaded}\n"


def test_fraction_entries_are_read_when_fractions_is_imported_later():
    """Loaded after the package, ``Fraction`` entries are still accepted,
    and ``bool``, ``float`` and ``Decimal`` ones rejected with their
    codes, by every entry point that reads rational entries."""
    out = fresh(
        """
import lineflags
print("fractions" in sys.modules)
from decimal import Decimal
from fractions import Fraction
from lineflags import (
    Configuration, IntEchelon, ValidationError, apply_basis_change, applicable_moves,
    degeneration_family, from_permutation,
)
dm = from_permutation((1, 2), (1,))
move = applicable_moves(dm)[0]
one = Configuration(1, ((1,),), (((1,),),), (((1,),),))
calls = {
    "Configuration": lambda x: Configuration(1, ((x,),), (((1,),),), (((1,),),)),
    "IntEchelon.add": lambda x: IntEchelon().add((x, 1)),
    "apply_basis_change": lambda x: apply_basis_change(one, ((x,),)),
    "degeneration_family": lambda x: degeneration_family(dm, move, x),
}
for name, call in calls.items():
    for x in (Fraction(1, 2), True, 0.5, Decimal("0.5")):
        try:
            call(x)
            print(name, "ok")
        except ValidationError as exc:
            print(name, exc.code)
"""
    )
    codes = {
        "Configuration": "NotARational(config)",
        "IntEchelon.add": "NotARational(vec)",
        "apply_basis_change": "NotARational(g)",
        "degeneration_family": "NotARational(tau)",
    }
    want = ["False"] + [
        f"{name} {got}" for name, code in codes.items() for got in ("ok", code, code, code)
    ]
    assert out.stdout.splitlines() == want


@pytest.mark.parametrize("name", NAMES)
class TestNamedTupleRecords:
    def test_fields_are_read_only(self, name):
        rec = records()[name]
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
        with pytest.raises(AttributeError):
            rec.extra = None

    def test_equal_values_hash_alike(self, name):
        x, y = records()[name], records()[name]
        assert x is not y
        assert x == y and hash(x) == hash(y)

    def test_keyword_construction_and_tuple_equality(self, name):
        rec = records()[name]
        assert type(rec)(**rec._asdict()) == rec == tuple(rec)


def test_reprs_are_those_of_the_field_values():
    rec = records()
    assert repr(rec["DecoratedMatrix"]) == (
        "DecoratedMatrix(matrix=TransportMatrix(m=((1, 0), (0, 1)), b=(1, 1), c=(1, 1)),"
        " delta=((2, 2),))"
    )
    assert repr(rec["Move"]) == "Move(kind='V', anchors=((1, 1), (2, 2)))"
    assert repr(rec["EquivalenceReport"]) == (
        "EquivalenceReport(b=(1, 1), c=(1, 1), element_count=5, cover_count=6,"
        " order_equivalent=True, moves_are_covers=True, covers_are_moves=True,"
        " chains_ok=True, counterexamples=())"
    )


def test_tables_are_indexed_by_cell():
    """``t[i, j]``, ``q`` and ``r`` read the bordered table by row and
    column, on every function that builds a ``RankTable`` or an
    ``RBarTable``."""
    tm = TransportMatrix.from_rows([[1, 0, 1], [0, 2, 0]])
    dm = DecoratedMatrix.make(tm, [(1, 3), (2, 2)])
    rank, rbar = rank_table(tm), rbar_table(dm)
    geometric = geometric_rank_tables(standard_configuration(tm, dm.delta))
    assert geometric == (rank, rbar)
    for table in (rank, rbar, *geometric):
        assert (table.q, table.r) == (2, 3)
        cells = [[table[i, j] for j in range(4)] for i in range(3)]
        assert cells == [list(row) for row in table.values]
    assert (rank[1, 3], rank[2, 2], rank[2, 3]) == (2, 3, 4)
    assert (rbar[0, 3], rbar[1, 2], rbar[2, 0]) == (1, 2, 1)


class TestConfigurationConstruction:
    def test_make_and_replace_build_checked_configurations(self):
        config = records()["Configuration"]
        assert type(config._make(config)) is Configuration
        assert config._make(config) == config
        moved = config._replace(a=((0, 2),))
        assert type(moved) is Configuration and moved.a == ((0, 2),)

    @pytest.mark.parametrize(
        "change, code",
        [
            ({"n": -1}, "BadShape"),
            ({"a": ((1, 0, 0),)}, "BadShape"),
            ({"b_levels": [((1, 0),)]}, "BadShape"),
            ({"c_levels": (((0.5, 1),),)}, r"NotARational\(config\)"),
        ],
    )
    def test_make_and_replace_check_like_the_constructor(self, change, code):
        config = records()["Configuration"]
        values = {**config._asdict(), **change}
        for build in (
            lambda: Configuration(**values),
            lambda: Configuration._make(values.values()),
            lambda: config._replace(**change),
        ):
            with pytest.raises(ValidationError, match=code):
                build()


class TestPoset:
    def test_equal_posets_are_distinct(self):
        x, y = build_poset((2, 1), (1, 2)), build_poset((2, 1), (1, 2))
        assert (x.elements, x.covers, x.cover_kinds, x.cover_moves) == (
            y.elements, y.covers, y.cover_kinds, y.cover_moves
        )
        assert x != y and x == x
        copied = pickle.loads(pickle.dumps(x))
        assert copied != x and copied.covers == x.covers and copied.index_of(x.elements[-1]) == 5

    def test_fields_are_read_only(self):
        poset = build_poset((1, 1), (1, 1))
        for field in ("elements", "covers", "cover_kinds", "cover_moves", "_index", "extra"):
            with pytest.raises(AttributeError):
                setattr(poset, field, None)

    def test_the_index_is_built_once_on_first_use(self):
        poset = build_poset((1, 1, 1), (1, 1, 1))
        assert poset._index is None
        index = [poset.index_of(el) for el in poset.elements]
        assert index == list(range(len(poset.elements)))
        built = poset._index
        assert len(built) == len(poset.elements)
        assert [poset.index_of(el) for el in reversed(poset.elements)] == index[::-1]
        assert poset._index is built
