"""Degeneration order on configurations of a line and two partial flags.

The package models GL(V)-orbits of triples (line, partial flag, partial
flag) as decorated transport matrices, orders them by rank tables,
generates the order by five families of local moves, and validates the
combinatorics against an exact rational linear-algebra oracle.  Its
public names are those its modules export.
"""

from . import decorated, flagcore, moves, twoflags, witness
from .decorated import *
from .flagcore import *
from .moves import *
from .twoflags import *
from .witness import *

__version__ = "0.1.0"

__all__ = flagcore.__all__ + twoflags.__all__ + decorated.__all__ + moves.__all__ + witness.__all__
