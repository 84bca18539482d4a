"""Exact combinatorics of discrete-series L-packets for U(r, s).

Everything is computed in exact rational arithmetic: packet enumeration
by block shuffles of a regular infinitesimal character, lowest K-type
recovery, classical U(m) -> U(m-1) branching, and the descent calculus
for restriction to U(r-1, s) with its isomorphism/zero dichotomy.
"""

from . import branching, cartan, descent, minimal_ktype, packets
from .branching import *
from .cartan import *
from .descent import *
from .minimal_ktype import *
from .packets import *

__all__ = [*cartan.__all__, *packets.__all__, *minimal_ktype.__all__, *branching.__all__,
           *descent.__all__]
__version__ = "0.15.0"
