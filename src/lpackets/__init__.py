"""Exact combinatorics of discrete-series L-packets for U(r, s).

Everything is computed in exact rational arithmetic: packet enumeration
by block shuffles of a regular infinitesimal character, lowest K-type
recovery, classical U(m) -> U(m-1) branching, and the descent calculus
for restriction to U(r-1, s) with its isomorphism/zero dichotomy.
"""

from .branching import *
from .cartan import *
from .descent import *
from .minimal_ktype import *
from .packets import *

__version__ = "0.7.0"
