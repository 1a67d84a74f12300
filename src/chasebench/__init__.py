"""Pointer-chasing games, randomized reductions, and streaming gadgets.

A workbench for the communication problems behind multipass streaming
lower bounds: sequential function chasing and its set-valued variant,
the scramble-and-overlay reduction from equality games to sparse set
intersection, graph gadgets whose distance / reachability / matching
answers encode the game answer, a pass-counting streaming harness, and
a small information-theory toolkit.
"""
from . import gadgets, gameio, games, info, oracles, protocols, reduction, streaming
from .errors import GameFormatError, InfeasibleParametersError, ProtocolError, StreamFormatError
from .gadgets import *
from .gameio import *
from .games import *
from .info import *
from .oracles import *
from .protocols import *
from .reduction import *
from .streaming import *
from .util import derive_rng

__version__ = "0.1.0"

__all__ = [
    "GameFormatError",
    "InfeasibleParametersError",
    "ProtocolError",
    "StreamFormatError",
    "derive_rng",
    *gadgets.__all__,
    *gameio.__all__,
    *games.__all__,
    *info.__all__,
    *oracles.__all__,
    *protocols.__all__,
    *reduction.__all__,
    *streaming.__all__,
]
