"""Transactive home energy scheduling with replicated coordination.

Homes schedule HVAC, shiftable and curtailable loads, rooftop supply
and an EV battery against grid tariffs, feed-in, demand-response and
peer-to-peer trading rewards.  The joint convex program can be solved
directly or by per-home decomposition, and the coordination state of
the decomposed solve can live either in process or inside a contract
replicated by a small fault-tolerant validator network.

Importing the package loads every submodule; the rest of the API lives
in them (``gridledger.tem``, ``gridledger.qp``, ...).
"""

from . import chain_transport, energy_model, netsim, qp, tem  # noqa: F401
from .scenario import load_scenario, write_scenario

__version__ = "0.1.0"

__all__ = ["load_scenario", "write_scenario", "__version__"]
