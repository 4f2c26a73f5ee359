"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at a flow boundary.  Subtypes mark the layer
at fault, which matters when a multi-stage flow (place -> route -> STA)
fails mid-way and the caller wants to know whether the input design or
an internal stage was the problem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Malformed or inconsistent netlist (dangling pin, duplicate name...)."""


class TechError(ReproError):
    """Unknown technology node, cell type, or metal layer."""


class PartitionError(ReproError):
    """Tier assignment failed or is inconsistent with the netlist."""


class PlacementError(ReproError):
    """Placement failed (overflowing floorplan, unplaced instances...)."""


class RoutingError(ReproError):
    """Routing failed (net with no pins, capacity exhausted beyond retry)."""


class TimingError(ReproError):
    """STA failure (combinational loop, missing clock, unknown pin)."""


class DFTError(ReproError):
    """Scan insertion or fault-model construction failed."""


class PDNError(ReproError):
    """Power-grid construction or IR solve failed (singular grid...)."""


class TrainingError(ReproError):
    """Neural-network training could not proceed (empty dataset, NaN loss)."""


class FlowError(ReproError):
    """Top-level design-flow orchestration error."""


class ServiceError(FlowError):
    """Bad flow request or flow-service failure (socket in use...)."""
