"""mepsim: deterministic simulation and formal trace analysis of
self-stabilizing mutual-exclusive trigger propagation on sparse networks."""

__version__ = "0.1.0"

from .analysis import (AssociationClasses, OmepReport, PatternReport,
                       Propagation, Segment, StabilizationReport,
                       association_classes, check_pattern_properties,
                       classify_patterns, detect_stabilization,
                       extract_propagation, propagation_error,
                       series_metrics, validate_omep, validate_paths)
from .engine import InitState, simulate
from .errors import (ConfigError, ConnectivityError, InsufficientHorizonError,
                     MepsimError, ParameterError, ScheduleUnderrunError,
                     TopologyError, TraceParseError)
from .timing import DelayModel, DriftAssignment, SimParams, derive_params
from .topology import (Graph, TopologyStats, build_grid, build_hypercube,
                       build_ring, from_edge_list, parse_topology,
                       topology_stats)
from .trace import ArrivalRecord, Trace, read_trace, write_trace
