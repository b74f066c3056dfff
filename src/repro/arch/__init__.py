"""Target architecture model for in-house DSP cores (paper, section 5).

The class of architectures for which code generation is possible:
a datapath of operation units with distributed register files, buses
and multiplexers (figure 3), plus a small pipelined controller with a
loop stack (figure 4).  A :class:`CoreSpec` bundles a datapath, a
controller and the instruction-set data that :mod:`repro.core`
interprets.
"""

from .controller import ControllerSpec, CtrlOp
from .datapath import Datapath, Route
from .explore import (
    ARCHITECTURE_FAILURE,
    MERGE_VARIANTS,
    PARETO_AXES,
    STORAGE_AXES,
    Allocation,
    CandidateSimulation,
    ExplorationPoint,
    ExploreCache,
    RefinedSweep,
    SweepSpec,
    explore,
    explore_refined,
    intermediate_architecture,
    merge_spec_for,
    pareto_axes,
    pareto_front,
    required_operations,
    simulate_points,
)
from .interconnect import Bus, BusSink, Mux
from .library import (
    AUDIO_CLASS_TABLE_9,
    AUDIO_CLASS_TABLE_13,
    AUDIO_INSTRUCTION_TYPES,
    FIR_CLASS_TABLE,
    FIR_INSTRUCTION_TYPES,
    TINY_CLASS_TABLE,
    TINY_INSTRUCTION_TYPES,
    ClassDef,
    CoreSpec,
    audio_core,
    audio_datapath,
    fir_core,
    fir_datapath,
    tiny_core,
    tiny_datapath,
)
from .merge import BusMerge, MergeSpec, RegisterFileMerge
from .opu import InputPort, Operation, Opu, OpuKind
from .registry import (
    get_core,
    list_cores,
    register_core,
    resolve_core,
    unregister_core,
)
from .serialize import (
    core_from_dict,
    core_to_dict,
    datapath_from_dict,
    datapath_to_dict,
    dump_core,
    load_core,
)
from .storage import RegisterFile
from .validate import datapath_findings

__all__ = [
    "ARCHITECTURE_FAILURE",
    "AUDIO_CLASS_TABLE_13",
    "AUDIO_CLASS_TABLE_9",
    "AUDIO_INSTRUCTION_TYPES",
    "Allocation",
    "Bus",
    "CandidateSimulation",
    "ExplorationPoint",
    "ExploreCache",
    "MERGE_VARIANTS",
    "PARETO_AXES",
    "RefinedSweep",
    "STORAGE_AXES",
    "SweepSpec",
    "explore",
    "explore_refined",
    "intermediate_architecture",
    "merge_spec_for",
    "pareto_axes",
    "pareto_front",
    "required_operations",
    "simulate_points",
    "BusMerge",
    "BusSink",
    "ClassDef",
    "ControllerSpec",
    "CoreSpec",
    "CtrlOp",
    "Datapath",
    "FIR_CLASS_TABLE",
    "FIR_INSTRUCTION_TYPES",
    "InputPort",
    "MergeSpec",
    "Mux",
    "Operation",
    "Opu",
    "OpuKind",
    "RegisterFile",
    "RegisterFileMerge",
    "Route",
    "TINY_CLASS_TABLE",
    "TINY_INSTRUCTION_TYPES",
    "audio_core",
    "audio_datapath",
    "core_from_dict",
    "core_to_dict",
    "datapath_from_dict",
    "datapath_to_dict",
    "dump_core",
    "fir_core",
    "fir_datapath",
    "get_core",
    "list_cores",
    "load_core",
    "register_core",
    "resolve_core",
    "tiny_core",
    "unregister_core",
    "tiny_datapath",
    "datapath_findings",
]
