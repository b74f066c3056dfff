"""The paper's contribution: static instruction-set conflict modelling
(section 6) and RT modification (step 2 of figure 1b).

Workflow::

    table = ClassTable.from_core(core)          # section 6.1
    iset = InstructionSet.from_desired(          # section 6.2: the class-
        table.names, core.instruction_types)     # compatibility graph
    model = impose_instruction_set(rts, table, iset)   # section 6.3
    # model.rts now carry artificial clique resources; any scheduler
    # honouring plain resource conflicts also honours the instruction set.
"""

from .artificial import ConflictModel, impose_instruction_set
from .clique_cover import (
    clique_resource_name,
    edge_per_clique_cover,
    exact_cover,
    greedy_cover,
    verify_cover,
)
from .conflict_graph import ConflictGraph
from .instruction_set import NOP, InstructionSet, closure, compatible_pairs
from .merge import apply_merges, merge_rt, merged_register_file_sizes
from .rtclass import ClassTable, RTClass

__all__ = [
    "ClassTable",
    "ConflictGraph",
    "ConflictModel",
    "InstructionSet",
    "NOP",
    "RTClass",
    "apply_merges",
    "clique_resource_name",
    "closure",
    "compatible_pairs",
    "edge_per_clique_cover",
    "exact_cover",
    "greedy_cover",
    "impose_instruction_set",
    "merge_rt",
    "merged_register_file_sizes",
    "verify_cover",
]
