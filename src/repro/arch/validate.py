"""Architectural style-rule checking (paper, sections 2 and 5).

"We define a target architectural style such that retargetable code
generation becomes possible.  This means that we define a set of rules
for the datapath, the controller and the instruction set."

The datapath rules are the ones the RT model relies on (figure 2):
every RT starts with operands from register files, runs one operation
on one OPU and ends in a destination register reached through a buffer,
a bus and an optional multiplexer.  A datapath violating them cannot
express its transfers as RTs, so we reject it before RT generation
instead of failing obscurely later.

The rules themselves live in :func:`repro.analyze.verify_datapath`
and report through the shared :class:`repro.analyze.Finding` schema
(severity, ``arch.*`` code, location) — the same schema ``repro
check`` uses.  :func:`datapath_findings` is the entry point;
:class:`~repro.arch.library.CoreSpec` raises an
:class:`~repro.errors.ArchitectureError` on its error findings.
"""

from __future__ import annotations

from .datapath import Datapath


def datapath_findings(dp: Datapath) -> list:
    """Check the style rules, returning structured findings.

    Returns
    -------
    list of :class:`repro.analyze.Finding`
        Error findings mark datapaths that cannot express RTs; warning
        findings mark dead structure (e.g. a register file nothing
        writes).
    """
    # Imported lazily: repro.analyze's verifiers import the arch
    # package, which imports this module while initializing.
    from ..analyze.verifiers import verify_datapath

    return verify_datapath(dp)
