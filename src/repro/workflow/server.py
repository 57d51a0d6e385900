"""A second name for the workflow engine, kept for the benchmark only.

The engine is :class:`repro.workflow.recovery.ResilientServer`.
"""

from __future__ import annotations

from repro.workflow.recovery import ResilientServer


class WorkflowServer(ResilientServer):
    """Empty alias of :class:`ResilientServer`; nothing calls it.

    It exists only because ``perfbench/spans.py`` wraps
    ``WorkflowServer.run`` by name. Delete it together with that entry
    point in the next change to the benchmark. As an empty subclass it
    inherits ``run``, so a ``ResilientServer`` run still records exactly
    one engine span.
    """
