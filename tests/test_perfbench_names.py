"""The program names the repo benchmark wraps still exist.

``perfbench/spans.py`` wraps layer entry points by module and
attribute name. Deleting or renaming one of them (say
``WorkflowServer.run`` or ``kernel_dsl.kernel_names``) without a
matching benchmark change breaks every traced benchmark run; this test
fails first.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_entry_point_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from repro.workflow.recovery import ResilientServer
    from repro.workflow.server import WorkflowServer

    original_run = ResilientServer.run
    log = spans.SpanLog()
    patches = spans.install(log)
    try:
        assert set(log.names) == {
            f"{layer}|{attribute.lstrip('!')}"
            for layer, _module, attribute in spans.ENTRY_POINTS
        }
        assert "run" in vars(WorkflowServer)
    finally:
        patches.remove()
    assert ResilientServer.run is original_run
    assert "run" not in vars(WorkflowServer)
