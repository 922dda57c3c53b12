"""The benchmark's probe targets resolve against the current sources.

``perfbench/layers.py`` wraps gplab functions and bindings by name, so a
renamed target would otherwise show only when the benchmark's own tests run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_probe_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    with layers.make_tracer():
        assert tracer.leftover_wrappers()  # every target was found and wrapped
    assert tracer.leftover_wrappers() == []
