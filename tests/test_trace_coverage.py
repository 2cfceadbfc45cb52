"""The benchmark's tracer still sees every layer of the pipeline.

``perfbench/spans.py`` wraps polydiv functions by name and reads some of
their arguments.  When a wrapped function is renamed or stops being called,
its span never fires, ``perfbench/run.py`` prints a ``missing`` line and
leaves the metric out of its result; a NaN or infinite metric makes the
result line unreadable as strict JSON.  Small versions of the ``sweep`` and
``element`` passes run here under the tracer, so either fault fails a test.
``perfbench/`` is imported, never changed.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

from polydiv import harness  # noqa: E402


def _sweep(out):
    study = harness.StudyConfig(shapes=["fig165"], orders=[1], configs=["Ib", "IIb"], h_divisor=16)
    harness.cmd_condstudy(study, out)


def _element(out):
    harness.cmd_element("fig151", "reduced", "IIb", 0, out, h=0.06)


@pytest.mark.parametrize("workload, run_pass", [("sweep", _sweep), ("element", _element)], ids=["sweep", "element"])
def test_traced_pass_fires_every_expected_span(tmp_path, workload, run_pass):
    tracer = spans.Tracer()
    with tracer.patched():
        with tracer.traced_pass(0):
            # looked up through the module after patching, as run.py does
            run_pass(tmp_path)
    assert tracer.unpatched == []
    metrics, fired, unattributed = tracer.pass_metrics()
    assert tracer.missing(workload, fired) == []
    values = dict(metrics, unattributed=unattributed)
    assert [name for name, value in values.items() if not math.isfinite(value)] == []
    json.dumps(values, allow_nan=False)
