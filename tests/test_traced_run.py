"""The benchmark's traced run still finds what it traces.

`perfbench/spans.py` wraps each function it names in every `affplane`
namespace that binds it, so a traced function that is renamed or moved
shows only there.  One `twist` job and one `search` job run under a
tracer here: each twist job derives its spec exactly once, outside the
builds, and uninstalling binds every traced name to its function again.
The `isotopy/field/near-field` job runs under a tracer too: its search
asks the classifier once per ring.
"""

import importlib
import random
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = "andre.spec_from_exponents"
BUILDS = {"andre.build_left", "andre.build_right"}


def _bindings():
    """(namespace, attribute) -> value for every binding of a traced
    function in the `affplane` namespaces."""
    namespaces = [importlib.import_module("affplane")]
    namespaces += [importlib.import_module(f"affplane.{m}") for m in spans.TRACED]
    originals = [getattr(importlib.import_module(f"affplane.{module}"), name)
                 for module, names in spans.TRACED.items() for name in names]
    return {(ns.__name__, attr): value for ns in namespaces
            for attr, value in vars(ns).items()
            if any(value is fn for fn in originals)}


def _ancestors(tracer, span):
    parent = span[3]
    while parent is not None:
        yield tracer.spans[parent][0]
        parent = tracer.spans[parent][3]


def test_one_spec_per_twist_job_and_none_inside_the_builds(tmp_path):
    rng = random.Random(1)
    twist = workloads.twist(rng, tmp_path).jobs[0]
    search = workloads.search(rng, tmp_path).jobs[0]
    before = _bindings()
    assert len(before) >= sum(map(len, spans.TRACED.values()))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for job in (twist, search):
            tracer.job = job.key
            job.run()
    finally:
        tracer.uninstall()
    by_job = {job.key: [s for s in tracer.spans if s[4] == job.key] for job in (twist, search)}
    twist_spans, search_spans = by_job[twist.key], by_job[search.key]
    assert [s[0] for s in twist_spans].count(SPEC) == 1
    assert len(BUILDS & {s[0] for s in twist_spans}) == 1
    assert not [s for s in tracer.spans if s[0] == SPEC and BUILDS & set(_ancestors(tracer, s))]
    assert search_spans and SPEC not in {s[0] for s in search_spans}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_isotopy_asks_the_classifier_once_per_ring(tmp_path):
    job = next(job for job in workloads.search(random.Random(1), tmp_path).jobs
               if job.key == "isotopy/field/near-field")
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.job = job.key
        assert job.run() is None
    finally:
        tracer.uninstall()
    classified = [s for s in tracer.spans if s[0] == "collineation.classify_ternary"]
    assert len(classified) == 2
    assert all("ternary.find_isotopism" in _ancestors(tracer, s) for s in classified)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
