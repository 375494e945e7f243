"""perfbench's layer probes still install on the program they measure.

``perfbench/probes.py`` wraps public methods by name and refuses anything
that is not a plain function, so renaming a probed method or turning it into
a staticmethod would otherwise show up only in the benchmark's own run.  The
module is loaded by path; nothing under ``perfbench/`` is imported as a
package or changed.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

PROBES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes_module():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_wrapped_and_restored(probes_module):
    targets = probes_module.TARGETS
    originals = {(owner, attribute): owner.__dict__[attribute] for owner, attribute, *_ in targets}
    for (owner, attribute), original in originals.items():
        assert inspect.isfunction(original), f"{owner.__name__}.{attribute}"

    probes = probes_module.Probes()
    try:
        probes.install()
        for (owner, attribute), original in originals.items():
            wrapper = owner.__dict__[attribute]
            assert wrapper is not original, f"{owner.__name__}.{attribute} is not wrapped"
            assert wrapper.__wrapped__ is original
    finally:
        probes.uninstall()
    for (owner, attribute), original in originals.items():
        assert owner.__dict__[attribute] is original, f"{owner.__name__}.{attribute}"


def test_a_probe_counts_calls(probes_module):
    from repro.text.bm25 import BM25Index
    from repro.utils.rng import RandomState

    probes = probes_module.Probes()
    try:
        probes.install()
        index = BM25Index()
        index.add_document(1, ["a", "b"])
        index.search(["a"])
        index.score(["a"], 1)
        RandomState(1).child("x")
    finally:
        probes.uninstall()
    assert probes.calls["text.bm25_search"] == 1
    assert probes.calls["text.bm25_score"] == 1  # search scores as arrays, not through score
    assert probes.calls["rng.child"] == 1
    assert len(probes.seconds["text.bm25_search"]) == 1
