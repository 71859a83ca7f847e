"""The benchmark tracer's hooks must find every name they patch.

``perfbench/spans.py`` replaces module and class attributes by name, and
``Tracer.installed`` reads each original from ``owner.__dict__``. A
refactor that moves one of those names makes every traced benchmark run
fail there, and the benchmark's own smoke test is not part of this suite.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import skf.experiments
import skf.filter

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_names(spans):
    """Every (owner, attribute) that ``Tracer.installed`` replaces."""
    names = [(owner, attr) for owner, attr, _ in spans._PLAIN_WRAPS]
    return names + [
        (skf.experiments, "run_trial"),
        (skf.filter, "minimize_scalar"),
        (np.linalg, "eigvalsh"),
    ]


def test_every_patched_name_is_its_owners_own(spans):
    names = patched_names(spans)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in names if attr not in vars(owner)]
    assert not missing


def test_tracer_installs_and_restores_every_hook(spans):
    names = patched_names(spans)
    originals = [vars(owner)[attr] for owner, attr in names]
    with spans.Tracer().installed():
        assert all(vars(owner)[attr] is not orig for (owner, attr), orig in zip(names, originals))
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(names, originals))
