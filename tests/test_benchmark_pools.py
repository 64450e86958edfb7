"""The benchmark's request pools stay what they were pinned at.

perfbench/workloads.py builds each workload's pool from the seed and the
flexicolor generators.  A change to a generator, to `serialize` or to a
fixture that alters a pool re-baselines the benchmark; this test makes
that visible.  It builds the seed-1 pools of the three workloads and
compares one sha256 per workload, over every document's bytes and its
solve arguments in pool order, with the pinned value.  An intended
re-baseline updates the pins together with the benchmark's numbers.
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from flexicolor import instances

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

POOL_SHA256 = {
    "maxdeg-docs": "f5691a63181e56e6143367eb06ea6c2bafc39d569eed32f69b488c2a34ef2f5a",
    "ktree-shared": "50d9ca2ec875d158f84184a11c1470f5fb7c77c6a0f2687b53622e6de4f9d785",
    "oracle-audit": "4e058a7a8c0d48916efec675aa850f2219de91b61b01e51c7d0babc95028caf8",
}


def load_workloads():
    """perfbench/workloads.py as a module, without putting perfbench on
    sys.path."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def pool_sha256(workloads, name: str, seed: int, directory: str) -> str:
    h = hashlib.sha256()
    for job in workloads.build(name, seed, directory):
        h.update(Path(job.doc).read_bytes())
        h.update(b"\0" + "\0".join(job.solve_args).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(POOL_SHA256))
def test_seed_one_pool_is_pinned(name, tmp_path):
    workloads = load_workloads()
    assert pool_sha256(workloads, name, 1, str(tmp_path)) == POOL_SHA256[name]


def test_ktree_shared_pool_checks_each_order_once(tmp_path, monkeypatch):
    """The pool serializes 8 or 6 documents on each of its 8 bodies;
    each body's graph keeps the verdict on its order, so the generator's
    check serves every serialization."""
    checks = []
    validate = instances.validate_ktree_order
    monkeypatch.setattr(
        instances,
        "validate_ktree_order",
        lambda g, order: checks.append(g) or validate(g, order),
    )
    jobs = load_workloads().build("ktree-shared", 1, str(tmp_path))
    assert len(jobs) == 56
    assert len(checks) == len(set(map(id, checks))) == 8
