"""Every name the benchmark's ``--trace`` wraps still exists.

``perfbench/child.py`` lists its lookup sites in ``TARGETS``; a traced run
exits with ``EXIT_MISSING`` when one no longer resolves. This test resolves
each site the way ``Tracer.install`` does, without installing any wrapper,
so a refactor that drops or renames a traced name fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [site for _, sites, _ in _load_child().TARGETS for site in sites]


def test_targets_are_listed():
    assert len(SITES) > 40
    assert "sup_rankers:RankerBackbone.phi_features" in SITES


@pytest.mark.parametrize("site", SITES)
def test_traced_site_resolves(site):
    module_name, _, path = site.partition(":")
    module = importlib.import_module(f"weakrank.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = owner.__dict__.get(attr) if owner_name else getattr(module, attr, None)
    assert callable(raw) or isinstance(raw, classmethod), f"weakrank.{module_name}.{path}"
