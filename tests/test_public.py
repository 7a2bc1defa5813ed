"""The package's public surface is ``bvode.__all__``, and the names that only
tests called are gone from it."""

import pytest

import bvode
from bvode import BVFunction, SigmaG


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bvode import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(bvode.__all__)
    assert len(set(bvode.__all__)) == len(bvode.__all__)
    for name in bvode.__all__:
        assert namespace[name] is getattr(bvode, name)


@pytest.mark.parametrize("owner,names", [
    (bvode, ("F_n_inv", "solve_offset", "stieltjes_integrate")),
    (bvode.mollify, ("F_n_inv",)),
    (bvode.scheme, ("solve_offset",)),
    (bvode.limit, ("stieltjes_integrate",)),
    (BVFunction, ("continuous_part", "variation_steps")),
    (SigmaG, ("jump_at",)),
], ids=["bvode", "mollify", "scheme", "limit", "BVFunction", "SigmaG"])
def test_removed_names_are_gone(owner, names):
    for name in names:
        assert not hasattr(owner, name), name
