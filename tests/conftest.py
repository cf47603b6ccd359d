"""Shared fixtures.  Expensive diagonalizations are memoized per session."""

from __future__ import annotations

import pytest

from usc_relax.eigen import certified_eigensystem
from usc_relax.operators import ModelParams, build_polaron_rabi, rabi_bands

_BUILDERS = {"polaron": build_polaron_rabi, "lab": rabi_bands}


@pytest.fixture(scope="session")
def eig_cache():
    """Memoized certified_eigensystem keyed on (params, levels, frame)."""
    cache: dict[tuple, object] = {}

    def get(params: ModelParams, levels: int = 24, frame: str = "polaron"):
        key = (params, levels, frame)
        if key not in cache:
            cache[key] = certified_eigensystem(params, levels=levels, builder=_BUILDERS[frame])
        return cache[key]

    return get
