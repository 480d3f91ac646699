"""Fixture: an engine module importing upward into the core layer."""

from repro.core.search import GSimIndex  # noqa: F401  line 3: layering
