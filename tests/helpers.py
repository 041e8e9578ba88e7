"""Shared constructions for the test suite."""

from difading import FadingSpec


def point_mass(g):
    """Fading spec concentrated on a single gain."""
    return FadingSpec.uniform(g, g)
