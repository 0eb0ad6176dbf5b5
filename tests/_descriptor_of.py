"""`descriptor_of`, the descriptor element of one track. The package
computes descriptor elements in bulk, as (endpoint id, interior mask)
pairs; the tests name the element of a single track through this helper."""

from typing import Iterable

from intervalmc.model import DescriptorElement


def descriptor_of(rho: Iterable[str]) -> DescriptorElement:
    """First state, the set of states strictly inside, last state."""
    rho = tuple(rho)
    return DescriptorElement(rho[0], frozenset(rho[1:-1]), rho[-1])
