"""`check_exists`, the existential search on one descriptor element. The
package checks whole structures only (`model_check_univ`); the tests ask
the search about single elements through this helper."""

from intervalmc.descriptor_checker import _ExistsEngine
from intervalmc.errors import NotInFragment, NotWitnessed
from intervalmc.logic import classify
from intervalmc.model import DescriptorElement, KripkeStructure, _ids_of


def check_exists(K: KripkeStructure, psi, d: DescriptorElement):
    """True (plus a witness track associated with d) iff some track the
    element abstracts satisfies the existential-fragment formula.
    ValidationError("UnknownState") when d names an undeclared state, and
    NotWitnessed when no track realizes d.
    """
    if not classify(psi).exists_aabe:
        raise NotInFragment("check_exists expects an ExistsAABE formula")
    engine = _ExistsEngine(K, psi)
    first, mask, last = _ids_of(K, d)
    if (mask, last) not in engine.witnessed(first):
        raise NotWitnessed(f"descriptor element {d!r} is not witnessed")
    wit = engine.check(engine.root, (first, mask, last))
    return bool(wit), wit or None
