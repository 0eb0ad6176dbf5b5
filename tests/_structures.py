"""Structure operations that only the tests need: label restriction, the
reachable subgraph, and isomorphism of Kripke structures."""

from typing import Iterable

from intervalmc import KripkeStructure
from intervalmc.errors import ValidationError


def restrict_labels(K: KripkeStructure, letters: Iterable[str]) -> KripkeStructure:
    """Same states and edges, with every label intersected with `letters`."""
    keep = frozenset(letters)
    return KripkeStructure(
        ap=K.ap & keep,
        states=K.states,
        edges=K.edges,
        labels={s: K.labels[s] & keep for s in K.states},
        init=K.init,
    )


def reach_from(K: KripkeStructure, v: str) -> KripkeStructure:
    """Subgraph on the states reachable from `v` (inclusive), rooted at `v`."""
    if v not in K.labels:
        raise ValidationError("UnknownState", v)
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in K.successors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    states = tuple(s for s in K.states if s in seen)
    return KripkeStructure(
        ap=K.ap,
        states=states,
        edges={(a, b) for (a, b) in K.edges if a in seen and b in seen},
        labels={s: K.labels[s] for s in states},
        init=v,
    )


def isomorphic(K1: KripkeStructure, K2: KripkeStructure) -> bool:
    """True when a label-, edge-, and init-preserving bijection exists.

    Backtracking with degree/label pruning; meant for desk-scale inputs.
    """
    if len(K1.states) != len(K2.states) or len(K1.edges) != len(K2.edges):
        return False

    def signature(K, s):
        return (
            tuple(sorted(K.labels[s])),
            len(K.successors(s)),
            len(K.predecessors(s)),
        )

    sig1 = {s: signature(K1, s) for s in K1.states}
    sig2 = {s: signature(K2, s) for s in K2.states}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    if sig1[K1.init] != sig2[K2.init]:
        return False

    candidates = {s: [t for t in K2.states if sig2[t] == sig1[s]] for s in K1.states}
    candidates[K1.init] = [K2.init]
    order = sorted(K1.states, key=lambda s: len(candidates[s]))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(s, t):
        for u, v in mapping.items():
            if ((s, u) in K1.edges) != ((t, v) in K2.edges):
                return False
            if ((u, s) in K1.edges) != ((v, t) in K2.edges):
                return False
        return (((s, s) in K1.edges) == ((t, t) in K2.edges))

    def assign(i):
        if i == len(order):
            return True
        s = order[i]
        for t in candidates[s]:
            if t in used or not consistent(s, t):
                continue
            mapping[s] = t
            used.add(t)
            if assign(i + 1):
                return True
            del mapping[s]
            used.remove(t)
        return False

    return assign(0)
