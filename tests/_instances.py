"""Seeded random structures, formulas, and instances shared by the tests."""

import random

from intervalmc import KripkeStructure
from intervalmc.logic import (
    And,
    Box,
    Diamond,
    FALSE,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    TRUE,
    formula_size,
)
from intervalmc.reductions import CnfFormula, QbfFormula

EXISTS_MODS = (Modality.A, Modality.B, Modality.E, Modality.ABAR)
AB_MODS = (Modality.A, Modality.BBAR)
POSITIVE_MODS = (Modality.A, Modality.ABAR, Modality.B, Modality.E, Modality.BBAR)
HS_MODS = POSITIVE_MODS + (Modality.EBAR,)


def random_kripke(rng, min_states=1, max_states=4, letters=("p", "q")):
    n = rng.randint(min_states, max_states)
    states = [f"s{i}" for i in range(n)]
    labels = {s: [p for p in letters if rng.random() < 0.55] for s in states}
    edges = set()
    for s in states:
        targets = [t for t in states if rng.random() < 0.45]
        if not targets:
            targets = [rng.choice(states)]
        edges.update((s, t) for t in targets)
    return KripkeStructure(
        ap=letters, states=states, edges=edges, labels=labels, init=states[0]
    )


def random_track(rng, K, length):
    track = [rng.choice(K.states)]
    while len(track) < length:
        track.append(rng.choice(K.successors(track[-1])))
    return tuple(track)


def random_beta(rng, letters, depth=2):
    if depth == 0 or rng.random() < 0.4:
        r = rng.random()
        if r < 0.85:
            return Prop(rng.choice(letters))
        return TRUE if r < 0.95 else FALSE
    r = rng.random()
    if r < 0.25:
        return Not(random_beta(rng, letters, depth - 1))
    node = And if r < 0.65 else Or
    return node(random_beta(rng, letters, depth - 1), random_beta(rng, letters, depth - 1))


def random_exists_formula(rng, letters, modal_budget=3):
    """Formula from the existential grammar with at most `modal_budget`
    modal nodes."""
    if modal_budget == 0 or rng.random() < 0.25:
        return random_beta(rng, letters, 1)
    if modal_budget >= 1 and rng.random() < 0.3:
        k = rng.randint(0, modal_budget)
        return Or(
            random_exists_formula(rng, letters, k),
            random_exists_formula(rng, letters, modal_budget - k),
        )
    return Diamond(rng.choice(EXISTS_MODS), random_exists_formula(rng, letters, modal_budget - 1))


def random_forall_formula(rng, letters, modal_budget=3):
    if modal_budget == 0 or rng.random() < 0.25:
        return random_beta(rng, letters, 1)
    if modal_budget >= 1 and rng.random() < 0.3:
        k = rng.randint(0, modal_budget)
        return And(
            random_forall_formula(rng, letters, k),
            random_forall_formula(rng, letters, modal_budget - k),
        )
    return Box(rng.choice(EXISTS_MODS), random_forall_formula(rng, letters, modal_budget - 1))


def random_ab_formula(rng, letters, max_nodes=6):
    """Boolean-closed formula over the meets/right-extension modalities,
    retried until it fits the node budget."""
    for _ in range(50):
        phi = _ab(rng, letters, 3)
        if formula_size(phi) <= max_nodes:
            return phi
    return random_beta(rng, letters, 1)


def _ab(rng, letters, depth):
    if depth == 0 or rng.random() < 0.35:
        return random_beta(rng, letters, 1)
    r = rng.random()
    if r < 0.15:
        return Not(_ab(rng, letters, depth - 1))
    if r < 0.3:
        return And(_ab(rng, letters, depth - 1), _ab(rng, letters, depth - 1))
    if r < 0.45:
        return Or(_ab(rng, letters, depth - 1), _ab(rng, letters, depth - 1))
    if r < 0.55:
        return Implies(_ab(rng, letters, depth - 1), _ab(rng, letters, depth - 1))
    node = Diamond if rng.random() < 0.6 else Box
    return node(rng.choice(AB_MODS), _ab(rng, letters, depth - 1))


def random_positive_formula(rng, letters, modal_budget=3):
    """Positive diamond formula (conjunction, disjunction, diamonds)."""
    if modal_budget == 0 or rng.random() < 0.3:
        return random_beta(rng, letters, 1)
    r = rng.random()
    if r < 0.35:
        node = And if r < 0.17 else Or
        k = rng.randint(0, modal_budget)
        return node(
            random_positive_formula(rng, letters, k),
            random_positive_formula(rng, letters, modal_budget - k),
        )
    return Diamond(
        rng.choice(POSITIVE_MODS), random_positive_formula(rng, letters, modal_budget - 1)
    )


def random_hs_formula(rng, letters, modal_budget=3):
    """Formula over all six primitive modalities, each as a diamond or a
    box, under every Boolean connective, with at most `modal_budget` modal
    nodes."""
    r = rng.random()
    if modal_budget == 0 or r < 0.2:
        return random_beta(rng, letters, 1)
    if r < 0.3:
        return Not(random_hs_formula(rng, letters, modal_budget))
    if r < 0.55:
        node = rng.choice((And, Or, Implies))
        k = rng.randint(0, modal_budget)
        return node(
            random_hs_formula(rng, letters, k),
            random_hs_formula(rng, letters, modal_budget - k),
        )
    node = Diamond if rng.random() < 0.5 else Box
    return node(rng.choice(HS_MODS), random_hs_formula(rng, letters, modal_budget - 1))


def random_cnf(rng, max_vars=6, max_clauses=12):
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        chosen = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(n, tuple(clauses))


def random_qbf(rng, max_vars=4, max_clauses=8, min_vars=1):
    n = rng.randint(min_vars, max_vars)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    prefix = tuple((rng.choice("ea"), v) for v in order)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(3, n))
        chosen = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return QbfFormula(prefix, CnfFormula(n, tuple(clauses)))


def rng_for(name: str) -> random.Random:
    return random.Random(f"intervalmc::{name}")
