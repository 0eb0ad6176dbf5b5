import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from intervalmc import (
    DescriptorElement,
    KripkeStructure,
    concat_desc,
    enumerate_tracks,
    format_kripke,
    is_track,
    parse_formula,
    parse_kripke,
    shortest_witness,
    track_label,
    val,
    witnessed_descriptors,
)
from intervalmc.errors import NotWitnessed, ParseError, ValidationError
from intervalmc.model import check_track, witness_lengths
from intervalmc.oracle import eval_bounded
from intervalmc.reductions import CnfFormula, QbfFormula, build_qbf_instance, build_sat_instance
from intervalmc.tracknfa import accepts_track, compile_positive, find_satisfying_track

from _descriptor_of import descriptor_of
from _instances import random_kripke, random_track, rng_for, shuffle_declaration, sparse_kripke
from _structures import isomorphic, reach_from, restrict_labels


def desc(v_in, interior, v_fin):
    return DescriptorElement(v_in, frozenset(interior), v_fin)


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_kequiv(kequiv):
    assert set(kequiv.states) == {"v0", "v1"}
    assert len(kequiv.edges) == 4
    assert kequiv.labels["v0"] == {"p"}
    assert kequiv.labels["v1"] == {"q"}
    assert kequiv.init == "v0"
    assert kequiv.ap == {"p", "q"}


def test_parse_rejects_missing_outgoing_edge():
    text = "ap: p\ninit: v0\nstate v0: p\nstate v1:\nedge: v0 v0\nedge: v0 v1\n"
    with pytest.raises(ValidationError) as err:
        parse_kripke(text)
    assert err.value.reason == "NotLeftTotal"
    assert err.value.subject == "v1"


def test_parse_rejects_undeclared_init():
    text = "ap: p\ninit: vX\nstate v0: p\nedge: v0 v0\n"
    with pytest.raises(ValidationError) as err:
        parse_kripke(text)
    assert err.value.reason == "UnknownState"


def test_parse_rejects_duplicate_state():
    text = "ap: p\ninit: v0\nstate v0: p\nstate v1:\nstate v0:\nedge: v0 v0\nedge: v1 v1\n"
    with pytest.raises(ValidationError) as err:
        parse_kripke(text)
    assert err.value.reason == "DuplicateState"
    assert str(err.value) == "DuplicateState: v0"


def test_parse_rejects_unknown_proposition():
    text = "ap: p\ninit: v0\nstate v0: q\nedge: v0 v0\n"
    with pytest.raises(ValidationError) as err:
        parse_kripke(text)
    assert err.value.reason == "UnknownProposition"


def test_parse_rejects_missing_init():
    text = "ap: p\nstate v0: p\nedge: v0 v0\n"
    with pytest.raises(ValidationError) as err:
        parse_kripke(text)
    assert err.value.reason == "MissingInit"


def test_parse_rejects_unknown_edge_endpoint():
    text = "ap: p\ninit: v0\nstate v0: p\nedge: v0 v1\nedge: v0 v0\n"
    with pytest.raises(ValidationError) as err:
        parse_kripke(text)
    assert err.value.reason == "UnknownState"


def test_parse_reports_line_of_bad_syntax():
    text = "ap: p\ninit: v0\nstate v0: p\nedgy: v0 v0\n"
    with pytest.raises(ParseError) as err:
        parse_kripke(text)
    assert err.value.line == 4


def test_parse_out_of_order_sections():
    text = "init: v0\nap: p\nstate v0: p\nedge: v0 v0\n"
    with pytest.raises(ParseError):
        parse_kripke(text)


# Each rule of the file layout, which `parse_kripke` checks itself:
# (text, error class, message, line).
LAYOUT_ERRORS = [
    ("ap: p\nap: q\ninit: w\n", ParseError, "misplaced ap: line (line 2)", 2),
    ("ap: p\ninit: w\nap: q\n", ParseError, "misplaced ap: line (line 3)", 3),
    ("init: w\nap: p\n", ParseError, "misplaced init: line (line 1)", 1),
    ("ap: p\ninit: w\ninit: w\n", ParseError, "misplaced init: line (line 3)", 3),
    ("ap: p\ninit: w v\n", ParseError, "init: expects exactly one state name (line 2)", 2),
    ("ap: p\ninit:\n", ParseError, "init: expects exactly one state name (line 2)", 2),
    ("ap: p\nstate w: p\n", ValidationError, "state section before any init: line", None),
    ("ap: p\ninit: w\nstate w: p\nedge: w w\nstate v:\n", ParseError, "misplaced state line (line 5)", 5),
    ("ap: p\ninit: w\nstate w p\n", ParseError, "invalid state declaration 'state w p' (line 3)", 3),
    ("ap: p\ninit: w\nstate w: p\nstate : p\n", ParseError, "invalid state declaration 'state : p' (line 4)", 4),
    ("ap: p\ninit: w\nedge: w w\n", ParseError, "misplaced edge line (line 3)", 3),
    ("ap: p\ninit: w\nstate w: p\nedge: w\n", ParseError, "edge: expects exactly two state names (line 4)", 4),
    ("# no sections\n", ParseError, "missing ap: line", None),
]


@pytest.mark.parametrize("text, error, message, line", LAYOUT_ERRORS)
def test_parse_rejects_each_layout_error_with_its_line(text, error, message, line):
    with pytest.raises(error) as err:
        parse_kripke(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line


@pytest.mark.parametrize(
    "text, reason, subject, message",
    [
        ("ap: 1p\ninit: w\nstate w:\nedge: w w\n", "UnknownProposition", "1p", "invalid proposition name: 1p"),
        ("ap: p\ninit: 1w\nstate w: p\nedge: w w\n", "UnknownState", "1w", "initial state is not declared: 1w"),
        ("ap: p\ninit: w\nstate 1w: p\nedge: 1w 1w\n", "UnknownState", "1w", "invalid state name: 1w"),
        ("ap: p\ninit: w\nstate w: p-q\nedge: w w\n", "UnknownProposition", "p-q", "UnknownProposition: p-q"),
        ("ap: p\ninit: w\n", "UnknownState", None, "structure has no states"),
    ],
)
def test_parse_leaves_names_to_the_structure(text, reason, subject, message):
    # Names are the structure's rule: the error names the state or letter.
    with pytest.raises(ValidationError) as err:
        parse_kripke(text)
    assert (err.value.reason, err.value.subject, str(err.value)) == (reason, subject, message)


def test_parse_ignores_comments_and_blanks():
    text = "# header\nap: p\n\ninit: v0  # trailing\nstate v0: p\nedge: v0 v0\n"
    K = parse_kripke(text)
    assert K.states == ("v0",)


def test_format_round_trip(kequiv):
    letterless = KripkeStructure(ap=(), states=("a", "b"), edges={("a", "b"), ("b", "b")}, labels={}, init="a")
    structures = [kequiv, letterless, build_sat_instance(CnfFormula(0, ()))[0]]
    rng = rng_for("roundtrip")
    structures += [random_kripke(rng, max_states=5, letters=("p", "q", "r")) for _ in range(25)]
    for K in structures:
        text = format_kripke(K)
        assert parse_kripke(text) == K
        assert all(line == line.rstrip() for line in text.splitlines()), text


def test_constructor_enforces_left_totality():
    with pytest.raises(ValidationError):
        KripkeStructure(
            ap=("p",), states=("a", "b"), edges={("a", "b")}, labels={"a": ("p",)}, init="a"
        )


def test_constructor_rejects_duplicate_states():
    with pytest.raises(ValidationError) as err:
        KripkeStructure(ap=(), states=("a", "a"), edges={("a", "a")}, labels={}, init="a")
    assert err.value.reason == "DuplicateState"
    with pytest.raises(ValidationError) as err:
        KripkeStructure(
            ap=(), states=("a", "b", "c", "b", "a"), edges={(s, s) for s in "abc"}, labels={}, init="a"
        )
    assert (err.value.reason, err.value.subject) == ("DuplicateState", "b")


def test_constructor_rejects_label_of_undeclared_state():
    with pytest.raises(ValidationError) as err:
        KripkeStructure(
            ap=("p",), states=("a",), edges={("a", "a")}, labels={"a": ("p",), "zz": ("p",)}, init="a"
        )
    assert (err.value.reason, err.value.subject) == ("UnknownState", "zz")


_VALID_NAME = st.builds(
    str.__add__, st.sampled_from("abpqzAZ_"), st.text(alphabet="abpqzAZ_09", max_size=2)
)  # [A-Za-z_][A-Za-z0-9_]*
# Arbitrary text, and values that are not strings, hashable or not.
_HASHABLE_NAME = st.one_of(st.text(max_size=3), st.integers(), st.none(), st.binary(max_size=2))
_ANY_NAME = st.one_of(_HASHABLE_NAME, st.lists(st.sampled_from("ab"), max_size=1))


@st.composite
def named_structures(draw):
    """Constructor arguments on valid names, with at most one name replaced
    by an arbitrary one: a declared state or letter, the initial state, an
    edge endpoint, a label key (hashable, as a dict key is) or a label
    letter. Every state has a self-loop, and each string state a subset of
    the letters."""
    states = draw(st.lists(_VALID_NAME, min_size=1, max_size=4, unique=True))
    ap = draw(st.lists(_VALID_NAME, max_size=3))
    odd = draw(st.sampled_from(("none", "state", "letter", "init", "source", "target", "label key", "label letter")))
    if odd == "state":
        states[draw(st.integers(0, len(states) - 1))] = draw(_ANY_NAME)
    elif odd == "letter":
        ap.append(draw(_ANY_NAME))
    labels = {s: draw(st.lists(st.sampled_from(ap), max_size=2)) if ap else [] for s in states if isinstance(s, str)}
    init = draw(st.sampled_from(states))
    edges = [(s, s) for s in states]
    if odd == "init":
        init = draw(_ANY_NAME)
    elif odd in ("source", "target"):
        edge = [draw(st.sampled_from(states)), draw(_ANY_NAME)]
        edges.append(tuple(edge if odd == "target" else edge[::-1]))
    elif odd == "label key":
        labels[draw(_HASHABLE_NAME)] = []
    elif odd == "label letter":
        labels[states[0]].append(draw(_ANY_NAME))
    return dict(ap=ap, states=states, edges=edges, labels=labels, init=init)


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(named_structures())
@example(dict(ap=["p q"], states=["a"], edges=[("a", "a")], labels={"a": ["p q"]}, init="a"))
@example(dict(ap=["1p"], states=["a"], edges=[("a", "a")], labels={}, init="a"))
@example(dict(ap=[1], states=["a"], edges=[("a", "a")], labels={}, init="a"))
@example(dict(ap=[], states=[1], edges=[(1, 1)], labels={}, init=1))
@example(dict(ap=["p"], states=["a"], edges=[(["a"], "a")], labels={}, init="a"))
@example(dict(ap=["p"], states=["a"], edges=[("a", "a")], labels={"a": [["p"]]}, init="a"))
@example(dict(ap=["p"], states=["a"], edges=[("a", "a")], labels={}, init=["a"]))
def test_constructor_checks_every_name(args):
    # Either a ValidationError, never a TypeError, or a structure that its
    # file gives back equal and in the same declaration order.
    try:
        K = KripkeStructure(**args)
    except ValidationError as err:
        assert err.reason in ("UnknownState", "UnknownProposition", "DuplicateState")
        return
    again = parse_kripke(format_kripke(K))
    assert again == K and again.states == K.states


# Every entry point that takes a state name, called with `name` in a state's place.
_NAME_ENTRY_POINTS = {
    "id_of": lambda K, name: K.id_of(name),
    "successors": lambda K, name: K.successors(name),
    "predecessors": lambda K, name: K.predecessors(name),
    "check_track": lambda K, name: check_track(K, ["v0", name]),
    "eval_bounded": lambda K, name: eval_bounded(K, ["v0", name], parse_formula("p"), 3),
    "accepts_track": lambda K, name: accepts_track(compile_positive(K, parse_formula("p"), 3), ["v0", name], 3),
    "track_label": lambda K, name: track_label(K, ["v0", name]),
    "shortest_witness": lambda K, name: shortest_witness(K, DescriptorElement("v0", frozenset(), name)),
    "witness_lengths": lambda K, name: witness_lengths(K, name),
    "witnessed_descriptors": lambda K, name: witnessed_descriptors(K, name),
    "enumerate_tracks": lambda K, name: list(enumerate_tracks(K, 3, start=name)),
    "find_satisfying_track first": lambda K, name: find_satisfying_track(K, parse_formula("<A> p"), 3, first=name),
    "find_satisfying_track last": lambda K, name: find_satisfying_track(K, parse_formula("<A> p"), 3, last=name),
    "find_satisfying_track interior": lambda K, name: find_satisfying_track(
        K, parse_formula("<A> p"), 3, interior=[name]
    ),
    "val": lambda K, name: val(parse_formula("p"), DescriptorElement(name, frozenset(), "v0"), K),
}


@pytest.mark.parametrize("name", ["zz", 1, ["a"]], ids=["undeclared", "int", "list"])
@pytest.mark.parametrize("entry", sorted(_NAME_ENTRY_POINTS))
def test_every_name_lookup_rejects_what_is_not_a_state(kequiv, entry, name):
    # One rule for every entry point: a state name is a declared string;
    # anything else, hashable or not, is UnknownState.
    with pytest.raises(ValidationError) as err:
        _NAME_ENTRY_POINTS[entry](kequiv, name)
    assert (err.value.reason, err.value.subject) == ("UnknownState", name)
    assert is_track(kequiv, ["v0", name]) is False


def test_structure_numbers_its_states_in_sorted_name_order():
    # The numbering every engine runs on, on structures declared in a random
    # order; with ten states or more, sorted names (s10 before s2) differ
    # from numeric order too.
    rng = rng_for("numbering")
    for i in range(80):
        if i % 2:
            K = sparse_kripke(rng, max_states=14, letters=("p", "q", "r"))
        else:
            K = shuffle_declaration(rng, random_kripke(rng, max_states=5, letters=("r", "p", "q")))
        assert K.names == tuple(sorted(K.states))
        assert K.ids == {s: i for i, s in enumerate(K.names)}
        assert K.letter_bit == {p: 1 << i for i, p in enumerate(sorted(K.ap))}
        for rows in (K.succ, K.pred):
            assert len(rows) == len(K.states)
            assert all(list(row) == sorted(set(row)) for row in rows)
        assert sorted((K.names[a], K.names[b]) for a, row in enumerate(K.succ) for b in row) == sorted(K.edges)
        assert sorted((K.names[a], K.names[b]) for b, row in enumerate(K.pred) for a in row) == sorted(K.edges)
        for s in K.states:
            mask = K.masks[K.ids[s]]
            assert {p for p, bit in K.letter_bit.items() if mask & bit} == K.labels[s]
            assert mask < 1 << len(K.ap)
            assert K.successors(s) == tuple(sorted(w for v, w in K.edges if v == s))
            assert K.predecessors(s) == tuple(sorted(v for v, w in K.edges if w == s))


# ---------------------------------------------------------------------------
# Labels, descriptors, concatenation


def test_track_label_examples(kequiv):
    assert track_label(kequiv, ("v0", "v1")) == frozenset()
    assert track_label(kequiv, ("v0", "v0", "v0")) == {"p"}


def test_track_label_is_intersection_of_pair_labels():
    rng = rng_for("labelpairs")
    for _ in range(30):
        K = random_kripke(rng, letters=("p", "q", "r"))
        rho = random_track(rng, K, rng.randint(2, 6))
        expected = frozenset.intersection(
            *(track_label(K, rho[i : i + 2]) for i in range(len(rho) - 1))
        )
        assert track_label(K, rho) == expected


def test_track_label_shrinks_under_extension():
    rng = rng_for("labelmono")
    for _ in range(30):
        K = random_kripke(rng)
        rho = random_track(rng, K, rng.randint(2, 5))
        ext = rho + (rng.choice(K.successors(rho[-1])),)
        assert track_label(K, rho) >= track_label(K, ext)


def test_descriptor_of_examples():
    assert descriptor_of(("v0", "v1")) == desc("v0", (), "v1")
    assert descriptor_of(("v0", "v1", "v1", "v0")) == desc("v0", ("v1",), "v0")
    assert descriptor_of(("v0", "v1", "v0", "v1")) == desc("v0", ("v0", "v1"), "v1")


def test_concat_desc_examples():
    assert concat_desc(desc("v0", (), "v1"), desc("v1", (), "v0")) == desc("v0", ("v1",), "v0")
    assert concat_desc(desc("a", (), "b"), desc("c", (), "d")) == desc("a", ("b", "c"), "d")


def test_concat_matches_track_concatenation():
    rng = rng_for("concat")
    for _ in range(60):
        K = random_kripke(rng)
        r1 = random_track(rng, K, rng.randint(2, 5))
        candidates = K.successors(r1[-1])
        r2 = (rng.choice(candidates),)
        while len(r2) < rng.randint(2, 5):
            r2 = r2 + (rng.choice(K.successors(r2[-1])),)
        assert descriptor_of(r1 + r2) == concat_desc(descriptor_of(r1), descriptor_of(r2))


# ---------------------------------------------------------------------------
# Witnessed descriptors and shortest witnesses


def test_witnessed_descriptors_kequiv_forward(kequiv):
    found = witnessed_descriptors(kequiv, "v0", "forward")
    expected = {
        desc("v0", interior, last)
        for last in ("v0", "v1")
        for r in range(3)
        for interior in map(frozenset, itertools.combinations(("v0", "v1"), r))
    }
    assert set(found) == expected
    assert len(found) == 8
    assert list(found) == sorted(found, key=DescriptorElement.sort_key)


def test_witnessed_descriptors_sat_chain():
    K, _ = build_sat_instance(CnfFormula(1, ()))
    fwd = witnessed_descriptors(K, "w1_T", "forward")
    assert set(fwd) == {desc("w1_T", (), "w1_T"), desc("w1_T", ("w1_T",), "w1_T")}
    assert witnessed_descriptors(K, "w0", "backward") == ()


def test_witnessed_descriptors_agree_with_enumeration():
    rng = rng_for("fixpoint")
    for _ in range(12):
        K = random_kripke(rng, max_states=3)
        bound = 2 + len(K.states) ** 2
        for v in K.states:
            from_tracks = {
                descriptor_of(t) for t in enumerate_tracks(K, bound, start=v)
            }
            assert set(witnessed_descriptors(K, v, "forward")) == from_tracks


def test_witnessed_descriptors_sound_and_complete_up_to_five_states():
    # Full enumeration up to 2+|W|^2 is intractable at five states; check
    # that every element is realized by an actual track and that every
    # short track's element is found.
    rng = rng_for("fixpoint5")
    for _ in range(8):
        K = random_kripke(rng, min_states=4, max_states=5, letters=("p",))
        for v in K.states:
            found = set(witnessed_descriptors(K, v, "forward"))
            for d in found:
                w = shortest_witness(K, d)
                assert descriptor_of(w) == d and w[0] == v
            for t in enumerate_tracks(K, 6, start=v):
                assert descriptor_of(t) in found


def test_witnessed_descriptors_agree_with_automaton_search():
    # Third route, feasible at four states where plain enumeration is not:
    # an element is witnessed exactly when the track automaton finds a
    # track with the given endpoints and exact interior set within the
    # length bound.
    from intervalmc.logic import TRUE
    from intervalmc.tracknfa import find_satisfying_track

    rng = rng_for("fixpoint-nfa")
    for _ in range(8):
        K = random_kripke(rng, min_states=3, max_states=4)
        bound = 2 + len(K.states) ** 2
        subsets = [
            frozenset(combo)
            for r in range(len(K.states) + 1)
            for combo in itertools.combinations(K.states, r)
        ]
        for v in K.states:
            found = set(witnessed_descriptors(K, v, "forward"))
            for u in K.states:
                for interior in subsets:
                    track = find_satisfying_track(
                        K, TRUE, bound, first=v, last=u, interior=interior
                    )
                    assert (track is not None) == (desc(v, interior, u) in found)
                    if track is not None:
                        assert descriptor_of(track) == desc(v, interior, u)


def test_witnessed_descriptors_backward_matches_enumeration():
    rng = rng_for("fixpointbwd")
    for _ in range(10):
        K = random_kripke(rng, max_states=3)
        bound = 2 + len(K.states) ** 2
        ending = {}
        for t in enumerate_tracks(K, bound):
            ending.setdefault(t[-1], set()).add(descriptor_of(t))
        for v in K.states:
            assert set(witnessed_descriptors(K, v, "backward")) == ending.get(v, set())


def test_shortest_witness_examples(kequiv):
    assert shortest_witness(kequiv, desc("v0", ("v1",), "v0")) == ("v0", "v1", "v0")
    assert shortest_witness(kequiv, desc("v0", (), "v1")) == ("v0", "v1")
    found = shortest_witness(kequiv, desc("v0", ("v0", "v1"), "v0"))
    assert len(found) == 4
    assert descriptor_of(found) == desc("v0", ("v0", "v1"), "v0")


def test_shortest_witness_not_witnessed():
    K, _ = build_sat_instance(CnfFormula(1, ()))
    with pytest.raises(NotWitnessed):
        shortest_witness(K, desc("w1_T", (), "w0"))


def test_shortest_witness_length_bound_and_roundtrip():
    rng = rng_for("witnessbound")
    for _ in range(15):
        K = random_kripke(rng, max_states=4, letters=("p",))
        bound = 2 + len(K.states) ** 2
        for v in K.states:
            for d in witnessed_descriptors(K, v, "forward"):
                w = shortest_witness(K, d)
                assert is_track(K, w)
                assert len(w) <= bound
                assert descriptor_of(w) == d


def test_shortest_witness_is_minimal():
    rng = rng_for("witnessmin")
    for _ in range(8):
        K = random_kripke(rng, max_states=3)
        by_desc = {}
        for t in enumerate_tracks(K, 7):
            by_desc.setdefault(descriptor_of(t), len(t))
        for d, best in by_desc.items():
            assert len(shortest_witness(K, d)) == best


# ---------------------------------------------------------------------------
# Track enumeration


def test_enumerate_tracks_examples(kequiv):
    assert list(enumerate_tracks(kequiv, 2, start="v0")) == [("v0", "v0"), ("v0", "v1")]
    assert len(list(enumerate_tracks(kequiv, 2))) == 4
    assert len(list(enumerate_tracks(kequiv, 3, start="v0"))) == 6


def test_enumerate_tracks_order_and_uniqueness():
    rng = rng_for("enumorder")
    for _ in range(10):
        K = random_kripke(rng)
        tracks = list(enumerate_tracks(K, 4))
        assert len(set(tracks)) == len(tracks)
        assert tracks == sorted(tracks, key=lambda t: (len(t), t))
        for t in tracks:
            assert is_track(K, t)


def test_enumerate_tracks_matches_product_reference():
    # Every state sequence of each length, in lexicographic order, kept
    # when it is a track: the same tracks in the same order.
    rng = rng_for("enumproduct")
    for _ in range(30):
        K = random_kripke(rng)
        states = sorted(K.states)
        for max_len in range(2, 7):
            for start in (None, K.init):
                expected = [
                    t
                    for n in range(2, max_len + 1)
                    for t in itertools.product(states, repeat=n)
                    if is_track(K, t) and (start is None or t[0] == start)
                ]
                assert list(enumerate_tracks(K, max_len, start=start)) == expected


@st.composite
def shuffled_structures(draw):
    """Structures on s0..s(n-1), n <= 12, declared in a drawn order; from
    s10 on, sorted names (s10 before s2) differ from numeric order too."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 12)))]
    edges = set()
    for s in states:
        edges |= {(s, t) for t in draw(st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True))}
    return KripkeStructure(
        ap=("p", "q", "r"),
        states=draw(st.permutations(states)),
        edges=edges,
        labels={s: draw(st.sets(st.sampled_from(("p", "q")))) for s in states},
        init=draw(st.sampled_from(states)),
    )


@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(shuffled_structures(), st.integers(2, 4))
def test_enumerate_tracks_and_round_trip_on_shuffled_declarations(K, max_len):
    # Brute force: every track of each length, from the tracks one state
    # shorter, then sorted by (length, names).
    layer, expected = [(s,) for s in K.states], []
    for _ in range(max_len - 1):
        layer = [t + (w,) for t in layer for w in K.states if (t[-1], w) in K.edges]
        expected += layer
    expected.sort(key=lambda t: (len(t), t))
    assert list(enumerate_tracks(K, max_len)) == expected
    for v in K.states:
        assert list(enumerate_tracks(K, max_len, start=v)) == [t for t in expected if t[0] == v]
    again = parse_kripke(format_kripke(K))
    assert again == K and again.states == K.states


def test_enumerate_tracks_rejects_small_bound(kequiv):
    with pytest.raises(ValueError):
        list(enumerate_tracks(kequiv, 1))


# ---------------------------------------------------------------------------
# Restriction, reachability, isomorphism


def test_restrict_labels_examples(kequiv):
    R = restrict_labels(kequiv, {"p"})
    assert R.labels["v0"] == {"p"} and R.labels["v1"] == frozenset()
    assert restrict_labels(kequiv, kequiv.ap) == kequiv
    empty = restrict_labels(kequiv, ())
    assert all(not empty.labels[s] for s in empty.states)


def test_reach_from_examples(kequiv):
    K, _ = build_sat_instance(CnfFormula(1, ()))
    sub = reach_from(K, "w1_F")
    assert sub.states == ("w1_F",) and sub.edges == {("w1_F", "w1_F")}
    whole = reach_from(kequiv, "v1")
    assert whole.init == "v1" and set(whole.states) == {"v0", "v1"}
    Kq, _ = build_qbf_instance(QbfFormula((("e", 1),), CnfFormula(1, ())))
    sink = reach_from(Kq, "sink")
    assert sink.states == ("sink",) and sink.edges == {("sink", "sink")}


def test_isomorphic_examples(kequiv):
    renamed = KripkeStructure(
        ap=kequiv.ap,
        states=("a", "b"),
        edges={("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")},
        labels={"a": {"p"}, "b": {"q"}},
        init="a",
    )
    assert isomorphic(kequiv, renamed)
    relabeled = KripkeStructure(
        ap=kequiv.ap,
        states=kequiv.states,
        edges=kequiv.edges,
        labels={"v0": {"p"}, "v1": {"p"}},
        init="v0",
    )
    assert not isomorphic(kequiv, relabeled)
    assert isomorphic(kequiv, reach_from(kequiv, kequiv.init))


def test_isomorphic_is_reflexive_and_symmetric():
    rng = rng_for("iso")
    for _ in range(10):
        K = random_kripke(rng, max_states=4, letters=("p", "q"))
        assert isomorphic(K, K)
        names = {s: f"t{i}" for i, s in enumerate(reversed(K.states))}
        renamed = KripkeStructure(
            ap=K.ap,
            states=[names[s] for s in K.states],
            edges={(names[a], names[b]) for a, b in K.edges},
            labels={names[s]: K.labels[s] for s in K.states},
            init=names[K.init],
        )
        assert isomorphic(K, renamed) and isomorphic(renamed, K)


def test_isomorphic_distinguishes_init():
    K1 = KripkeStructure(
        ap=("p",),
        states=("a", "b"),
        edges={("a", "b"), ("b", "a")},
        labels={"a": ("p",), "b": ("p",)},
        init="a",
    )
    K2 = KripkeStructure(
        ap=("p",),
        states=("a", "b"),
        edges={("a", "b"), ("b", "b"), ("a", "a")},
        labels={"a": ("p",), "b": ("p",)},
        init="a",
    )
    assert not isomorphic(K1, K2)


# ---------------------------------------------------------------------------
# The pair search behind both functions, against a copy of the two
# breadth-first searches it replaced


def _old_witnessed_descriptors(K, v, direction="forward"):
    """`witnessed_descriptors` as it was before the shared pair search."""
    forward = direction == "forward"
    seeds = K.successors(v) if forward else K.predecessors(v)
    seen = {(u, frozenset()) for u in seeds}
    frontier = list(seen)
    while frontier:
        nxt = []
        for u, interior in frontier:
            grown = interior | {u}
            for w in K.successors(u) if forward else K.predecessors(u):
                pair = (w, grown)
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    if forward:
        found = [DescriptorElement(v, interior, u) for u, interior in seen]
    else:
        found = [DescriptorElement(u, interior, v) for u, interior in seen]
    return tuple(sorted(found, key=DescriptorElement.sort_key))


def _old_shortest_witness(K, d):
    """`shortest_witness` as it was before the shared pair search."""
    target = frozenset(d.interior)
    empty = frozenset()
    parents = {}
    frontier = []
    for w in K.successors(d.v_in):
        pair = (w, empty)
        if pair not in parents:
            parents[pair] = None
            if w == d.v_fin and target == empty:
                return (d.v_in, w)
            frontier.append(pair)
    while frontier:
        nxt = []
        for pair in frontier:
            u, interior = pair
            grown = interior | {u}
            if not grown <= target:
                continue
            for w in K.successors(u):
                child = (w, grown)
                if child in parents:
                    continue
                parents[child] = pair
                if w == d.v_fin and grown == target:
                    track = [w]
                    cur = pair
                    while cur is not None:
                        track.append(cur[0])
                        cur = parents[cur]
                    track.append(d.v_in)
                    return tuple(reversed(track))
                nxt.append(child)
        frontier = nxt
    raise NotWitnessed(f"no track of the structure realizes {d!r}")


def test_pair_search_matches_the_two_searches_it_replaced():
    rng = rng_for("model-pair-search")
    queries = 0
    for _ in range(150):
        K = random_kripke(rng, max_states=5)
        for v in K.states:
            for direction in ("forward", "backward"):
                found = witnessed_descriptors(K, v, direction)
                assert found == _old_witnessed_descriptors(K, v, direction)
                queries += 1
            for d in found:
                assert shortest_witness(K, d) == _old_shortest_witness(K, d)
                queries += 1
        # Elements no track realizes: an interior that is not reachable.
        for v, w in itertools.product(K.states, repeat=2):
            d = DescriptorElement(v, frozenset(K.states), w)
            try:
                want = _old_shortest_witness(K, d)
            except NotWitnessed:
                with pytest.raises(NotWitnessed):
                    shortest_witness(K, d)
            else:
                assert shortest_witness(K, d) == want
            queries += 1
    assert queries > 5000, queries
