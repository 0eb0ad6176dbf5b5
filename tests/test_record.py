"""The package's value classes: equality by type and fields, hashes that
agree with it, reprs, per-instance defaults and constructor checks; and
the import of the package, which must not need `dataclasses` and must
let a replaced copy of the package be freed."""

import contextlib
import gc
import importlib
import io
import pathlib
import subprocess
import sys
import weakref

import pytest

from intervalmc.descriptor_checker import Verdict
from intervalmc.errors import NonPrenex, OutOfRangeLiteral
from intervalmc.logic import (
    FALSE,
    TRUE,
    And,
    Box,
    Const,
    Diamond,
    Fragment,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    classify,
    parse_formula,
)
from intervalmc.model import DescriptorElement
from intervalmc.oracle import BoundedVerdict
from intervalmc.record import Record
from intervalmc.reductions import CnfFormula, QbfFormula

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PKG = "intervalmc"

P, Q = Prop("p"), Prop("q")


class Pair(Record):
    """A record with the default repr, defined here so that the cases below
    need no value type of the package."""

    __slots__ = ("letters", "last")

    def __init__(self, letters: frozenset, last: str):
        self.letters = letters
        self.last = last


def test_equality_is_by_type_and_fields():
    assert And(P, Q) == And(Prop("p"), Prop("q"))
    assert And(P, Q) != Or(P, Q)
    assert Or(P, Q) != Implies(P, Q)
    assert Diamond(Modality.A, P) != Box(Modality.A, P)
    assert Diamond(Modality.A, P) != Diamond(Modality.B, P)
    assert Not(P) != Not(Q)
    assert Const(True) == TRUE and TRUE != FALSE
    assert P != "p" and P != ("p",)
    assert Pair(frozenset({"p"}), "v0") != DescriptorElement("v0", frozenset({"p"}), "v0")


def test_equal_values_hash_equal():
    pairs = (
        (Box(Modality.B, And(P, Not(Q))), Box(Modality.B, And(Prop("p"), Not(Prop("q"))))),
        (Pair(frozenset({"p"}), "v0"), Pair(frozenset({"p"}), "v0")),
        (DescriptorElement("a", frozenset("b"), "c"), DescriptorElement("a", frozenset("b"), "c")),
        (BoundedVerdict(True, 3), BoundedVerdict(True, 3, None, 0)),
        (CnfFormula(2, ((1, -2),)), CnfFormula(2, ((1, -2),))),
        (classify(parse_formula("[A] p")), classify(parse_formula("[A] p"))),
    )
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert len({And(P, Q), And(P, Q), Or(P, Q)}) == 2


def test_reprs():
    cases = (
        (P, "Prop(name='p')"),
        (And(P, TRUE), "And(left=Prop(name='p'), right=Const(value=True))"),
        (Or(P, FALSE), "Or(left=Prop(name='p'), right=Const(value=False))"),
        (Implies(P, P), "Implies(left=Prop(name='p'), right=Prop(name='p'))"),
        (Diamond(Modality.ABAR, P), "Diamond(mod=<Modality.ABAR: '~A'>, sub=Prop(name='p'))"),
        (Box(Modality.B, Not(P)), "Box(mod=<Modality.B: 'B'>, sub=Not(sub=Prop(name='p')))"),
        (
            classify(parse_formula("[A] p")),
            "Fragment(prop=False, exists_aabe=False, forall_aabe=True, ab_bar=True, "
            "modalities=frozenset({<Modality.A: 'A'>}))",
        ),
        (
            BoundedVerdict(False, 4, ("v0", "v1"), 3),
            "BoundedVerdict(value=False, bound=4, failing_track=('v0', 'v1'), initial_tracks=3)",
        ),
        (
            Verdict("fails", ("v0", "v1"), "oracle", {"n": 1}, 4),
            "Verdict(result='fails', counterexample=('v0', 'v1'), engine='oracle', stats={'n': 1}, bound=4)",
        ),
        (CnfFormula(2, ((1, -2),)), "CnfFormula(num_vars=2, clauses=((1, -2),))"),
        (
            QbfFormula((("e", 1),), CnfFormula(1, ((1,),))),
            "QbfFormula(prefix=(('e', 1),), matrix=CnfFormula(num_vars=1, clauses=((1,),)))",
        ),
        (Pair(frozenset({"p"}), "v0"), "Pair(letters=frozenset({'p'}), last='v0')"),
        (DescriptorElement("v0", frozenset({"v1", "v2"}), "v1"), "(v0, {v1,v2}, v1)"),
    )
    for value, text in cases:
        assert repr(value) == text


def test_instances_have_slots_only():
    values = (
        P, TRUE, Not(P), And(P, Q), Or(P, Q), Implies(P, Q), Diamond(Modality.A, P), Box(Modality.A, P),
        Fragment(True, True, True, True, frozenset()), DescriptorElement("a", frozenset(), "a"),
        Pair(frozenset(), "a"), Verdict("holds", None, "class"), BoundedVerdict(True, 2),
        CnfFormula(0, ()), QbfFormula((), CnfFormula(0, ())),
    )
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_verdict_defaults_and_hash():
    a, b = Verdict("holds", None, "class"), Verdict("holds", None, "class")
    assert a.stats == {} and a.stats is not b.stats and a.bound is None
    a.stats["n"] = 1
    assert b.stats == {} and a != b
    given = {"k": 2}
    assert Verdict("holds", None, "class", given).stats is given
    with pytest.raises(TypeError):
        hash(a)


def test_bounded_verdict_defaults():
    v = BoundedVerdict(True, 5)
    assert (v.value, v.bound, v.failing_track, v.initial_tracks) == (True, 5, None, 0)


def test_cnf_and_qbf_constructors_check_their_input():
    for clauses in (((0,),), ((1, 3),), ((-3,),)):
        with pytest.raises(OutOfRangeLiteral):
            CnfFormula(2, clauses)
    with pytest.raises(NonPrenex, match="bad quantifier"):
        QbfFormula((("x", 1),), CnfFormula(1, ()))
    with pytest.raises(NonPrenex, match="quantified twice"):
        QbfFormula((("e", 1), ("a", 1)), CnfFormula(1, ()))
    with pytest.raises(NonPrenex, match="unbound"):
        QbfFormula((("e", 1),), CnfFormula(2, ((1, 2),)))


def test_cli_import_leaves_dataclasses_out():
    # -E and -S: no environment variable or site hook imports anything first;
    # -B: no bytecode is written into the source tree.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import intervalmc.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-B", "-E", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_replaced_copies_of_the_package_are_freed(kequiv_path):
    # Import the package afresh five times, as perfbench/run.py does for
    # each set-up, and run one check with each copy: a copy must be freed
    # once the next replaces it, or repeated set-ups accumulate memory.
    saved = {m: mod for m, mod in sys.modules.items() if m == PKG or m.startswith(PKG + ".")}
    argv = ["check", "--model", str(kequiv_path), "--formula", "[A] (p | !p)", "--json"]
    props = []
    try:
        for _ in range(5):
            for m in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
                del sys.modules[m]
            cli = importlib.import_module(f"{PKG}.cli")
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            assert '"result": "holds"' in out.getvalue()
            props.append(weakref.ref(cli.logic.Prop))
            del cli, out
            gc.collect()
            assert [ref() is None for ref in props[:-1]] == [True] * (len(props) - 1)
    finally:
        for m in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
            del sys.modules[m]
        sys.modules.update(saved)
    assert sys.modules[f"{PKG}.logic"].Prop is Prop
