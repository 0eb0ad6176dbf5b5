"""Independent checks of `intervalmc check --json` reports.

Runs outside the timed region. Each instance's expected verdict comes from
a reference that shares no code with the engine that produced the report:

- SAT instances: `brute_sat`; a counterexample must decode through
  `decode_sat_assignment` to a satisfying assignment.
- QBF instances: `brute_qbf`.
- Scheduler universal formulas: `tracknfa.find_satisfying_track` on the
  dualized negation at the oracle's default bound, from the initial
  state; a counterexample must be accepted by the automaton of the
  negation. Scheduler class-engine formulas: the verdicts the test suite
  asserts.
- Oracle instances: the positive-diamond automaton run on every initial
  track up to the bound, with the tracks enumerated here rather than by
  `model.enumerate_tracks`, which the oracle itself uses; `[~E] true` is
  `approximate-true` by hand.

Every counterexample must be a track of the structure starting at its
initial state.
"""

from __future__ import annotations

import json

EXIT_CODES = {"holds": 0, "fails": 1, "approximate-true": 4, "approximate-false": 4}


class Verifier:
    """Judges reports; references are computed once per instance."""

    def __init__(self, lib):
        self.lib = lib
        self._models: dict = {}
        self._expected: dict = {}

    def _model(self, path):
        K = self._models.get(path)
        if K is None:
            with open(path, encoding="utf-8") as handle:
                K = self.lib.model.parse_kripke(handle.read())
            self._models[path] = K
        return K

    def check(self, inst, rc, out):
        """None when the report is right, else a one-line reason."""
        if rc is None:
            return f"crashed: {out}"
        try:
            report = json.loads(out)
        except ValueError:
            return f"exit {rc} without a JSON report"
        result = report.get("result")
        if EXIT_CODES.get(result) != rc:
            return f"result {result!r} with exit code {rc}"
        expected = self.expected(inst)
        if result != expected:
            return f"result {result!r}, reference says {expected!r}"
        ce = report.get("counterexample")
        if (ce is None) != (result != "fails"):
            return "counterexample must be present exactly when the result is 'fails'"
        if ce is not None:
            return self._check_counterexample(inst, report, tuple(ce))
        return None

    def expected(self, inst):
        """The reference verdict of an instance, computed on first use."""
        if inst.name not in self._expected:
            self._expected[inst.name] = self._reference(inst)
        return self._expected[inst.name]

    def _reference(self, inst):
        lib = self.lib
        if inst.kind == "sat":
            cnf = lib.reductions.CnfFormula(inst.num_vars, inst.cnf)
            return "fails" if lib.reductions.brute_sat(cnf) else "holds"
        if inst.kind == "qbf":
            qbf = lib.reductions.QbfFormula(
                inst.prefix, lib.reductions.CnfFormula(inst.num_vars, inst.cnf)
            )
            return "holds" if lib.reductions.brute_qbf(qbf) else "fails"
        if inst.kind == "sched-class":
            return inst.expected
        K = self._model(inst.model_path)
        phi = lib.logic.desugar(lib.logic.parse_formula(inst.formula))
        if inst.kind == "sched-univ":
            neg = lib.logic.negate_to_exists(phi)
            bound = lib.oracle.default_bound(K, phi)
            track = lib.tracknfa.find_satisfying_track(K, neg, bound, first=K.init)
            return "holds" if track is None else "fails"
        if inst.kind == "oracle":
            if inst.formula == "[~E] true":
                return "approximate-true"
            auto = lib.tracknfa.compile_positive(K, phi, inst.bound)
            for rho in _initial_tracks(K, inst.bound):
                if not lib.tracknfa.accepts_track(auto, rho, inst.bound):
                    return "approximate-false"
            return "approximate-true"
        raise ValueError(f"unknown instance kind {inst.kind!r}")

    def _check_counterexample(self, inst, report, ce):
        lib = self.lib
        K = self._model(inst.model_path)
        if not lib.model.is_track(K, ce) or ce[0] != K.init:
            return f"counterexample {ce} is not an initial track"
        if inst.kind == "sat":
            variables = [f"x{i}" for i in range(1, inst.num_vars + 1)]
            assignment = lib.reductions.decode_sat_assignment(variables, K, ce)
            satisfied = all(
                any((lit > 0) == assignment[f"x{abs(lit)}"] for lit in clause) for clause in inst.cnf
            )
            if not satisfied:
                return f"counterexample {ce} decodes to a non-satisfying assignment"
            if report["stats"].get("assignment") != assignment:
                return "stats.assignment differs from the decoded counterexample"
        if inst.kind == "sched-univ":
            phi = lib.logic.desugar(lib.logic.parse_formula(inst.formula))
            neg = lib.logic.negate_to_exists(phi)
            bound = max(lib.oracle.default_bound(K, phi), len(ce))
            auto = lib.tracknfa.compile_positive(K, neg, bound)
            if not lib.tracknfa.accepts_track(auto, ce, bound):
                return f"counterexample {ce} satisfies the checked formula"
        return None


def _initial_tracks(K, bound):
    """Every track of length 2..bound from the initial state, depth first."""
    stack = [(K.init,)]
    while stack:
        rho = stack.pop()
        if len(rho) > 1:
            yield rho
        if len(rho) < bound:
            stack.extend(rho + (w,) for w in K.successors(rho[-1]))
