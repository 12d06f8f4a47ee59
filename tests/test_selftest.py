"""The selftest battery as a detector: each failure it names is reported.

Every check below feeds a detector a poisoned input, a scalar that breaks
one law or a plane primitive that lies, and reads the failure it returns;
the CLI runs then show that ``skewplane selftest`` exits 1 and names the
failing suite.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from skewplane import selftest
from skewplane.cli import main
from skewplane.errors import ParallelLinesError
from skewplane.scalars import PrimeField, PrimeFieldElement, RationalField


class Poisoned:
    """A rational whose results pass through ``fault(op, left, right)``:
    where it holds, the result comes out one too large (``is_zero``: True)."""

    __slots__ = ("value", "fault")

    def __init__(self, value, fault):
        self.value = Fraction(value)
        self.fault = fault

    def _out(self, op, right, value):
        return Poisoned(value + 1 if self.fault(op, self.value, right) else value, self.fault)

    def __add__(self, other):
        return self._out("+", other.value, self.value + other.value)

    def __mul__(self, other):
        return self._out("*", other.value, self.value * other.value)

    def __neg__(self):
        return self._out("-", None, -self.value)

    def inverse(self):
        return self._out("inv", None, 1 / self.value)

    def is_zero(self):
        return not self.value or self.fault("zero?", self.value, None)

    def __eq__(self, other):
        return self.value == other.value

    __hash__ = None

    def __str__(self):
        return str(self.value)


#: Each law of ``field_law_failure``, in the order it checks them, with an
#: operation fault that breaks it at (a, b, c) = (2, 3, 5) and keeps every
#: earlier law: a + b = 5, b + c = 8, a b = 6, b c = 15.
LAW_FAULTS = {
    "addition associativity": lambda op, l, r: op == "+" and l == 5,
    "addition commutativity": lambda op, l, r: op == "+" and (l, r) == (3, 2),
    "zero neutrality": lambda op, l, r: op == "+" and r == 0,
    "additive inverse": lambda op, l, r: op == "-",
    "multiplication associativity": lambda op, l, r: op == "*" and l == 6,
    "left distributivity": lambda op, l, r: op == "*" and r == 8,
    "right distributivity": lambda op, l, r: op == "*" and l == 5,
    "unit neutrality": lambda op, l, r: op == "*" and r == 1,
    "two-sided inverse": lambda op, l, r: op == "inv",
    "inverse involution": lambda op, l, r: op == "inv" and l < 1,
    "zero divisors": lambda op, l, r: op == "zero?" and l == 6,
    "inverse anti-homomorphism": lambda op, l, r: op == "inv" and l == 6,
}


@pytest.mark.parametrize("law", list(LAW_FAULTS))
def test_field_law_failure_names_the_broken_law(law):
    fault = LAW_FAULTS[law]
    field = SimpleNamespace(zero=lambda: Poisoned(0, fault), one=lambda: Poisoned(1, fault))
    triple = tuple(Poisoned(n, fault) for n in (2, 3, 5))
    failure = selftest.field_law_failure(field, [triple])
    assert failure is not None and failure.startswith(f"{law} at 2"), failure


def _raise_parallel(l1, l2):
    raise ParallelLinesError("poisoned")


#: Plane primitives patched into selftest, each lying so that one check
#: of ``plane_axiom_failure`` fails, keyed by the failure it reports.
PLANE_POISONS = {
    "misses an endpoint": {"on_line": lambda p, line: False},
    "is not unique": {"on_line": lambda p, line: True},
    "meets the line": {"intersect": lambda l1, l2: None},
    "Playfair uniqueness fails": {"parallel_through": lambda p, line: line,
                                  "intersect": _raise_parallel},
}


@pytest.mark.parametrize("failure", list(PLANE_POISONS))
def test_plane_axiom_failure_names_the_broken_axiom(monkeypatch, failure):
    for name, replacement in PLANE_POISONS[failure].items():
        monkeypatch.setattr(selftest, name, replacement)
    found = selftest.plane_axiom_failure(PrimeField(2))
    assert found is not None and failure in found, found


def test_plane_axiom_failure_counts_the_lines():
    gf2 = PrimeField(2)
    field = SimpleNamespace(p=3, elements=gf2.elements, zero=gf2.zero, one=gf2.one)
    assert selftest.plane_axiom_failure(field) == "expected 12 lines, found 6"


def _off_by_one(construction):
    def poisoned(frame, a, b, aux):
        return frame.embed(frame.extract(construction(frame, a, b, aux)) + 1)
    return poisoned


@pytest.mark.parametrize("operation, start", [("add", "add mismatch"),
                                              ("mul", "mul mismatch")])
def test_construction_oracle_failure_names_the_operation(monkeypatch, operation, start):
    name = f"geometric_{operation}"
    monkeypatch.setattr(selftest, name, _off_by_one(getattr(selftest, name)))
    field = RationalField()
    failure = selftest.construction_oracle_failure(field, selftest.random.Random(1), 3)
    assert failure is not None and failure.startswith(start), failure


def test_desargues_failure_names_the_first_config_and_stops(monkeypatch):
    checked = []
    monkeypatch.setattr(selftest, "check_desargues", lambda cfg: checked.append(cfg))
    failure = selftest.desargues_failure(RationalField(), selftest.random.Random(1), 3)
    assert len(checked) == 1 and failure == f"conclusion failed for {checked[0]}"


def test_map_theorem_failure_names_the_failing_report(monkeypatch):
    failing = SimpleNamespace(passed=False, lines=lambda: ["[poisoned]", "detail"])
    monkeypatch.setattr(selftest, "verify_distributive", lambda base, samples: failing)
    failure = selftest.map_theorem_failure(PrimeField(5), selftest.random.Random(1), 3)
    assert failure == "[poisoned]"


def test_round_trip_failure_names_the_expression(monkeypatch):
    monkeypatch.setattr(selftest, "parse_expression", lambda text, field: None)
    failure = selftest.round_trip_failure(selftest.random.Random(1), 3)
    assert failure is not None and failure.startswith("round trip failed: "), failure


class LeftHeavy(PrimeFieldElement):
    """A GF(p) element whose sums, with it on the left, come out one too
    large: addition is no longer associative."""

    __slots__ = ()

    def __add__(self, other):
        return super().__add__(other) + 1


def _field_poison(monkeypatch):
    monkeypatch.setattr(selftest, "_exhaustive_triples",
                        lambda field: [tuple(LeftHeavy(n, 5) for n in (2, 3, 4))])
    return ("skew-field axioms, gfp(5) exhaustive: FAIL "
            "(addition associativity at 2 mod 5, 3 mod 5, 4 mod 5)")


def _plane_poison(monkeypatch):
    monkeypatch.setattr(selftest, "on_line", lambda p, line: False)
    return "affine plane axioms, gfp(2) exhaustive: FAIL (line through "


def _construction_poison(monkeypatch):
    monkeypatch.setattr(selftest, "geometric_mul", _off_by_one(selftest.geometric_mul))
    return "construction oracle, rational: FAIL (mul mismatch: "


def _desargues_poison(monkeypatch):
    monkeypatch.setattr(selftest, "check_desargues", lambda cfg: False)
    return "desargues checker, rational: FAIL (conclusion failed for DesarguesConfig("


def _map_poison(monkeypatch):
    failing = SimpleNamespace(passed=False, lines=lambda: ["[poisoned]"])
    monkeypatch.setattr(selftest, "verify_distributive", lambda base, samples: failing)
    return "cross-ratio map theorems, quaternion: FAIL ([poisoned])"


def _round_trip_poison(monkeypatch):
    monkeypatch.setattr(selftest, "parse_expression", lambda text, field: None)
    return "expression grammar round trip: FAIL (round trip failed: "


@pytest.mark.parametrize("poison, failed", [(_field_poison, 1), (_plane_poison, 2),
                                            (_construction_poison, 3), (_desargues_poison, 3),
                                            (_map_poison, 4), (_round_trip_poison, 1)],
                         ids=["field laws", "plane axioms", "construction oracle",
                              "desargues checker", "map theorems", "round trip"])
def test_cli_selftest_exits_1_naming_the_failing_suite(monkeypatch, capsys, poison, failed):
    line = poison(monkeypatch)
    assert main(["selftest", "--seed", "0", "--count", "5"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    *suites, verdict = out.splitlines()
    assert any(row.startswith(line) for row in suites), out
    assert sum(": FAIL (" in row for row in suites) == failed, out
    assert verdict == f"selftest: FAIL ({17 - failed}/17 suites)"
