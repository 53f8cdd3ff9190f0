"""The value records every module returns: immutable, and equal with equal
hashes when their fields are equal."""

import inspect
from fractions import Fraction

import pytest

from depthlab import (
    complexity,
    constructions,
    depth,
    dnc,
    numbering,
    pi01forcing,
    randomness,
    selftest,
    semimeasure,
    toyvm,
)
from depthlab.complexity import (
    ComplexityResult,
    DeficiencyRecord,
    TimeBound,
    deficiency,
)
from depthlab.constructions import BuilderConfig, BuilderRound
from depthlab.depth import DepthProfile, ProfileRow
from depthlab.dnc import JoinReport
from depthlab.pi01forcing import ForcingStep, Functional
from depthlab.randomness import PsiResult, StagedSupermartingale
from depthlab.semimeasure import CodingGap, coding_gap
from depthlab.toyvm import Outcome, Program, gamma_encode, run
from test_acceptance import LiftedCode, Reduction, identity_reduction


def _extensions(sigma, l, stage):
    return [(1 << l, 1)]


def _profile():
    return DepthProfile("01", (ProfileRow(1, 2, 2, 0), ProfileRow(2, None, 3, 14)),
                        {"t": "poly:2,2", "stage": 100})


# Each entry builds one record from scratch, so two calls give equal
# fields in distinct objects.  A record holding a dict is not hashable.
RECORDS = {
    Program: lambda: Program.decode(gamma_encode(5) + "0110"),
    Outcome: lambda: run(Program.encode("0001"), None, 10),
    TimeBound: lambda: TimeBound.parse("poly:3,2"),
    ComplexityResult: lambda: ComplexityResult(5, Program.encode("0110")),
    Reduction: identity_reduction,
    LiftedCode: lambda: LiftedCode(Program.encode("0001"), identity_reduction()),
    CodingGap: lambda: coding_gap("0", 100, 8),
    StagedSupermartingale: lambda: StagedSupermartingale(_extensions, 8, "flat"),
    DeficiencyRecord: lambda: deficiency("01", 100, 8),
    PsiResult: lambda: PsiResult(Fraction(1, 3), 2, {"stage": 100}),
    BuilderConfig: lambda: BuilderConfig(
        rounds=2, martingale=StagedSupermartingale(_extensions, 8, "flat"),
        oracle=None, dominating=TimeBound.poly(2, 2)),
    BuilderRound: lambda: BuilderRound(1, "011", 3, 5, "011", Fraction(3, 2), None, False, 2),
    ProfileRow: lambda: ProfileRow(1, 2, 2, 0),
    DepthProfile: _profile,
    Functional: lambda: Functional.projection([4, 5]),
    ForcingStep: lambda: ForcingStep(0, "1", 7, ("INC R1",), None, 1, 9, ("HALT",), None,
                                     11, 0, 8, 4),
    JoinReport: lambda: JoinReport(True, True, False, True, None, 1, 5),
}
UNHASHABLE = {PsiResult, DepthProfile}


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_an_immutable_value(record):
    a, b = RECORDS[record](), RECORDS[record]()
    assert type(a) is record and a is not b
    assert a == b
    if record in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in record.__annotations__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert a == b


def test_equal_fields_from_different_constructors_are_equal():
    assert TimeBound.parse("poly:3,2") == TimeBound.poly(3, 2)
    assert hash(TimeBound.parse("poly:3,2")) == hash(TimeBound.poly(3, 2))
    assert Program.decode(gamma_encode(5) + "0110") == Program.encode("0110")
    assert TimeBound.poly(3, 2) != TimeBound.poly(2, 3)


def test_every_record_of_the_package_is_covered():
    """A value record added to a module is added to RECORDS too.  RECORDS
    also holds the code-lifting records, which live in the tests."""
    found = {cls for mod in (toyvm, numbering, complexity, semimeasure, randomness,
                             constructions, depth, dnc, pi01forcing, selftest)
             for _name, cls in inspect.getmembers(mod, inspect.isclass)
             if cls.__module__ == mod.__name__ and issubclass(cls, tuple)
             and hasattr(cls, "_fields")}
    assert found == {cls for cls in RECORDS if cls.__module__.startswith("depthlab.")}
    assert {Reduction, LiftedCode} == set(RECORDS) - found
