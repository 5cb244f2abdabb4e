"""Zoo regression tests: every specimen's recorded verdicts hold against
the oracle, every registered sound checker, and (where asserted) the
exact view-serializability decision procedure."""

import pytest

from repro import check, conflict_serializable, is_well_formed
from repro.analysis.view_serializability import view_serializable
from repro.sim import trace_zoo

#: The sound conflict-serializability checkers (atomizer is registered
#: but deliberately incomparable, so it is excluded here).
SOUND_ALGORITHMS = [
    "aerodrome",
    "aerodrome-basic",
    "aerodrome-sharded",
    "velodrome",
    "velodrome-nogc",
    "velodrome-pk",
    "doublechecker",
]

SPECIMENS = trace_zoo.all_specimens()


def test_zoo_is_nonempty_and_unique():
    assert len(SPECIMENS) >= 15
    assert len({s.name for s in SPECIMENS}) == len(SPECIMENS)


def test_names_and_get_agree():
    for name in trace_zoo.names():
        assert trace_zoo.get(name).name == name


def test_get_unknown_raises_with_listing():
    with pytest.raises(KeyError, match="paper-rho1"):
        trace_zoo.get("no-such-specimen")


@pytest.mark.parametrize("specimen", SPECIMENS, ids=lambda s: s.name)
def test_specimen_is_well_formed(specimen):
    assert is_well_formed(specimen.trace())


@pytest.mark.parametrize("specimen", SPECIMENS, ids=lambda s: s.name)
def test_oracle_verdict(specimen):
    assert conflict_serializable(specimen.trace()) == (
        specimen.conflict_serializable
    )


@pytest.mark.parametrize("specimen", SPECIMENS, ids=lambda s: s.name)
@pytest.mark.parametrize("algorithm", SOUND_ALGORITHMS)
def test_checker_verdicts(specimen, algorithm):
    result = check(specimen.trace(), algorithm=algorithm)
    assert result.serializable == specimen.conflict_serializable


@pytest.mark.parametrize(
    "specimen",
    [s for s in SPECIMENS if s.view_serializable is not None],
    ids=lambda s: s.name,
)
def test_view_verdicts(specimen):
    assert view_serializable(specimen.trace()) == specimen.view_serializable


def test_view_conflict_containment_in_zoo():
    # conflict serializable => view serializable, on every specimen
    # where both verdicts are recorded.
    for specimen in SPECIMENS:
        if specimen.conflict_serializable and specimen.view_serializable is not None:
            assert specimen.view_serializable, specimen.name


def test_traces_are_fresh_copies():
    specimen = trace_zoo.get("paper-rho2")
    a, b = specimen.trace(), specimen.trace()
    assert a is not b
    assert list(a) == list(b)
    assert a.name == "paper-rho2"
