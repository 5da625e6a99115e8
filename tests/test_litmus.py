"""The litmus battery: validates Figure 5 against RC11 RAR verdicts."""

import pytest

from repro.engine import ExplorationEngine
from repro.litmus.catalog import LITMUS_TESTS, run_litmus
from repro.util.errors import VerificationError


@pytest.mark.parametrize("test", LITMUS_TESTS, ids=[t.name for t in LITMUS_TESTS])
class TestLitmus:
    def test_exact_outcome_set(self, test):
        result = run_litmus(test)
        assert result["outcomes"] == set(test.allowed), (
            f"{test.name}: got {sorted(result['outcomes'], key=repr)}, "
            f"expected {sorted(test.allowed, key=repr)}"
        )

    def test_weak_behaviour_verdict(self, test):
        result = run_litmus(test)
        assert result["weak_observed"] == test.weak_allowed


class TestCatalogueShape:
    def test_names_unique(self):
        names = [t.name for t in LITMUS_TESTS]
        assert len(names) == len(set(names))

    def test_covers_key_shapes(self):
        names = {t.name for t in LITMUS_TESTS}
        for required in ("MP-relaxed", "MP-RA", "SB-relaxed", "LB", "CoRR",
                         "IRIW-RA", "CAS-atomicity", "FAI-atomicity"):
            assert required in names

    def test_weak_outcomes_disjoint_from_allowed_when_forbidden(self):
        for t in LITMUS_TESTS:
            if not t.weak_allowed:
                assert not (t.weak & t.allowed), t.name
            else:
                assert t.weak <= t.allowed, t.name


class TestViolationWitness:
    """Failing verdicts embed the violating schedule in the report."""

    def _misjudged(self, name="MP-relaxed"):
        # The same program with a deliberately wrong catalog entry: the
        # weak outcome is real, so judging it forbidden is a "presence"
        # violation — the kind a witness can exhibit.
        from dataclasses import replace

        base = next(t for t in LITMUS_TESTS if t.name == name)
        return replace(
            base,
            weak_allowed=False,
            allowed=frozenset(base.allowed - base.weak),
        )

    def test_passing_verdict_has_no_witness_key(self):
        result = run_litmus(LITMUS_TESTS[0])
        assert result["verdict_ok"]
        assert "witness" not in result

    def test_failing_verdict_embeds_schedule(self):
        result = run_litmus(self._misjudged())
        assert not result["verdict_ok"]
        schedule = result["witness"]
        assert schedule and all(isinstance(s, str) for s in schedule)
        # The schedule is the rendered witness: a JSON-safe line per
        # step, containing the stale read the weak outcome needs.
        assert any("rd(d,0)" in line for line in schedule)

    def test_failing_verdict_witness_through_closure_engine(self):
        from repro.engine import ExplorationEngine

        result = run_litmus(
            self._misjudged("MP-await-relaxed"),
            engine=ExplorationEngine(reduction="closure"),
        )
        assert not result["verdict_ok"]
        # Macro-steps re-expanded: the polling loop's silent steps are
        # present in the concrete schedule.
        assert any("ε" in line for line in result["witness"])


class TestTruncatedVerdict:
    """A verdict never comes from a partial state space, whichever
    engine explores it."""

    MP_RA = next(t for t in LITMUS_TESTS if t.name == "MP-RA")

    def test_truncated_exploration_raises(self):
        with pytest.raises(VerificationError, match="truncated at 3 states"):
            run_litmus(self.MP_RA, max_states=3)

    def test_truncated_run_raises_on_a_supplied_engine(self):
        engine = ExplorationEngine(reduction="closure")
        with pytest.raises(VerificationError, match="MP-RA"):
            run_litmus(self.MP_RA, max_states=3, engine=engine)
