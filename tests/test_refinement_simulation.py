"""Tests for the forward-simulation game solver (Definition 8)."""

import pytest

from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.litmus.clients import lock_client
from repro.refinement.simulation import find_forward_simulation
from repro.refinement.traces import client_graph
from repro.toolkit import verify_lock_implementation
from repro.util.errors import VerificationError
from tests.conftest import (
    abstract_lock_client,
    seqlock_client,
    spinlock_client,
    ticketlock_client,
)


class TestPropositions:
    def test_prop9_seqlock(self):
        """Proposition 9: forward simulation between the abstract lock
        and the sequence lock."""
        result = find_forward_simulation(seqlock_client(), abstract_lock_client())
        assert result.found
        assert result.relation_size > 0

    def test_prop10_ticketlock(self):
        """Proposition 10: forward simulation between the abstract lock
        and the ticket lock."""
        result = find_forward_simulation(
            ticketlock_client(), abstract_lock_client()
        )
        assert result.found

    def test_extension_spinlock(self):
        result = find_forward_simulation(
            spinlock_client(), abstract_lock_client()
        )
        assert result.found

    def test_relation_covers_concrete_reachability(self):
        result = find_forward_simulation(seqlock_client(), abstract_lock_client())
        # Every concrete state appears in some related pair (the game
        # explored all of them and none was dropped).
        assert result.relation_size >= result.concrete_states

    def test_writer_writer_client(self):
        result = find_forward_simulation(
            seqlock_client(readers=False), abstract_lock_client(readers=False)
        )
        assert result.found


def relaxed_release_fill(obj, method, dest=None):
    if method == "acquire":
        return A.LibBlock(
            A.do_until(A.Cas("_b", "lk", Lit(0), Lit(1)), Reg("_b"))
        )
    return A.LibBlock(A.Write("lk", Lit(0)))  # BUG: relaxed write


def no_mutex_fill(obj, method, dest=None):
    if method == "acquire":
        # BUG: reads the lock instead of CASing it — no exclusion.
        return A.LibBlock(A.Read("_b", "lk", acquire=True))
    return A.LibBlock(A.Write("lk", Lit(0), release=True))


class TestNegativeCases:
    def _broken_relaxed_release(self):
        return lock_client(relaxed_release_fill, lib_vars={"lk": 0})

    def _broken_no_mutex(self):
        return lock_client(no_mutex_fill, lib_vars={"lk": 0})

    def test_relaxed_release_rejected(self):
        result = find_forward_simulation(
            self._broken_relaxed_release(), abstract_lock_client()
        )
        assert not result.found
        assert result.relation_size == 0

    def test_missing_mutex_rejected(self):
        result = find_forward_simulation(
            self._broken_no_mutex(), abstract_lock_client()
        )
        assert not result.found

    @pytest.mark.parametrize(
        "broken", ["_broken_relaxed_release", "_broken_no_mutex"]
    )
    def test_failure_is_an_unmatched_concrete_step(self, broken):
        # The failure is where the game first meets a concrete step that
        # no abstract stutter or step matches: past the initial
        # configuration on both controls, whose initial pairs agree.
        conc = client_graph(getattr(self, broken)())
        result = find_forward_simulation(conc, abstract_lock_client())
        assert not result.found
        assert result.failure in conc.result.configs
        assert result.failure != conc.result.initial_key
        assert conc.result.edges.get(result.failure)

    @pytest.mark.parametrize(
        "fill, line",
        [
            (
                relaxed_release_fill,
                "  reader-client: simulation NOT FOUND, fails at pcs "
                "1:done 2:1",
            ),
            (
                no_mutex_fill,
                "  reader-client: simulation NOT FOUND, fails at pcs 1:2 2:1",
            ),
        ],
        ids=["relaxed_release", "no_mutex"],
    )
    def test_report_names_the_failing_pcs(self, fill, line):
        # The report prints the per-thread pcs of the failing concrete
        # configuration, read from the concrete client graph.
        report = verify_lock_implementation(
            fill,
            {"lk": 0},
            battery=[("reader-client", lock_client, {})],
            check_traces=False,
        )
        assert report.describe() == (
            f"refinement report for {fill.__name__}: FAIL\n{line}"
        )

    def test_truncation_raises(self):
        with pytest.raises(VerificationError):
            find_forward_simulation(
                seqlock_client(), abstract_lock_client(), max_states=5
            )


class TestGameMechanics:
    def test_statistics_populated(self):
        result = find_forward_simulation(
            ticketlock_client(), abstract_lock_client()
        )
        assert result.abstract_states > 0
        assert result.concrete_states > result.abstract_states
        assert result.product_pairs >= result.relation_size
        assert result.iterations >= 1

    def test_self_simulation(self):
        p = abstract_lock_client()
        result = find_forward_simulation(p, p)
        assert result.found
