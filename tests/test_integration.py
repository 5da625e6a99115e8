"""Cross-cutting integration tests.

The centrepiece is the Theorem 8.1 cross-validation: whenever the
simulation game finds a forward simulation, direct trace checking must
confirm contextual refinement — and when the game fails, on our broken
implementations, trace checking must fail too (the converse is not
implied by the theorem but holds on these examples).
"""

import pytest

from repro.impls.counter_fai import FAICOUNTER_VARS, counter_fill
from repro.impls.seqlock import SEQLOCK_VARS, seqlock_fill
from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
from repro.impls.ticketlock import TICKETLOCK_VARS, ticketlock_fill
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.litmus.clients import abstract_fill, lock_client
from repro.objects.counter import AbstractCounter
from repro.objects.lock import AbstractLock
from repro.refinement.simulation import find_forward_simulation
from repro.refinement.tracecheck import check_program_refinement


def abstract(client_builder, **kw):
    fill, objs = abstract_fill(lambda: AbstractLock("l"))
    return client_builder(fill, objects=objs, **kw)


LOCK_IMPLS = [
    ("seqlock", seqlock_fill, SEQLOCK_VARS),
    ("ticketlock", ticketlock_fill, TICKETLOCK_VARS),
    ("spinlock", spinlock_fill, SPINLOCK_VARS),
]


class TestTheorem81:
    """Simulation found ⇒ trace refinement holds (soundness)."""

    @pytest.mark.parametrize(
        "name,fill,lib_vars", LOCK_IMPLS, ids=[i[0] for i in LOCK_IMPLS]
    )
    @pytest.mark.parametrize("readers", [True, False], ids=["rw", "ww"])
    def test_simulation_implies_trace_refinement(
        self, name, fill, lib_vars, readers
    ):
        conc = lock_client(fill, lib_vars=dict(lib_vars), readers=readers)
        abst = abstract(lock_client, readers=readers)
        sim = find_forward_simulation(conc, abst)
        ref = check_program_refinement(conc, abst)
        assert sim.found
        assert ref.refines  # Theorem 8.1's conclusion, checked directly

    def test_broken_lock_fails_both(self):
        def fill(obj, method, dest=None):
            if method == "acquire":
                return A.LibBlock(
                    A.do_until(A.Cas("_b", "lk", Lit(0), Lit(1)), Reg("_b"))
                )
            return A.LibBlock(A.Write("lk", Lit(0)))  # relaxed: broken

        conc = lock_client(fill, lib_vars={"lk": 0})
        abst = abstract(lock_client)
        assert not find_forward_simulation(conc, abst).found
        assert not check_program_refinement(conc, abst).refines


class TestCounterRefinement:
    """Extension: the FAI counter refines the abstract counter."""

    def _clients(self):
        def client(fill, objects=(), lib_vars=None):
            t1 = A.seq(
                A.Labeled(1, A.Write("x", Lit(5))),
                A.Labeled(2, fill("c", "inc", "a")),
            )
            t2 = A.seq(
                A.Labeled(1, fill("c", "inc", "b")),
                A.Labeled(2, A.Read("r", "x")),
            )
            return Program(
                threads={"1": Thread(t1, done_label=3), "2": Thread(t2, done_label=3)},
                client_vars={"x": 0},
                lib_vars=dict(lib_vars or {}),
                objects=tuple(objects),
            )

        def abstract_counter_fill(obj, method, dest=None):
            return A.MethodCall(obj, method, dest=dest)

        conc = client(counter_fill, lib_vars=FAICOUNTER_VARS)
        abst = client(abstract_counter_fill, objects=(AbstractCounter("c"),))
        return conc, abst

    def test_simulation(self):
        conc, abst = self._clients()
        assert find_forward_simulation(conc, abst).found

    def test_trace_refinement(self):
        conc, abst = self._clients()
        assert check_program_refinement(conc, abst).refines

    def test_same_outcomes(self):
        from repro.semantics.explore import explore

        conc, abst = self._clients()
        regs = (("1", "a"), ("2", "b"), ("2", "r"))
        assert explore(conc).terminal_locals(*regs) == explore(
            abst
        ).terminal_locals(*regs)


class TestClientBattery:
    """Refinement must hold across a diverse client battery, not just the
    Figure 7 shape (Definition 7 quantifies over all clients)."""

    def _battery(self, fill, lib_vars, afill, aobjs):
        def three(fill_fn, **kw):
            from repro.litmus.clients import lock_client_three_threads

            return lock_client_three_threads(fill_fn, **kw)

        def one_sided(fill_fn, **kw):
            from repro.litmus.clients import lock_client_one_sided

            return lock_client_one_sided(fill_fn, **kw)

        return [
            (
                lock_client(fill, lib_vars=dict(lib_vars)),
                lock_client(afill, objects=aobjs),
            ),
            (
                lock_client(fill, lib_vars=dict(lib_vars), readers=False),
                lock_client(afill, objects=aobjs, readers=False),
            ),
            (
                one_sided(fill, lib_vars=dict(lib_vars)),
                one_sided(afill, objects=aobjs),
            ),
        ]

    @pytest.mark.parametrize(
        "name,fill,lib_vars", LOCK_IMPLS, ids=[i[0] for i in LOCK_IMPLS]
    )
    def test_battery(self, name, fill, lib_vars):
        afill, aobjs = abstract_fill(lambda: AbstractLock("l"))
        for conc, abst in self._battery(fill, lib_vars, afill, aobjs):
            sim = find_forward_simulation(conc, abst)
            assert sim.found, f"{name} failed on a battery client"
