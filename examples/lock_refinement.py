#!/usr/bin/env python3
"""One abstract lock, three implementations (paper Sections 4–6).

The same client template is instantiated with the abstract lock
specification (Figure 6) and with three concrete implementations —
the paper's sequence lock (§6.2) and ticket lock (§6.3), plus a
test-and-set spinlock.  For each implementation the example

1. explores the client once (``client_graph``) and shows it produces
   the same outcomes;
2. solves the forward-simulation game of Definition 8 (Propositions
   9 and 10 and the spinlock analogue);
3. confirms contextual refinement directly by trace inclusion
   (Definitions 5–7) — the Theorem 8.1 cross-check;
4. shows what goes wrong for a deliberately broken lock whose release
   write is relaxed.

Steps 2 and 3 read the graphs explored in step 1: each program is
explored once.

Run:  python examples/lock_refinement.py
"""

from repro import (
    AbstractLock,
    Lit,
    Reg,
    ast as A,
    check_program_refinement,
    client_graph,
    find_forward_simulation,
)
from repro.impls.seqlock import SEQLOCK_VARS, seqlock_fill
from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
from repro.impls.ticketlock import TICKETLOCK_VARS, ticketlock_fill
from repro.litmus.clients import abstract_fill, lock_client


def broken_fill(obj, method, dest=None):
    """A spinlock whose release is a *relaxed* write: mutual exclusion
    still holds, but the critical section is not published."""
    if method == "acquire":
        return A.LibBlock(
            A.do_until(A.Cas("_b", "lk", Lit(0), Lit(1)), Reg("_b"))
        )
    return A.LibBlock(A.Write("lk", Lit(0)))  # missing release annotation


def main() -> None:
    afill, aobjs = abstract_fill(lambda: AbstractLock("l"))
    abstract = client_graph(lock_client(afill, objects=aobjs))
    abs_result = abstract.result
    regs = (("2", "a"), ("2", "b"))
    print("abstract lock client (Figure 7 shape)")
    print(f"  states  : {abs_result.state_count}")
    print(f"  outcomes: {sorted(abs_result.terminal_locals(*regs))}\n")

    implementations = [
        ("sequence lock (§6.2, Prop. 9)", seqlock_fill, SEQLOCK_VARS),
        ("ticket lock   (§6.3, Prop. 10)", ticketlock_fill, TICKETLOCK_VARS),
        ("spinlock      (extension)", spinlock_fill, SPINLOCK_VARS),
        ("BROKEN lock   (relaxed release)", broken_fill, {"lk": 0}),
    ]

    for name, fill, lib_vars in implementations:
        concrete = client_graph(lock_client(fill, lib_vars=dict(lib_vars)))
        conc_result = concrete.result
        sim = find_forward_simulation(concrete, abstract)
        ref = check_program_refinement(concrete, abstract)
        print(name)
        print(
            f"  states {conc_result.state_count:4d}   "
            f"outcomes {sorted(conc_result.terminal_locals(*regs))}"
        )
        print(
            f"  forward simulation: {'found, |R| = ' + str(sim.relation_size) if sim.found else 'NONE'}"
        )
        print(f"  trace refinement  : {ref.refines}")
        if not ref.refines:
            print(
                f"  -> {len(ref.unmatched)} concrete traces have no abstract"
                " match: the client can observe stale data the abstract"
                " lock never exposes"
            )
        print()


if __name__ == "__main__":
    main()
