"""Tests for canonical configuration keys."""

from fractions import Fraction

from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.memory.actions import Op, mk_write
from repro.semantics.canon import canonical_key, client_state_key
from repro.semantics.config import Config, initial_config
from repro.semantics.explore import explore
from repro.semantics.step import transitions
from tests.conftest import mp_relaxed, raw_explore, seqlock_client


def rescale_gamma(cfg: Config, scale: int, shift: int) -> Config:
    """Order-isomorphically relabel all client timestamps."""
    from dataclasses import replace

    from repro.memory.state import ComponentState
    from repro.util.fmap import FMap

    def f(op: Op) -> Op:
        return Op(op.act, op.ts * scale + shift)

    gamma = cfg.gamma
    new = ComponentState(
        ops=frozenset(f(op) for op in gamma.ops),
        tview=FMap({k: f(op) for k, op in gamma.tview.items()}),
        mview=FMap(
            {
                f(op): FMap(
                    {
                        x: (f(o) if _is_client(o) else o)
                        for x, o in view.items()
                    }
                )
                for op, view in gamma.mview.items()
            }
        ),
        cvd=frozenset(f(op) for op in gamma.cvd),
    )
    return Config(cmds=cfg.cmds, locals=cfg.locals, gamma=new, beta=cfg.beta)


def _is_client(op: Op) -> bool:
    return op.act.var in ("d", "f", "x")


class TestCanonicalKey:
    def test_deterministic(self):
        p = mp_relaxed()
        cfg = initial_config(p)
        assert canonical_key(p, cfg) == canonical_key(p, cfg)

    def test_differs_for_different_configs(self):
        p = mp_relaxed()
        cfg = initial_config(p)
        keys = {canonical_key(p, tr.target) for tr in transitions(p, cfg)}
        assert canonical_key(p, cfg) not in keys
        assert len(keys) == len(transitions(p, cfg))

    def test_invariant_under_timestamp_rescaling(self):
        p = mp_relaxed()
        cfg = initial_config(p)
        # Take a few steps to accumulate non-trivial timestamps.
        for _ in range(3):
            cfg = transitions(p, cfg)[0].target
        rescaled = rescale_gamma(cfg, scale=7, shift=3)
        assert canonical_key(p, cfg) == canonical_key(p, rescaled)

    def test_distinguishes_values(self):
        p1 = Program(
            threads={"1": Thread(A.Write("x", Lit(1)))}, client_vars={"x": 0}
        )
        cfg1 = transitions(p1, initial_config(p1))[0].target
        p2 = Program(
            threads={"1": Thread(A.Write("x", Lit(2)))}, client_vars={"x": 0}
        )
        cfg2 = transitions(p2, initial_config(p2))[0].target
        assert canonical_key(p1, cfg1) != canonical_key(p2, cfg2)

    def test_reduces_state_count_vs_raw(self):
        # The ablation: canonicalisation must merge at least as many
        # states as the Config-keyed reference search on a lock client
        # with loops.
        p = seqlock_client()
        canon = explore(p)
        raw = raw_explore(p, max_states=20000)
        assert canon.state_count <= len(raw.configs)


class TestClientStateKey:
    def test_ignores_library_registers(self):
        p = seqlock_client()
        result = explore(p)
        # Find two configs differing only in library-internal registers.
        keys = {}
        for cfg in result.configs.values():
            k = client_state_key(p, cfg)
            keys.setdefault(k, []).append(cfg)
        # Strictly fewer client keys than configs: library states collapse.
        assert len(keys) < result.state_count

    def test_sensitive_to_client_locals(self):
        p = mp_relaxed()
        result = explore(p)
        terminal_keys = {client_state_key(p, t) for t in result.terminals}
        # Four distinct terminal outcomes for (r1, r2).
        assert len(terminal_keys) == 4
