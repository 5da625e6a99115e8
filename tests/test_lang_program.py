"""Tests for Program construction and the variable partition."""

import pytest

from repro.impls.seqlock import seqlock_fill
from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread, component_of
from repro.objects.lock import AbstractLock


class TestConstruction:
    def test_raw_commands_wrapped(self):
        p = Program(
            threads={"1": A.Write("x", Lit(1))},
            client_vars={"x": 0},
        )
        assert isinstance(p.threads["1"], Thread)

    def test_tids_sorted(self):
        p = Program(
            threads={"2": A.skip(), "1": A.skip(), "10": A.skip()},
            client_vars={},
        )
        assert p.tids == ("1", "10", "2")

    def test_variable_overlap_rejected(self):
        with pytest.raises(ValueError, match="both components"):
            Program(
                threads={"1": A.skip()},
                client_vars={"x": 0},
                lib_vars={"x": 0},
            )

    def test_duplicate_object_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Program(
                threads={"1": A.skip()},
                objects=(AbstractLock("l"), AbstractLock("l")),
            )

    def test_object_global_clash_rejected(self):
        with pytest.raises(ValueError, match="clash"):
            Program(
                threads={"1": A.skip()},
                client_vars={"l": 0},
                objects=(AbstractLock("l"),),
            )


class TestPartition:
    def test_component_of(self):
        p = Program(
            threads={"1": A.skip()},
            client_vars={"x": 0},
            lib_vars={"glb": 0},
            objects=(AbstractLock("l"),),
        )
        assert component_of(p, "x") == "C"
        assert component_of(p, "glb") == "L"
        assert component_of(p, "l") == "L"
        with pytest.raises(KeyError):
            component_of(p, "nope")

    def test_lib_var_names_include_objects(self):
        p = Program(
            threads={"1": A.skip()},
            lib_vars={"glb": 0},
            objects=(AbstractLock("l"),),
        )
        assert p.lib_var_names == {"glb", "l"}

    def test_lib_registers_from_fills(self):
        body = A.seq(
            seqlock_fill("l", "acquire"),
            A.Write("x", Lit(5)),
            seqlock_fill("l", "release"),
        )
        p = Program(
            threads={"1": body},
            client_vars={"x": 0},
            lib_vars={"glb": 0},
        )
        assert p.lib_registers() == {"_sl_r", "_sl_loc"}


class TestInitials:
    def test_initial_locals(self):
        p = Program(
            threads={"1": A.skip(), "2": A.skip()},
            init_locals={"2": {"rl": 1}},
        )
        assert p.initial_locals_of("2") == {"rl": 1}
        assert p.initial_locals_of("1") == {}

    def test_done_labels(self):
        p = Program(threads={"1": Thread(A.skip(), done_label=5)})
        assert p.done_label_of("1") == 5

    def test_object_map(self):
        lock = AbstractLock("l")
        p = Program(threads={"1": A.skip()}, objects=(lock,))
        assert p.object_map == {"l": lock}


class TestDerivedStructure:
    """Derived structure is computed once per program object and never
    leaves the process (pickles carry the defining fields only)."""

    def _program(self):
        body = A.seq(seqlock_fill("l", "acquire"), A.Write("x", Lit(5)))
        return Program(
            threads={"2": body, "1": A.skip()},
            client_vars={"x": 0},
            lib_vars={"glb": 0},
            objects=(AbstractLock("l2"),),
        )

    def test_computed_once(self):
        p = self._program()
        assert p.lib_registers() is p.lib_registers()
        assert p.tids is p.tids
        assert p.client_var_names is p.client_var_names
        assert p.lib_var_names is p.lib_var_names
        assert p.object_map is p.object_map

    def test_object_map_is_read_only(self):
        p = self._program()
        with pytest.raises(TypeError):
            p.object_map["other"] = AbstractLock("other")
        assert set(p.object_map) == {"l2"}

    def test_pickle_drops_derived_caches(self):
        import dataclasses
        import pickle

        p = self._program()
        fields = {f.name for f in dataclasses.fields(Program)}
        p.lib_registers(), p.tids, p.object_map
        p.client_var_names, p.lib_var_names
        assert set(p.__dict__) > fields
        clone = pickle.loads(pickle.dumps(p))
        assert set(clone.__dict__) == fields
        assert clone.tids == ("1", "2")
        assert clone.lib_registers() == p.lib_registers()
