"""Tests for the generic AST walker (:mod:`repro.lang.walk`)."""

import pytest

from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.walk import (
    NodeVisit,
    assigned_register,
    children,
    fold,
    format_path,
    iter_nodes,
    node_exprs,
)


def _mp_body():
    return A.seq(
        A.Write("d", Lit(5)),
        A.Write("f", Lit(1), release=True),
    )


class TestChildren:
    def test_leaves_have_no_children(self):
        for leaf in (
            A.LocalAssign("r", Lit(1)),
            A.Write("x", Lit(1)),
            A.Read("r", "x"),
            A.Cas("r", "x", Lit(0), Lit(1)),
            A.Fai("r", "x"),
            A.MethodCall("s", "push", Lit(1), dest="r"),
        ):
            assert children(leaf) == ()

    def test_seq_children_in_order(self):
        s = _mp_body()
        assert [f for f, _ in children(s)] == ["first", "second"]
        assert children(s)[0][1] is s.first

    def test_if_includes_none_else(self):
        node = A.If(Reg("r").eq(0), A.Write("x", Lit(1)))
        fields = dict(children(node))
        assert fields["else_branch"] is None
        assert isinstance(fields["then_branch"], A.Write)

    def test_unknown_node_raises(self):
        with pytest.raises(TypeError):
            children(object())


class TestNodeExprs:
    def test_expr_carriers(self):
        assert node_exprs(A.LocalAssign("r", Lit(1))) == (Lit(1),)
        assert node_exprs(A.Write("x", Lit(2))) == (Lit(2),)
        cas = A.Cas("r", "x", Lit(0), Lit(1))
        assert node_exprs(cas) == (Lit(0), Lit(1))
        cond = Reg("r").eq(0)
        assert node_exprs(A.While(cond, None)) == (cond,)

    def test_no_expr_nodes(self):
        assert node_exprs(A.Read("r", "x")) == ()
        assert node_exprs(A.Fai("r", "x")) == ()

    def test_method_call_skips_none_arg(self):
        assert node_exprs(A.MethodCall("s", "pop", None, dest="r")) == ()
        assert node_exprs(A.MethodCall("s", "push", Lit(1))) == (Lit(1),)


class TestAssignedRegister:
    def test_assigners(self):
        assert assigned_register(A.LocalAssign("r", Lit(1))) == "r"
        assert assigned_register(A.Read("r", "x")) == "r"
        assert assigned_register(A.Cas("r", "x", Lit(0), Lit(1))) == "r"
        assert assigned_register(A.Fai("r", "x")) == "r"
        assert (
            assigned_register(A.MethodCall("s", "pop", None, dest="r")) == "r"
        )

    def test_non_assigners(self):
        assert assigned_register(A.Write("x", Lit(1))) is None
        assert assigned_register(A.MethodCall("s", "push", Lit(1))) is None
        assert assigned_register(_mp_body()) is None


class TestIterNodes:
    def test_preorder_with_paths(self):
        body = _mp_body()
        visits = list(iter_nodes(body))
        assert [type(v.node).__name__ for v in visits] == [
            "Seq", "Write", "Write",
        ]
        assert visits[0].path == ()
        assert visits[1].path == ("first",)
        assert visits[2].path == ("second",)

    def test_none_yields_nothing(self):
        assert list(iter_nodes(None)) == []

    def test_lib_block_flips_in_lib(self):
        body = A.seq(
            A.Write("c", Lit(1)),
            A.LibBlock(A.Write("l", Lit(1)), public_regs=frozenset()),
        )
        flags = {
            v.node.var: v.in_lib
            for v in iter_nodes(body)
            if isinstance(v.node, A.Write)
        }
        assert flags == {"c": False, "l": True}
        # The LibBlock node itself is visited with the *outer* flag.
        lib_visit = next(
            v for v in iter_nodes(body) if isinstance(v.node, A.LibBlock)
        )
        assert lib_visit.in_lib is False

    def test_visit_is_named_tuple(self):
        (visit,) = iter_nodes(A.Write("x", Lit(1)))
        assert isinstance(visit, NodeVisit)
        assert visit.node == A.Write("x", Lit(1))


class TestFormatPath:
    def test_root(self):
        assert format_path(()) == "<body>"

    def test_joined(self):
        assert format_path(("second", "body")) == "second.body"


class TestFold:
    def test_counts_nodes(self):
        def count(node, in_lib, child_values):
            if node is None:
                return 0
            return 1 + sum(child_values)

        body = A.seq(
            A.Write("x", Lit(1)),
            A.If(Reg("r").eq(0), A.Write("y", Lit(1))),
        )
        # Seq + Write + If + Write (None else contributes 0).
        assert fold(body, count) == 4

    def test_none_command(self):
        assert fold(None, lambda n, lib, cs: "none" if n is None else "x") == (
            "none"
        )

    def test_lib_block_fn_sees_outer_flag(self):
        seen = {}

        def record(node, in_lib, child_values):
            if node is not None:
                seen[type(node).__name__] = in_lib
            return None

        fold(
            A.LibBlock(A.Write("l", Lit(1)), public_regs=frozenset()),
            record,
        )
        assert seen["LibBlock"] is False
        assert seen["Write"] is True
