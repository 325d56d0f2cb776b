"""AST node / CType structural tests."""

import functools

import pytest

from repro.analysis.common import LoopPath, loop_path
from repro.apps import get_app
from repro.apps.registry import ALL_APPS
from repro.meta.ast_api import Ast
from repro.meta.ast_nodes import (
    BinaryOp, Cast, CType, ExprStmt, FloatLit, ForStmt, FunctionDecl, Ident,
    Index, IntLit, Node, set_parents,
)
from repro.meta.unparse import unparse
from tests.lang.kernelgen import generate

SOURCE = """
void knl(double* out, const double* x, int n) {
    for (int i = 0; i < n; i++) {
        double s = 0.0;
        for (int j = 0; j < 4; j++) {
            s += x[i * 4 + j];
        }
        out[i] = s;
    }
}

int main() {
    return 0;
}
"""


@pytest.fixture
def ast():
    return Ast(SOURCE)


class TestCType:
    def test_str(self):
        assert str(CType("double", 1, const=True)) == "const double*"

    def test_sizeof(self):
        assert CType("double").sizeof() == 8
        assert CType("float").sizeof() == 4
        assert CType("int").sizeof() == 4
        assert CType("int", 1).sizeof() == 8  # pointer

    def test_element_type(self):
        assert CType("float", 2).element_type() == CType("float", 1)
        with pytest.raises(ValueError):
            CType("float").element_type()

    def test_classification(self):
        assert CType("double").is_floating
        assert not CType("double", 1).is_floating
        assert CType("int").is_integral
        assert CType("int", 1).is_pointer

    def test_equality_ignores_const(self):
        assert CType("int", 0, const=True) == CType("int")

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError):
            CType("short")


class TestNavigation:
    def test_walk_visits_all_loops(self, ast):
        loops = [n for n in ast.unit.walk() if isinstance(n, ForStmt)]
        assert len(loops) == 2

    def test_encloses(self, ast):
        fn = ast.function("knl")
        outer, inner = fn.loops()
        assert fn.encloses(outer)
        assert outer.encloses(inner)
        assert not inner.encloses(outer)
        assert not outer.encloses(outer)  # strict

    def test_is_outermost(self, ast):
        outer, inner = ast.function("knl").loops()
        assert outer.is_outermost
        assert not inner.is_outermost

    def test_loop_depth(self, ast):
        outer, inner = ast.function("knl").loops()
        assert outer.depth() == 0
        assert inner.depth() == 1

    def test_loop_var(self, ast):
        outer, inner = ast.function("knl").loops()
        assert outer.loop_var() == "i"
        assert inner.loop_var() == "j"

    def test_enclosing(self, ast):
        _, inner = ast.function("knl").loops()
        assert inner.enclosing(FunctionDecl).name == "knl"

    def test_ancestors_order(self, ast):
        _, inner = ast.function("knl").loops()
        chain = list(inner.ancestors())
        assert isinstance(chain[-1], type(ast.unit))

    def test_outermost_loops_helper(self, ast):
        assert len(ast.function("knl").outermost_loops()) == 1


class TestMutation:
    def test_clone_is_deep_and_reparented(self, ast):
        dup = ast.clone()
        assert dup.source == ast.source
        original_ids = {n.node_id for n in ast.unit.walk()}
        clone_ids = {n.node_id for n in dup.unit.walk()}
        assert original_ids.isdisjoint(clone_ids)
        for node in dup.unit.walk():
            for child in node.children():
                assert child.parent is node

    def test_clone_mutation_isolated(self, ast):
        dup = ast.clone()
        dup.function("knl").name = "other"
        assert ast.has_function("knl")
        assert not ast.has_function("other")

    def test_clone_copies_nodes_inside_containers(self):
        # no current node type keeps child nodes in tuples/dicts/nested
        # lists, but clone() must not silently alias them if one ever
        # does (copy.deepcopy, which clone() replaced, handled any shape)
        root = IntLit(1)
        held = IntLit(2)
        root.extras = (held, {"k": held}, [[held]])
        dup = root.clone()
        in_tuple, mapping, nested = dup.extras
        for copied in (in_tuple, mapping["k"], nested[0][0]):
            assert isinstance(copied, IntLit)
            assert copied.value == 2
            assert copied is not held
            assert copied.node_id != held.node_id

    def test_replace_child(self, ast):
        fn = ast.function("knl")
        outer = fn.loops()[0]
        cond = outer.cond
        new = IntLit(1)
        outer.replace_child(cond, new)
        assert outer.cond is new
        assert new.parent is outer

    def test_replace_child_missing_raises(self, ast):
        fn = ast.function("knl")
        with pytest.raises(ValueError):
            fn.replace_child(IntLit(5), IntLit(6))


# -------------------------------------------------------------------------
# Traversal equivalence: the iterative walk / set_parents / clone /
# outermost_loops / loop_path against the recursive definitions they
# replaced, kept here as the reference.
# -------------------------------------------------------------------------
def _ref_children(node):
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item


def _ref_walk(node):
    yield node
    for child in _ref_children(node):
        yield from _ref_walk(child)


def _ref_set_parents(root, parent=None):
    root.parent = parent
    for child in _ref_children(root):
        _ref_set_parents(child, root)


def _ref_loops(fn):
    if fn.body is None:
        return []
    return [n for n in _ref_walk(fn.body) if isinstance(n, ForStmt)]


PRAGMA_SOURCE = """
void knl(double* a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        #pragma unroll 2
        for (int j = 0; j < 2; j++) {
            a[i] += j;
        }
    }
    for (int k = 0; k < n; k++) {
        a[k] = a[k] * 2.0;
    }
}

int main() {
    return 0;
}
"""

#: the five apps, a pragma-carrying kernel and 100 generated kernels
CORPUS = ([f"app:{name}" for name in sorted(ALL_APPS)] + ["pragmas"]
          + [f"kernel:{seed}" for seed in range(100)])


@functools.lru_cache(maxsize=None)
def _corpus_source(name):
    if name == "pragmas":
        return PRAGMA_SOURCE
    kind, key = name.split(":")
    return get_app(key).source if kind == "app" else generate(int(key)).source


def _corpus_unit(name):
    return Ast(_corpus_source(name)).unit


def _ids(nodes):
    return [id(node) for node in nodes]


def _parent_shape(root):
    """Pre-order position of every node's parent (-1 for the root)."""
    position = {id(node): i for i, node in enumerate(_ref_walk(root))}
    return [position.get(id(node.parent), -1) for node in _ref_walk(root)]


@pytest.mark.parametrize("name", CORPUS)
class TestTraversalEquivalence:
    def test_walk_and_descendants_order(self, name):
        unit = _corpus_unit(name)
        for root in [unit] + unit.functions():
            assert _ids(root.walk()) == _ids(_ref_walk(root))
            assert _ids(root.descendants()) == _ids(_ref_walk(root))[1:]
            assert _ids(root.children()) == _ids(_ref_children(root))

    def test_set_parents(self, name):
        unit = _corpus_unit(name)
        _ref_set_parents(unit)
        expected = [id(node.parent) for node in _ref_walk(unit)]
        pragmas = [p for node in _ref_walk(unit)
                   for p in getattr(node, "pragmas", [])]
        for node in _ref_walk(unit):
            node.parent = None
        assert set_parents(unit) is unit
        assert [id(node.parent) for node in _ref_walk(unit)] == expected
        # only ``_fields`` children get a parent; pragmas are not among them
        assert all(pragma.parent is None for pragma in pragmas)

    def test_clone(self, name):
        unit = _corpus_unit(name)
        dup = unit.clone()
        assert unparse(dup) == unparse(unit)
        original_ids = {node.node_id for node in _ref_walk(unit)}
        clone_ids = [node.node_id for node in _ref_walk(dup)]
        assert len(set(clone_ids)) == len(clone_ids)
        assert original_ids.isdisjoint(clone_ids)
        assert _parent_shape(dup) == _parent_shape(unit)
        assert not set(_ids(_ref_walk(dup))) & set(_ids(_ref_walk(unit)))

    def test_loops_outermost_and_paths(self, name):
        unit = _corpus_unit(name)
        for fn in unit.functions():
            loops = _ref_loops(fn)
            assert _ids(fn.loops()) == _ids(loops)
            assert _ids(fn.outermost_loops()) == _ids(
                [loop for loop in loops if loop.is_outermost])
            for index, loop in enumerate(loops):
                assert loop_path(loop) == LoopPath(fn.name, index)


def test_corpus_has_loop_nests_and_pragmas():
    units = [_corpus_unit(name) for name in CORPUS]
    nested = sum(1 for unit in units for fn in unit.functions()
                 if len(fn.outermost_loops()) < len(fn.loops()))
    assert nested >= 20
    pragmas = _corpus_unit("pragmas").function("knl").loops()[0].pragmas
    assert [p.text for p in pragmas] == ["omp parallel for"]


class TestWalkLaziness:
    """The contract in :meth:`Node.walk`'s docstring."""

    def test_attribute_rewrites_during_iteration(self, ast):
        before = _ids(ast.unit.walk())
        seen = []
        for node in ast.unit.walk():
            seen.append(id(node))
            if isinstance(node, FloatLit):
                node.suffix = "f"  # as employ_sp_literals does
            elif isinstance(node, Ident):
                node.name = node.name + "_r"
        assert seen == before
        assert "s_r" in unparse(ast.unit)

    def test_replacing_a_field_of_the_yielded_node_is_seen(self):
        old = Ident("old")
        stmt = ExprStmt(BinaryOp("+", old, IntLit(1)))
        new = Cast(CType("float"), Ident("new"))
        seen = []
        for node in stmt.walk():
            seen.append(node)
            if isinstance(node, BinaryOp):
                node.replace_child(old, new)
        assert old not in seen
        assert [type(n).__name__ for n in seen] == [
            "ExprStmt", "BinaryOp", "Cast", "Ident", "IntLit"]
        assert seen[3].name == "new"

    def test_structural_edits_elsewhere_iterate_a_snapshot(self, ast):
        # as cast_double_loads does: wrap every load while walking a
        # list taken before the first edit
        fn = ast.function("knl")
        loads = [n for n in fn.walk() if isinstance(n, Index)]
        for node in list(fn.walk()):
            if isinstance(node, Index):
                cast = Cast(CType("float"), node)
                node.parent.replace_child(node, cast)
                set_parents(cast, cast.parent)
        casts = [n for n in fn.walk() if isinstance(n, Cast)]
        assert _ids(c.expr for c in casts) == _ids(loads)


class TestDeepTrees:
    """Traversal keeps an explicit stack, so depth is unbounded.

    The parser, :func:`repro.meta.unparse.unparse`,
    :class:`~repro.meta.ast_nodes.NodeVisitor` and the interpreter stay
    recursive; they are out of scope here, so this tree is built
    programmatically and never printed or run.
    """

    DEPTH = 5000

    def _chain(self):
        expr = Ident("x")
        for i in range(self.DEPTH):
            expr = BinaryOp("+", expr, IntLit(i))
        return expr

    def _assert_linked(self, root):
        node = root
        while isinstance(node, BinaryOp):
            assert node.lhs.parent is node
            assert node.rhs.parent is node
            node = node.lhs
        assert isinstance(node, Ident)

    def test_walk_and_descendants(self):
        root = self._chain()
        nodes = list(root.walk())
        assert len(nodes) == 2 * self.DEPTH + 1
        assert nodes[0] is root
        assert isinstance(nodes[self.DEPTH], Ident)  # the deepest lhs
        assert sum(1 for _ in root.descendants()) == 2 * self.DEPTH

    def test_set_parents(self):
        root = self._chain()
        set_parents(root)
        assert root.parent is None
        self._assert_linked(root)

    def test_clone(self):
        root = set_parents(self._chain())
        dup = root.clone()
        assert dup.parent is None
        nodes = list(dup.walk())
        assert len(nodes) == 2 * self.DEPTH + 1
        assert {n.node_id for n in nodes}.isdisjoint(
            n.node_id for n in root.walk())
        self._assert_linked(dup)
        assert [n.value for n in nodes if isinstance(n, IntLit)] == \
            [n.value for n in root.walk() if isinstance(n, IntLit)]
