"""Tests for the TIR substrate: buffers, expressions, statements."""

import pytest

from repro.errors import TIRError
from repro.tir.buffer import Buffer
from repro.tir.expr import (
    INTRINSIC_FLOPS,
    BinaryOp,
    BufferLoad,
    Call,
    FloatImm,
    IntImm,
    Var,
    add,
    make_const,
    mul,
)
from repro.tir.stmt import ComputeStmt, ForLoop, LoopKind, SeqStmt, format_stmt, iter_compute_stmts


class TestBuffer:
    def test_basic_properties(self):
        buffer = Buffer("x", (4, 8), dtype="float32")
        assert buffer.ndim == 2
        assert buffer.num_elements == 32
        assert buffer.size_bytes == 128
        assert buffer.dtype_bytes == 4

    def test_int8_dtype_bytes(self):
        assert Buffer("q", (10,), dtype="int8").size_bytes == 10

    def test_with_scope_creates_new_name(self):
        cached = Buffer("weight", (4, 4)).with_scope("shared")
        assert cached.scope == "shared"
        assert cached.name != "weight"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "shape": (2,)},
            {"name": "x", "shape": (0,)},
            {"name": "x", "shape": (2,), "dtype": "float128"},
            {"name": "x", "shape": (2,), "scope": "l3"},
        ],
    )
    def test_invalid_buffers_raise(self, kwargs):
        with pytest.raises(TIRError):
            Buffer(**kwargs)


class TestExpr:
    def test_binary_op_flops(self):
        expr = BinaryOp("+", Var("i"), BinaryOp("*", Var("j"), IntImm(2)))
        assert expr.flops() == 2.0

    def test_invalid_binary_op_raises(self):
        with pytest.raises(TIRError):
            BinaryOp("^", Var("i"), Var("j"))

    def test_call_flops_include_intrinsic_cost(self):
        expr = Call("exp", (Var("x"),))
        assert expr.flops() == INTRINSIC_FLOPS["exp"]

    def test_unknown_intrinsic_raises(self):
        with pytest.raises(TIRError):
            Call("fancy", (Var("x"),))

    def test_buffer_load_collection(self):
        a = Buffer("a", (8, 8))
        b = Buffer("b", (8,))
        expr = mul(BufferLoad(a, (Var("i"), Var("k"))), BufferLoad(b, (Var("k"),)))
        loads = expr.loads()
        assert len(loads) == 2
        assert {load.buffer.name for load in loads} == {"a", "b"}

    def test_free_vars(self):
        expr = add(Var("i"), mul(Var("j"), FloatImm(2.0)))
        assert expr.free_vars() == {"i", "j"}

    def test_make_const_types(self):
        assert isinstance(make_const(3.0), IntImm)
        assert isinstance(make_const(3.5), FloatImm)

    def test_walk_visits_all_nodes(self):
        expr = add(Var("i"), mul(Var("j"), IntImm(2)))
        assert len(list(expr.walk())) == 5


class TestStmt:
    def _compute(self, reduction=False, init=False):
        out = Buffer("out", (4, 4))
        value = BufferLoad(Buffer("inp", (4, 4)), (Var("i"), Var("j")))
        return ComputeStmt(out, (Var("i"), Var("j")), value, is_reduction=reduction, is_init=init)

    def test_compute_stmt_byte_accounting(self):
        stmt = self._compute()
        assert stmt.bytes_read == 4.0
        assert stmt.bytes_written == 4.0
        assert stmt.num_loads == 1

    def test_reduction_adds_accumulate_flop(self):
        assert self._compute(reduction=True).flops == self._compute().flops + 1.0

    def test_init_and_reduction_conflict(self):
        with pytest.raises(TIRError):
            self._compute(reduction=True, init=True)

    def test_for_loop_rejects_bad_extent(self):
        with pytest.raises(TIRError):
            ForLoop(Var("i"), 0, LoopKind.SERIAL, self._compute())

    def test_seq_stmt_requires_children(self):
        with pytest.raises(TIRError):
            SeqStmt([])

    def test_walk_and_iter_compute(self):
        inner = self._compute()
        loop = ForLoop(Var("i"), 4, LoopKind.PARALLEL, SeqStmt([inner, self._compute()]))
        assert len(list(iter_compute_stmts(loop))) == 2
        assert loop in list(loop.walk())

    def test_format_stmt_mentions_annotation(self):
        loop = ForLoop(Var("i"), 4, LoopKind.VECTORIZED, self._compute())
        text = format_stmt(loop)
        assert "vectorized" in text
        assert "range(4)" in text


class TestTaskWorkloadKey:
    def test_computed_once_and_stable(self):
        from repro.ops import dense
        from repro.utils.rng import stable_hash

        task = dense(8, 64, 32, activation="relu", model="key")
        key = task.workload_key
        assert task.workload_key is key  # cached on the instance
        expected = stable_hash(task.op_type, sorted(task.params.items()), task.model, bits=48)
        assert key == f"dense-{expected:012x}"
        twin = dense(8, 64, 32, activation="relu", model="key")
        assert twin == task and twin.workload_key == key
        assert "workload_key" not in repr(task)
