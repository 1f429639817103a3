"""Tests for the structural rewrite utilities (split, phi upkeep, inlining)."""

import pytest

from repro.interp import execute
from repro.ir import IntType, ModuleBuilder, VoidType, validate
from repro.ir import types as tys
from repro.ir.module import IrError
from repro.ir.opcodes import Op
from repro.ir.rewrite import (
    InlinePlan,
    callee_ids_requiring_fresh,
    inline_call,
    make_inline_plan,
    remove_phi_predecessor,
    replace_value_uses,
    rewrite_phi_predecessor,
    split_block,
)


class TestReplaceValueUses:
    def test_replaces_operands(self, straightline_module):
        m = straightline_module
        fn = m.entry_function()
        add = next(i for i in fn.entry_block().instructions if i.opcode is Op.IAdd)
        old = int(add.operands[0])
        new_const = ModuleBuilder.wrap(m).int_const(77)
        count = replace_value_uses(m, old, new_const)
        assert count >= 1
        assert int(add.operands[0]) == new_const

    def test_phi_value_slots_replaced(self, branching_module):
        m = branching_module
        fn = m.entry_function()
        phi = fn.blocks[-1].phis()[0]
        old = int(phi.operands[0])
        new_const = ModuleBuilder.wrap(m).int_const(5)
        replace_value_uses(m, old, new_const)
        assert int(phi.operands[0]) == new_const

    def test_phi_pred_slots_untouched(self, branching_module):
        m = branching_module
        fn = m.entry_function()
        phi = fn.blocks[-1].phis()[0]
        pred = int(phi.operands[1])
        replace_value_uses(m, pred, 123456)
        assert int(phi.operands[1]) == pred

    # The fast reject (``old_id in inst.operands``) also lets through
    # literals that merely compare equal to the id; the slot walk must still
    # leave them alone.

    def test_literal_equal_to_old_id_untouched(self, straightline_module):
        m = straightline_module
        builder = ModuleBuilder.wrap(m)
        add = next(
            i for i in m.entry_function().entry_block().instructions if i.opcode is Op.IAdd
        )
        old = int(add.operands[0])
        int_lit = m.get_instruction(builder.int_const(old))
        float_lit = m.get_instruction(builder.float_const(float(old)))
        new = builder.int_const(77)
        assert replace_value_uses(m, old, new) == 1
        assert int(add.operands[0]) == new
        assert int_lit.operands == [old]
        assert float_lit.operands == [float(old)]

    def test_phi_label_slot_untouched_value_slot_rewritten(self, branching_module):
        fn = branching_module.entry_function()
        phi = fn.blocks[-1].phis()[0]
        # The same (otherwise unused) number in a predecessor slot and a
        # value slot of one phi.
        old = branching_module.fresh_id()
        phi.operands[1] = phi.operands[2] = old
        assert replace_value_uses(branching_module, old, 999) == 1
        assert phi.operands[1:3] == [old, 999]

    def test_count_on_repeated_uses(self):
        """One per non-phi instruction however many of its slots match, one
        per matching phi value slot, globals included."""
        b = ModuleBuilder()
        out = b.output("out", IntType())
        uk = b.uniform("k", IntType())
        c = b.int_const(3)
        b.int_const(c)  # an OpConstant whose literal is c's id
        vec = b.composite_const(tys.VectorType(tys.IntType(), 2), [c, c])
        f = b.function("main", VoidType())
        entry, left, right, join = f.block(), f.block(), f.block(), f.block()
        k = entry.load(IntType(), uk)
        doubled = entry.iadd(c, c)
        entry.branch_cond(entry.slt(k, c), left.label_id, right.label_id)
        left.branch(join.label_id)
        right.branch(join.label_id)
        merged = join.phi(IntType(), [(c, left.label_id), (c, right.label_id)])
        join.store(out, join.iadd(merged, doubled))
        join.ret()
        b.entry_point(f.result_id)
        m = b.build()
        new = b.int_const(4)
        # iadd c c, slt k c, the phi's two value slots, the composite.
        assert replace_value_uses(m, c, new) == 5
        assert m.get_instruction(vec).operands == [new, new]
        assert replace_value_uses(m, c, new) == 0


class TestPhiMaintenance:
    def test_rewrite_predecessor(self, branching_module):
        fn = branching_module.entry_function()
        join = fn.blocks[-1]
        old = int(join.phis()[0].operands[1])
        rewrite_phi_predecessor(join, old, 777)
        assert int(join.phis()[0].operands[1]) == 777

    def test_remove_predecessor(self, branching_module):
        fn = branching_module.entry_function()
        join = fn.blocks[-1]
        phi = join.phis()[0]
        victim = int(phi.operands[1])
        remove_phi_predecessor(join, victim)
        assert len(phi.phi_pairs()) == 1

    def test_remove_last_predecessor_rejected(self, branching_module):
        fn = branching_module.entry_function()
        join = fn.blocks[-1]
        phi = join.phis()[0]
        remove_phi_predecessor(join, int(phi.operands[1]))
        with pytest.raises(IrError):
            remove_phi_predecessor(join, int(phi.operands[1]))


class TestSplitBlock:
    def test_split_preserves_semantics(self, loop_module):
        m = loop_module
        before = execute(m, {"n": 6}).outputs
        fn = m.entry_function()
        body = fn.blocks[2]
        split_block(fn, body, 2, m.fresh_id())
        assert validate(m) == []
        assert execute(m, {"n": 6}).outputs == before

    def test_split_rewires_successor_phis(self, branching_module):
        m = branching_module
        fn = m.entry_function()
        then_b = fn.blocks[1]
        fresh = m.fresh_id()
        split_block(fn, then_b, 1, fresh)
        join = fn.blocks[-1]
        preds = {p for _, p in join.phis()[0].phi_pairs()}
        assert fresh in preds
        assert then_b.label_id not in preds
        assert validate(m) == []

    def test_split_before_terminator(self, straightline_module):
        m = straightline_module
        fn = m.entry_function()
        entry = fn.entry_block()
        count = len(entry.instructions)
        split_block(fn, entry, count, m.fresh_id())
        assert validate(m) == []
        assert len(fn.blocks) == 2
        assert fn.blocks[1].instructions == []

    def test_split_inside_phis_rejected(self, branching_module):
        m = branching_module
        fn = m.entry_function()
        join = fn.blocks[-1]
        with pytest.raises(IrError):
            split_block(fn, join, 0, m.fresh_id())

    def test_split_index_out_of_range(self, straightline_module):
        fn = straightline_module.entry_function()
        with pytest.raises(IrError):
            split_block(fn, fn.entry_block(), 99, straightline_module.fresh_id())


def _call_module(callee_blocks="single"):
    """main stores helper(k, 3) to out; helper shape configurable."""
    b = ModuleBuilder()
    out = b.output("out", IntType())
    uk = b.uniform("k", IntType())
    helper = b.function("helper", IntType(), [IntType(), IntType()])
    pa, pb = helper.param_ids()
    if callee_blocks == "single":
        blk = helper.block()
        v = blk.imul(pa, pb)
        blk.ret_value(v)
    else:  # two returns through a conditional
        entry = helper.block()
        low = helper.block()
        high = helper.block()
        cond = entry.slt(pa, b.int_const(10))
        entry.branch_cond(cond, low.label_id, high.label_id)
        low.ret_value(low.iadd(pa, pb))
        high.ret_value(high.imul(pa, pb))
    f = b.function("main", VoidType())
    blk = f.block()
    k = blk.load(IntType(), uk)
    result = blk.call(IntType(), helper.result_id, [k, b.int_const(3)])
    shifted = blk.iadd(result, b.int_const(1))
    blk.store(out, shifted)
    blk.ret()
    b.entry_point(f.result_id)
    return b.build()


class TestInlineCall:
    def _inline_only_call(self, module):
        caller = module.entry_function()
        block = caller.entry_block()
        call = next(i for i in block.instructions if i.opcode is Op.FunctionCall)
        plan = make_inline_plan(module, module.get_function(int(call.operands[0])))
        inline_call(module, caller, block, call, plan)
        return module

    def test_single_return_inline(self):
        m = _call_module("single")
        before = execute(m, {"k": 6}).outputs
        self._inline_only_call(m)
        assert validate(m) == []
        assert execute(m, {"k": 6}).outputs == before
        # The call is gone from main.
        assert not any(
            i.opcode is Op.FunctionCall
            for i in m.entry_function().entry_block().instructions
        )

    def test_multi_return_inline_builds_phi(self):
        m = _call_module("multi")
        before_low = execute(m, {"k": 6}).outputs
        before_high = execute(m, {"k": 60}).outputs
        self._inline_only_call(m)
        assert validate(m) == []
        assert execute(m, {"k": 6}).outputs == before_low
        assert execute(m, {"k": 60}).outputs == before_high
        caller = m.entry_function()
        assert any(
            inst.opcode is Op.Phi
            for block in caller.blocks
            for inst in block.instructions
        )

    def test_inline_migrates_local_variables(self):
        b = ModuleBuilder()
        out = b.output("out", IntType())
        helper = b.function("helper", IntType(), [IntType()])
        (p,) = helper.param_ids()
        blk = helper.block()
        var = blk.local_variable(IntType())
        blk.store(var, p)
        v = blk.load(IntType(), var)
        blk.ret_value(v)
        f = b.function("main", VoidType())
        mblk = f.block()
        r = mblk.call(IntType(), helper.result_id, [b.int_const(9)])
        mblk.store(out, r)
        mblk.ret()
        b.entry_point(f.result_id)
        m = b.build()
        caller = m.entry_function()
        call = next(
            i for i in caller.entry_block().instructions if i.opcode is Op.FunctionCall
        )
        plan = make_inline_plan(m, m.get_function(int(call.operands[0])))
        inline_call(m, caller, caller.entry_block(), call, plan)
        assert validate(m) == []
        assert execute(m, {}).outputs == {"out": 9}
        entry_vars = [
            i for i in caller.entry_block().instructions if i.opcode is Op.Variable
        ]
        assert entry_vars, "callee variable must migrate to caller entry block"

    def test_callee_ids_requiring_fresh(self):
        m = _call_module("multi")
        helper = next(f for f in m.functions if f.result_id != m.entry_point_id)
        ids = callee_ids_requiring_fresh(helper)
        labels = {b.label_id for b in helper.blocks}
        assert labels <= set(ids)
        params = {p.result_id for p in helper.params}
        assert not (params & set(ids))

    def test_inline_plan_requires_phi_id_for_multi_return(self):
        m = _call_module("multi")
        caller = m.entry_function()
        call = next(
            i for i in caller.entry_block().instructions if i.opcode is Op.FunctionCall
        )
        callee = m.get_function(int(call.operands[0]))
        id_map = {old: m.fresh_id() for old in callee_ids_requiring_fresh(callee)}
        plan = InlinePlan(id_map, m.fresh_id(), None)
        with pytest.raises(IrError):
            inline_call(m, caller, caller.entry_block(), call, plan)
