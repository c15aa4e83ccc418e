"""Tests for the bytecode compiler: code shape and optimizations."""

import pytest

from repro.lang import (DEFAULT_PACKET_SCHEMA, Interpreter, Op,
                        compile_action, verify)
from repro.lang.bytecode import Assembler, Instr

from conftest import Harness


def ops_of(program, fn_index=0):
    return [i.op for i in program.functions[fn_index].code]


class TestCodeShape:
    def test_assignment_compiles_to_putf(self):
        h = Harness("def f(packet):\n    packet.priority = 3\n")
        assert ops_of(h.program)[:2] == [Op.CONST, Op.PUTF]

    def test_state_read_compiles_to_getf(self):
        h = Harness("def f(packet):\n"
                    "    packet.priority = packet.size\n")
        assert Op.GETF in ops_of(h.program)

    def test_array_access_uses_abase_hload(self):
        h = Harness("def f(packet, _global):\n"
                    "    packet.priority = _global.weights[0]\n")
        ops = ops_of(h.program)
        assert Op.ABASE in ops and Op.HLOAD in ops

    def test_record_access_multiplies_by_stride(self):
        h = Harness("def f(packet, _global):\n"
                    "    packet.priority = "
                    "_global.records[packet.size].hi\n")
        consts = [i.arg for i in h.program.entry.code
                  if i.op is Op.CONST]
        assert 2 in consts  # the stride
        assert Op.MUL in ops_of(h.program)

    def test_flat_array_skips_stride_multiply(self):
        h = Harness("def f(packet, _global):\n"
                    "    packet.priority = _global.weights[1]\n")
        assert Op.MUL not in ops_of(h.program)

    def test_every_function_ends_with_ret(self):
        h = Harness("def f(packet):\n"
                    "    def g(x):\n"
                    "        return x\n"
                    "    packet.priority = g(1)\n")
        for fn in h.program.functions:
            assert fn.code[-1].op is Op.RET

    def test_field_table_deduplicates(self):
        h = Harness("def f(packet):\n"
                    "    packet.priority = packet.size + packet.size\n"
                    "    packet.queue_id = packet.size\n")
        names = [(r.scope, r.name) for r in h.program.field_table]
        assert len(names) == len(set(names))

    def test_disassembly_mentions_state_names(self):
        h = Harness("def f(packet):\n"
                    "    packet.priority = packet.size\n")
        listing = h.program.disassemble()
        assert "packet.size" in listing
        assert "packet.priority" in listing


class TestTailCallOptimization:
    SRC = ("def f(packet):\n"
           "    def loop(n, acc):\n"
           "        if n == 0:\n"
           "            return acc\n"
           "        return loop(n - 1, acc + n)\n"
           "    packet.queue_id = loop(50, 0)\n")

    def test_tco_removes_self_call(self):
        h = Harness(self.SRC, optimize_tail_calls=True)
        helper = h.program.functions[1]
        call_targets = [i.arg for i in helper.code
                        if i.op is Op.CALL]
        assert 1 not in call_targets  # no self-CALL left

    def test_without_tco_self_call_remains(self):
        h = Harness(self.SRC, optimize_tail_calls=False)
        helper = h.program.functions[1]
        call_targets = [i.arg for i in helper.code
                        if i.op is Op.CALL]
        assert 1 in call_targets

    def test_same_result_either_way(self):
        expected = sum(range(51))
        for tco in (True, False):
            h = Harness(self.SRC, optimize_tail_calls=tco)
            _, fields, _ = h.run()
            assert fields[("packet", "queue_id")] == expected

    def test_tco_keeps_call_depth_flat(self):
        h = Harness(self.SRC, optimize_tail_calls=True)
        result, _, _ = h.run()
        assert result.stats.max_call_depth == 2  # entry + one frame

    def test_pias_threshold_search_needs_tco_to_stay_flat(self):
        """Section 3.4.4: PIAS's recursive threshold search over 30
        bands takes one frame per band without TCO, one loop with
        it."""
        from repro.functions.pias import (PIAS_GLOBAL_SCHEMA,
                                          PIAS_MESSAGE_SCHEMA,
                                          pias_action)
        table = []
        for band in range(30):
            table += [(band + 1) * 1_000_000, 7 - (band % 8)]
        stats = {}
        for tco in (True, False):
            _, program = compile_action(
                pias_action, packet_schema=DEFAULT_PACKET_SCHEMA,
                message_schema=PIAS_MESSAGE_SCHEMA,
                global_schema=PIAS_GLOBAL_SCHEMA,
                optimize_tail_calls=tco)
            verify(program)
            fields = {("message", "size"): 25_000_000,
                      ("message", "priority"): 7}
            fvec = [fields.get((r.scope, r.name), 0)
                    for r in program.field_table]
            stats[tco] = Interpreter().execute(program, fvec,
                                               [table]).stats
        assert stats[True].max_call_depth < stats[False].max_call_depth
        assert stats[True].stack_bytes <= stats[False].stack_bytes

    def test_non_tail_recursion_not_optimized(self):
        src = ("def f(packet):\n"
               "    def fact(n):\n"
               "        if n <= 1:\n"
               "            return 1\n"
               "        return n * fact(n - 1)\n"
               "    packet.queue_id = fact(5)\n")
        h = Harness(src, optimize_tail_calls=True)
        helper = h.program.functions[1]
        assert any(i.op is Op.CALL for i in helper.code)


class TestAssembler:
    def test_unbound_label_rejected(self):
        asm = Assembler("f", 0)
        asm.emit_jump(Op.JMP, "nowhere")
        with pytest.raises(ValueError, match="unbound label"):
            asm.finish(n_locals=0)

    def test_double_bind_rejected(self):
        asm = Assembler("f", 0)
        asm.bind("L")
        with pytest.raises(ValueError, match="bound twice"):
            asm.bind("L")

    def test_labels_resolve_to_indices(self):
        asm = Assembler("f", 0)
        asm.emit(Op.CONST, 0)
        target = asm.new_label()
        asm.emit_jump(Op.JMP, target)
        asm.emit(Op.POP)
        asm.bind(target)
        asm.emit(Op.RET)
        code = asm.finish(n_locals=0).code
        assert code[1].arg == 3

    def test_instr_arg_validation(self):
        with pytest.raises(ValueError):
            Instr(Op.CONST)          # missing arg
        with pytest.raises(ValueError):
            Instr(Op.ADD, 1)         # spurious arg
