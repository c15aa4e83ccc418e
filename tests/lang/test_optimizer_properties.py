"""Property-based tests for the peephole optimizer over random programs.

For every seeded random program from ``program_gen``:

* the optimized bytecode must be differentially equal to the
  unoptimized bytecode (same outcome; same value/fields/arrays on
  success) on seeded inputs;
* the optimized program must never contain more ops than the original;
* optimization must be idempotent.

These complement the fixed-program cases in ``test_optimizer.py`` with
breadth: the generator reaches loop/branch/array shapes no hand-written
fixture list covers.
"""

import pytest

from repro.lang import verify
from repro.lang.compiler import compile_ast
from repro.lang.optimizer import optimize_program

import program_gen as pg

PROPERTY_SEEDS = range(160)


def _total_ops(program):
    return sum(len(f.code) for f in program.functions)


def _compile_both(seed):
    source = pg.generate_program(seed)
    prog_ast = pg.lower_source(source)
    raw = compile_ast(prog_ast, peephole=False)
    opt = optimize_program(raw)
    return source, raw, opt


class TestOptimizerProperties:
    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_optimized_differentially_equal(self, seed):
        source, raw, opt = _compile_both(seed)
        verify(raw)
        verify(opt)
        for i in range(2):
            fields, arrays = pg.generate_inputs(raw, seed * 977 + i)
            fvec_r, avec_r = pg.vectors(raw, fields, arrays)
            fvec_o, avec_o = pg.vectors(opt, fields, arrays)
            res_raw = pg.run_interp(raw, fvec_r, avec_r, "tree")
            res_opt = pg.run_interp(opt, fvec_o, avec_o, "tree")
            assert res_raw[0] == res_opt[0], source
            if res_raw[0] == "ok":
                # value, fields, arrays — stats legitimately differ.
                assert res_raw[1:4] == res_opt[1:4], source

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_optimized_op_count_never_grows(self, seed):
        source, raw, opt = _compile_both(seed)
        assert _total_ops(opt) <= _total_ops(raw), source

    @pytest.mark.parametrize("seed", range(40))
    def test_optimization_idempotent(self, seed):
        _, _, opt = _compile_both(seed)
        again = optimize_program(opt)
        assert [f.code for f in again.functions] == \
            [f.code for f in opt.functions]
