"""Differential fuzzing of the language pipeline.

``program_gen`` generates random (syntactically valid) DSL programs
from integer seeds; every generated program must:

* lower, compile (with and without the peephole optimizer), and pass
  the static verifier;
* behave identically on the tree walk and generated code —
  including *faulting identically* (e.g. division by zero);
* behave identically with and without the optimizer.

The generator was promoted from this file's old hypothesis strategies
into the reusable, plain-``random`` module ``tests/lang/program_gen.py``
so the differential harness (``test_differential.py``)
and the optimizer property tests share it; a failing seed reproduces
exactly and can be persisted to ``tests/lang/corpus/``.
"""

import pytest

from repro.lang import verify
from repro.lang.compiler import compile_ast

import program_gen as pg

PIPELINE_SEEDS = range(120)


class TestFuzzedPrograms:
    @pytest.mark.parametrize("seed", PIPELINE_SEEDS)
    def test_pipeline_and_backend_equivalence(self, seed):
        source = pg.generate_program(seed)
        prog_ast = pg.lower_source(source)
        raw = compile_ast(prog_ast, peephole=False)
        opt = compile_ast(prog_ast, peephole=True)
        verify(raw)
        verify(opt)

        fields, arrays = pg.generate_inputs(raw, seed * 131 + 7)
        fvec_raw, avec_raw = pg.vectors(raw, fields, arrays)
        fvec_opt, avec_opt = pg.vectors(opt, fields, arrays)

        res_interp = pg.run_interp(raw, fvec_raw, avec_raw, "tree")
        res_opt = pg.run_interp(opt, fvec_opt, avec_opt, "tree")

        # Tree walk vs generated code: equal in everything.
        assert pg.check_parity(raw, fields, arrays) is None, source
        # Optimized vs raw bytecode: same outcome and same results
        # (stats differ legitimately — the optimizer removes ops).
        assert res_opt[0] == res_interp[0], source
        if res_interp[0] == "ok":
            assert res_opt[1:4] == res_interp[1:4], source
