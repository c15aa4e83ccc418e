"""Every program the verifier accepts compiles to generated code.

Pycodegen compiles at install, and a compile failure fails the
install, so nothing runs a verified program on the tree walk in its
place: this property is what lets a verified program count on its
generated code.  Checked over the ``program_gen`` profiles (generated
and point-mutated bytecode), the persisted corpus, Table 1 and the
programs at the verifier's nesting bounds.
"""

import glob
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.functions.library import table1
from repro.lang import (DEFAULT_PACKET_SCHEMA, VerificationError,
                        pycodegen, verify)
from repro.lang.compiler import compile_action, compile_ast

import program_gen as pg
from test_verifier import _chain_source, _loops_source

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _compiles(program):
    compiled = pycodegen.compile_pycode(program)
    assert compiled is not None, program.name
    assert len(compiled.functions) == len(program.functions)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), profile=st.sampled_from(pg.PROFILES),
       mutation=st.one_of(st.none(), st.integers(0, 10 ** 6)))
def test_every_verified_program_compiles(seed, profile, mutation):
    program = compile_ast(pg.lower_source(
        pg.generate_program(seed, profile=profile)))
    if mutation is not None:
        program = pg.mutate(program, mutation)
    try:
        verify(program)
    except VerificationError:
        assert pycodegen.compile_pycode(program) is None
        return
    _compiles(program)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(CORPUS_DIR, "*.py"))),
    ids=os.path.basename)
def test_corpus_programs_compile(path):
    with open(path) as fh:
        program = compile_ast(pg.lower_source(fh.read()))
    verify(program)
    _compiles(program)


@pytest.mark.parametrize(
    "entry", [e for e in table1() if e.demo is not None],
    ids=lambda e: e.name)
def test_table1_programs_compile(entry):
    demo = entry.demo
    for peephole in (True, False):
        program = compile_action(
            demo.action, packet_schema=DEFAULT_PACKET_SCHEMA,
            message_schema=demo.message_schema,
            global_schema=demo.global_schema, name=demo.function_name,
            peephole=peephole).program
        verify(program)
        _compiles(program)


@pytest.mark.parametrize("source", [_chain_source(90), _loops_source(18)],
                         ids=("90-term or chain", "18 nested loops"))
def test_programs_at_the_nesting_bounds_compile(source):
    program = compile_action(source,
                             packet_schema=DEFAULT_PACKET_SCHEMA).program
    verify(program)
    _compiles(program)
