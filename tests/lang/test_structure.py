"""Census and bytecode pins for structured control flow.

The verifier accepts a function only if its reachable code nests into
loops and if/else shapes (``analysis.facts(program).structure``), and
the generated-code backend compiles exactly what the verifier accepts.
The census runs that over the ``program_gen`` corpus with the peephole
pass on; the pins fix each Table-1 program's bytecode, so an optimizer
change that would move a golden run fails here first and names the
program.
"""

import hashlib

import pytest

from repro.functions.library import table1
from repro.lang import DEFAULT_PACKET_SCHEMA, pycodegen, verify
from repro.lang.compiler import compile_action, compile_ast

import program_gen as pg

pytestmark = pytest.mark.differential

CENSUS_SEEDS = range(300)

#: sha256 of each Table-1 program's functions and instruction tuples.
TABLE1_BYTECODE = {
    "ananta_nat":
        "7d1e24fdafb6f346d848f0306ce09ccc2fd99dc1edfb2468c69d9ba7e1f039bc",
    "centralized_cc":
        "7ec9783ce15d025a780917f18bb3e41f10bafd65a089df596299bbfbaaa8d0f3",
    "mcrouter_select":
        "b5bfc82410c39906c047fb11f381045fb806c9c7b416205f4aaa75a934b77529",
    "message_wcmp":
        "5779c6aed2a988319cf34d2e71c0a108be42b0b2972329f2b077663881f56ea6",
    "network_qos":
        "139173569e99734b37745a9587105634f24fdec7e717c83af7f99051ab55b488",
    "pias":
        "7a9bbca0de8ef25076d688f09841612f40aefde94c965fd8bbec99825710dd2f",
    "port_knock":
        "a3fdfab25ab1a8df41174cc9429374cbbfbbac677808443e46de868d49fafa72",
    "pulsar":
        "1a3438c14cba05f2c4b89cfd00695dc38a7d97f45b74d17d659570897a889e07",
    "qjump":
        "1096c72abb14a9c070d466acfcd84e07580f38e1f09c7fa7290d261559fc7385",
    "sff":
        "b410aec2f48d55a26c38166f74f920e03bf7fa9eb74afd9126d02be6e17dc6dd",
    "sinbad_select":
        "7363d69db4e9e8b773db257e1bb7604c0b31c0a3257a553adc3a915074ff056d",
    "stateful_firewall":
        "1b7cb730ff8b815b5a2a0cc17db79737a4c2d8e660f090a9138d65c7e39065c5",
    "wcmp":
        "5c06782ba9648f89bdde4159cd614e2b7c31454f9f5eae0a56ea763f1d791fcd",
}


@pytest.mark.parametrize("profile", pg.PROFILES)
def test_every_generated_program_verifies_and_compiles(profile):
    for seed in CENSUS_SEEDS:
        program = compile_ast(pg.lower_source(
            pg.generate_program(seed, profile=profile)))
        verify(program)
        assert pycodegen.compile_pycode(program) is not None, seed


def _digest(program):
    listing = [(fn.name, fn.n_args, fn.n_locals,
                [(instr.op.name, instr.arg) for instr in fn.code])
               for fn in program.functions]
    return hashlib.sha256(repr(listing).encode()).hexdigest()


@pytest.fixture(scope="module")
def table1_programs():
    programs = {}
    for entry in table1():
        spec = entry.demo
        if spec is not None:
            program = compile_action(
                spec.action, packet_schema=DEFAULT_PACKET_SCHEMA,
                message_schema=spec.message_schema,
                global_schema=spec.global_schema,
                name=spec.function_name).program
            programs[program.name] = program
    return programs


def test_the_pins_cover_table1(table1_programs):
    assert set(table1_programs) == set(TABLE1_BYTECODE)


@pytest.mark.parametrize("name", sorted(TABLE1_BYTECODE))
def test_table1_bytecode_is_pinned_and_compiles(name, table1_programs):
    program = table1_programs[name]
    assert _digest(program) == TABLE1_BYTECODE[name]
    assert pycodegen.compile_pycode(program) is not None
