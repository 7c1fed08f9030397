"""The bind products of a compiled trace against a program-order reference scan.

:meth:`CompiledTrace.dependency_plan`, :meth:`~CompiledTrace.dest_kind_counts`
and :meth:`~CompiledTrace.dispatch_meta` are built with whole-array numpy
operations.  Here they are compared element for element with
:func:`reference_plan`, a plain scan over the µops in program order that keeps
the last definition of every register -- on seeded random CSR traces, on the
edge cases the array form has to get right, and on every builtin profile's
trace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uops.compiled import NO_ANNOTATION, CompiledTrace
from repro.uops.opcodes import UopClass, is_branch, is_memory, queue_of
from repro.uops.registers import DEFAULT_REGISTER_SPACE, RegisterSpace
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import all_trace_names, profile_for

SPACE = DEFAULT_REGISTER_SPACE
TOP_REGISTER = SPACE.total - 1


def reference_plan(srcs, dests):
    """Each µop's distinct sources mapped to their last earlier definition ids."""
    last, deps, next_def = {}, [], 0
    for row_srcs, row_dests in zip(srcs, dests):
        deps.append(tuple(last[reg] for reg in dict.fromkeys(row_srcs) if reg in last))
        for reg in row_dests:
            last[reg] = next_def
            next_def += 1
    return deps


def make_trace(opclasses, srcs, dests, mispredicted=None):
    n = len(opclasses)
    return CompiledTrace.from_columns(
        sids=list(range(n)),
        opclasses=[int(c) for c in opclasses],
        srcs=srcs,
        dests=dests,
        blocks=[0] * n,
        addresses=[64 * i for i in range(n)],
        mispredicted=mispredicted or [False] * n,
        vc_ids=[NO_ANNOTATION] * n,
        chain_leaders=[False] * n,
        static_clusters=[NO_ANNOTATION] * n,
    )


def assert_matches_reference(compiled: CompiledTrace, space: RegisterSpace = SPACE) -> None:
    srcs, dests = compiled.src_tuples(), compiled.dest_tuples()
    deps = reference_plan(srcs, dests)
    def_uop = [i for i, row in enumerate(dests) for _ in row]
    def_reg = [reg for row in dests for reg in row]
    dest_offsets = np.cumsum([0] + [len(row) for row in dests]).tolist()
    counts = [
        (sum(reg < space.num_int for reg in row), sum(reg >= space.num_int for reg in row))
        for row in dests
    ]

    plan = compiled.dependency_plan()
    assert plan.deps == deps
    assert plan.def_uop == def_uop
    assert plan.def_reg == def_reg
    assert plan.dest_offsets == dest_offsets
    assert compiled.dest_kind_counts(space) == counts

    classes = [UopClass(c) for c in compiled.opclass.tolist()]
    meta = [
        (
            int(queue_of(cls)),
            is_memory(cls),
            cls == UopClass.LOAD,
            is_branch(cls),
            mispredicted,
            di,
            df,
            row,
            lo,
            hi,
        )
        for cls, mispredicted, (di, df), row, lo, hi in zip(
            classes,
            compiled.mispredicted.tolist(),
            counts,
            deps,
            dest_offsets[:-1],
            dest_offsets[1:],
        )
    ]
    assert compiled.dispatch_meta(space) == meta


# --------------------------------------------------------------------------
# Edge cases
# --------------------------------------------------------------------------


def test_empty_trace():
    compiled = make_trace([], [], [])
    assert_matches_reference(compiled)
    assert compiled.dependency_plan().deps == []
    assert compiled.dependency_plan().dest_offsets == [0]


def test_uops_without_sources_or_destinations():
    alu, store, branch = UopClass.INT_ALU, UopClass.STORE, UopClass.BRANCH
    compiled = make_trace(
        [alu, alu, store, branch, alu],
        [(), (1,), (1, 2), (), (3,)],
        [(1,), (), (), (), ()],
    )
    assert_matches_reference(compiled)
    assert compiled.dependency_plan().deps == [(), (0,), (0,), (), ()]


def test_duplicate_sources_keep_their_first_occurrence_order():
    compiled = make_trace(
        [UopClass.INT_ALU] * 3,
        [(), (), (5, 4, 5, 4, 5)],
        [(4,), (5,), ()],
    )
    assert_matches_reference(compiled)
    assert compiled.dependency_plan().deps[2] == (1, 0)


def test_reading_a_register_it_writes_sees_the_previous_definition():
    compiled = make_trace(
        [UopClass.INT_ALU] * 3,
        [(), (7,), (7,)],
        [(7,), (7,), ()],
    )
    assert_matches_reference(compiled)
    assert compiled.dependency_plan().deps == [(), (0,), (1,)]


def test_first_reader_of_its_own_destination_is_a_live_in():
    compiled = make_trace([UopClass.INT_ALU], [(3,)], [(3,)])
    assert_matches_reference(compiled)
    assert compiled.dependency_plan().deps == [()]


def test_writing_one_register_twice_the_later_definition_wins():
    compiled = make_trace(
        [UopClass.INT_ALU] * 2,
        [(), (9,)],
        [(9, 9), ()],
    )
    assert_matches_reference(compiled)
    assert compiled.dependency_plan().deps == [(), (1,)]


def test_highest_register_id():
    compiled = make_trace(
        [UopClass.FP_ADD, UopClass.FP_ADD, UopClass.INT_ALU],
        [(TOP_REGISTER,), (TOP_REGISTER, 0), (TOP_REGISTER,)],
        [(TOP_REGISTER,), (0, TOP_REGISTER), ()],
    )
    assert_matches_reference(compiled)
    assert compiled.dependency_plan().deps == [(), (0,), (2,)]
    assert compiled.dest_kind_counts(SPACE) == [(0, 1), (1, 1), (0, 0)]


# --------------------------------------------------------------------------
# Random traces and builtin profiles
# --------------------------------------------------------------------------

_REGS = st.integers(min_value=0, max_value=TOP_REGISTER)
_UOPS = st.lists(
    st.tuples(
        st.sampled_from(list(UopClass)),
        st.lists(_REGS, max_size=5).map(tuple),
        st.lists(_REGS, max_size=3).map(tuple),
        st.booleans(),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(uops=_UOPS, narrow=st.booleans())
def test_random_traces_match_the_reference(uops, narrow):
    # ``narrow`` folds every register into 0..7 so that reuse, duplicate
    # sources and self-reads are common rather than rare.
    fold = (lambda row: tuple(reg % 8 for reg in row)) if narrow else (lambda row: row)
    compiled = make_trace(
        [cls for cls, _, _, _ in uops],
        [fold(srcs) for _, srcs, _, _ in uops],
        [fold(dests) for _, _, dests, _ in uops],
        mispredicted=[flag for _, _, _, flag in uops],
    )
    assert_matches_reference(compiled)
    assert_matches_reference(compiled, RegisterSpace(num_int=3, num_fp=5))


@pytest.mark.parametrize("name", all_trace_names())
def test_builtin_profile_traces_match_the_reference(name):
    _, compiled = WorkloadGenerator(profile_for(name)).generate_compiled_trace(600, 0)
    assert_matches_reference(compiled)
