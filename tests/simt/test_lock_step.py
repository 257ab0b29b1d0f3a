"""Lock-step group execution against the per-warp round-robin loop.

:func:`repro.simt.executor.run_threadblocks` runs a round in which every
runnable warp sits at one PC with a one-level SIMT stack as one group
micro-op over a ``[warps, lanes]`` block.  The reference below is the
loop it replaced, written out here: each round steps every runnable warp
once, in TB order, through ``execute_instruction``.  The two must agree
bit for bit on the trace (every instance in order, with every field),
every warp's record as ``tests/flat_trace.py`` keeps it, in record
order, global memory, each TB's shared memory, every warp's final
registers and predicates, the DAC profile and the exception a failing
kernel raises.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dim3, GlobalMemory, LaunchConfig, Tracer, assemble
from repro.baselines import dac
from repro.fuzz.generate import raw_kernel_specs
from repro.fuzz.spec import KernelSpec
from repro.simt import executor, memory as memory_module
from repro.simt.executor import (
    ExecutionContext, ExecutionError, FunctionalEngine, ThreadBlockState, WarpGroup,
    run_threadblocks,
)
from repro.simt.memory import KernelParams, MemoryError_
from repro.workloads import EXTENDED_ABBRS, build_workload
from tests.flat_trace import FlatTracer, table_bits


def reference_blocks(engine, max_steps=50_000_000):
    """The per-warp loop: every round steps each runnable warp once."""
    program, steps = engine.ctx.program, 0
    for tb_index in range(engine.ctx.launch.num_blocks):
        tb = ThreadBlockState(engine.ctx, tb_index)
        if engine.tracer is not None:
            engine.tracer.begin_block(tb)
        while not tb.done:
            progressed = False
            for warp in tb.warps:
                if warp.exited or warp.at_barrier:
                    continue
                engine.execute_instruction(tb, warp, program.at(warp.pc))
                progressed = True
                steps += 1
                if steps > max_steps:
                    raise ExecutionError(f"exceeded {max_steps} steps; runaway kernel?")
            if not progressed and not tb.done:
                if not tb.release_barrier_if_ready():
                    raise ExecutionError("deadlock: no runnable warps and barrier not ready")
            else:
                tb.release_barrier_if_ready()
        yield tb


def _fields(rec):
    s = rec.summary
    return (rec.tb_index, rec.warp_id, rec.pc, rec.occurrence, s.kind,
            struct.pack("<dd", s.base, s.stride), s.digest, rec.divergent)


def _bits(value):
    return value.dtype.str, value.tobytes()


def observe(runner, program, launch, make_memory, max_steps=50_000_000):
    """Everything a run leaves behind, as comparable bytes, plus the type
    of the exception it raised (None if it finished)."""
    memory, params = make_memory()
    tracer = FlatTracer()
    engine = FunctionalEngine(
        ExecutionContext(program=program, launch=launch, memory=memory,
                         params=KernelParams(params)),
        tracer=tracer,
    )
    tbs, error = [], None
    try:
        for tb in runner(engine, max_steps):
            tbs.append(tb)
    except Exception as exc:  # compared by type below
        error = type(exc)
    state = {}
    for tb in tbs:
        state[(tb.tb_index, "shared")] = _bits(tb.shared.words)
        for warp in tb.warps:
            key = (tb.tb_index, warp.warp_id)
            state[key + ("r",)] = {n: _bits(v) for n, v in warp.registers._regs.items()}
            state[key + ("p",)] = {n: _bits(v) for n, v in warp.registers._preds.items()}
            state[key + ("pc", "exited")] = (warp.pc, warp.exited)
    return {
        "error": error,
        "executed": engine.instructions_executed,
        "trace": table_bits(tracer.trace.instances),
        "records": list(map(_fields, tracer.records)),
        "global": memory.words.tobytes(),
        "state": state,
    }


def assert_same_as_reference(program, launch, make_memory, max_steps=50_000_000):
    grouped = observe(run_threadblocks, program, launch, make_memory, max_steps)
    reference = observe(reference_blocks, program, launch, make_memory, max_steps)
    assert grouped["error"] == reference["error"]
    assert grouped["executed"] == reference["executed"]
    assert grouped["trace"] == reference["trace"]
    assert grouped["records"] == reference["records"]
    assert grouped["global"] == reference["global"]
    assert grouped["state"] == reference["state"]
    return grouped


def _check_workload(abbr, scale, monkeypatch):
    workload = build_workload(abbr, scale)
    out = assert_same_as_reference(workload.program, workload.launch, workload.fresh)
    assert out["error"] is None and out["executed"] > 0

    def profile():
        mem, params = workload.fresh()
        return dac.build_dac_profile(workload.program, workload.launch, mem.words.copy(), params)

    grouped = profile()

    def reference_run(program, launch, memory, params=None, tracer=None):
        engine = FunctionalEngine(
            ExecutionContext(program=program, launch=launch, memory=memory,
                             params=KernelParams(params or {})),
            tracer=tracer,
        )
        for _tb in reference_blocks(engine):
            pass
        return engine

    monkeypatch.setattr(executor, "run_functional", reference_run)
    assert profile() == grouped


@pytest.mark.parametrize("abbr", EXTENDED_ABBRS)
def test_every_workload_at_tiny(abbr, monkeypatch):
    _check_workload(abbr, "tiny", monkeypatch)


@pytest.mark.parametrize("abbr", ["PT", "SR1"])
def test_wide_threadblocks_at_small(abbr, monkeypatch):
    """PT's TBs hold 32 warps and SR1's 16."""
    assert build_workload(abbr, "small").launch.warps_per_block in (16, 32)
    _check_workload(abbr, "small", monkeypatch)


# -- edge cases -----------------------------------------------------------------

LAUNCH = LaunchConfig(grid_dim=Dim3(2), block_dim=Dim3(8), warp_size=4)


def _memory():
    def make():
        mem = GlobalMemory(256)
        return mem, {"out": mem.alloc(64)}
    return make


#: warp 0 takes the branch and holds ``$m`` as float64, warp 1 as int64
#: (2**53 + 1, which a float64 block cannot hold); both meet at ``join``
#: in lock step.
MIXED = """
.param out
    setp.eq.s32 $p0, %warpid, 0
@$p0 bra float
    shl.u32 $m, 1, 53
    add.s32 $m, $m, 1
    bra join
float:
    cvt.f32 $m, %tid.x
join:
    add.s32 $s, $m, 1
    shl.u32 $o, %tid.x, 2
    add.u32 $o, $o, %param.out
    st.global.s32 [$o], $s
    exit
"""


def test_mixed_dtype_group_runs_warp_by_warp():
    assert_same_as_reference(assemble(MIXED), LAUNCH, _memory())


def test_mixed_dtype_group_declines_before_any_side_effect():
    program = assemble(MIXED)
    mem, params = _memory()()
    tracer = Tracer()
    ctx = ExecutionContext(program=program, launch=LAUNCH, memory=mem,
                           params=KernelParams(params))
    engine = FunctionalEngine(ctx, tracer=tracer)
    tb = ThreadBlockState(ctx, 0)
    join = program.labels["join"]
    for warp in tb.warps:  # run each warp alone up to the join
        while warp.pc != join:
            engine.execute_instruction(tb, warp, program.at(warp.pc))
    assert {w.registers.read("m").dtype.kind for w in tb.warps} == {"i", "f"}
    before = ([dict(w.registers._regs) for w in tb.warps], engine.instructions_executed,
              len(tracer.trace))
    assert not engine.execute_group(tb, WarpGroup(tb.warps), program.at(join))
    after = ([dict(w.registers._regs) for w in tb.warps], engine.instructions_executed,
             len(tracer.trace))
    assert all(w.pc == join for w in tb.warps)
    assert before[1:] == after[1:]
    for old, new in zip(before[0], after[0]):
        assert old.keys() == new.keys() and all(old[k] is new[k] for k in old)


#: ``$r`` is written by a full group, then by a guarded group on two
#: lanes, then warp by warp on a divergent path: each later group read
#: must see the merged rows, not the block the first group kept.
REWRITTEN = """
.param out
    mov.s32 $r, %tid.x
    setp.lt.s32 $p0, %laneid, 2
@$p0 add.s32 $r, $r, 100
    add.s32 $s, $r, 0
@$p0 bra skip
    add.s32 $r, $r, 1000
skip:
    add.s32 $r, $r, $s
    shl.u32 $o, %tid.x, 2
    add.u32 $o, $o, %param.out
    st.global.s32 [$o], $r
    exit
"""


def test_kept_blocks_yield_to_later_writes():
    out = assert_same_as_reference(assemble(REWRITTEN), LAUNCH, _memory())
    tid = np.arange(8)
    s = np.where(tid % 4 < 2, tid + 100, tid)
    r = np.where(tid % 4 < 2, s, s + 1000) + s
    assert np.frombuffer(out["global"])[:8].tolist() == r.tolist()


#: warp 1 runs ``top`` once more than warp 0 before the barrier, so the
#: two re-enter it in lock step at different occurrences of its PCs
UNEVEN = """
.param out
    mov.u32 $i, 0
    mov.u32 $n, 0
top:
    add.u32 $i, $i, 1
    setp.le.u32 $p0, $i, %warpid
@$p0 bra top
    bar.sync
    add.u32 $n, $n, 1
    setp.lt.u32 $p1, $n, 2
    mov.u32 $i, 100
@$p1 bra top
    shl.u32 $o, %tid.x, 2
    add.u32 $o, $o, %param.out
    st.global.s32 [$o], $i
    exit
"""


def test_a_group_files_each_warp_under_its_own_occurrence():
    program = assemble(UNEVEN)
    out = assert_same_as_reference(program, LAUNCH, _memory())
    top = program.labels["top"]
    warps = {}
    for tb, warp, pc, occ, *_ in out["records"]:
        if (tb, pc) == (0, top):
            warps.setdefault(occ, []).append(warp)
    # warp 0 ran top twice, warp 1 three times; the second pass ran as a
    # group with occurrences 1 and 2
    assert warps == {0: [0, 1], 1: [1, 0], 2: [1]}


#: every warp stores to the same two words, global and shared
SAME_WORD = """
.param out
.shared 4
    mul.u32 $v, %warpid, 100
    add.u32 $v, $v, %laneid
    st.global.s32 [%param.out], $v
    mov.u32 $z, 4
    st.shared.s32 [$z], $v
    ld.shared.s32 $w, [$z]
    shl.u32 $o, %tid.x, 2
    add.u32 $o, $o, %param.out
    add.u32 $o, $o, 4
    st.global.s32 [$o], $w
    exit
"""


def test_store_collisions_keep_warp_then_lane_order():
    out = assert_same_as_reference(assemble(SAME_WORD), LAUNCH, _memory())
    mem = np.frombuffer(out["global"])
    assert mem[0] == 103  # the last lane of the last warp wins
    assert set(mem[1:9]) == {103.0}


#: warp 1's addresses run past the end of global memory
OUT_OF_RANGE = """
.param out
    mul.u32 $a, %warpid, 4096
    shl.u32 $o, %laneid, 2
    add.u32 $a, $a, $o
    add.u32 $a, $a, %param.out
    st.global.s32 [$a], %tid.x
    ld.global.s32 $r, [$a]
    exit
"""


@pytest.mark.parametrize("store", [True, False])
def test_out_of_range_access_still_raises(store):
    source = OUT_OF_RANGE if store else OUT_OF_RANGE.replace(
        "    st.global.s32 [$a], %tid.x\n", "")
    out = assert_same_as_reference(assemble(source), LAUNCH, _memory())
    assert out["error"] is MemoryError_


def test_address_checks_see_flat_vectors(monkeypatch):
    """The OR-screen of ``_check_addr`` reduces only axis 0 of a 2-D
    array, so a group must hand it the flattened block."""
    check = memory_module._check_addr
    shapes = []

    def flat_only(addr, limit, space):
        shapes.append(addr.ndim)
        return check(addr, limit, space)

    monkeypatch.setattr(memory_module, "_check_addr", flat_only)
    out = observe(run_threadblocks, assemble(SAME_WORD), LAUNCH, _memory())
    assert out["error"] is None and shapes and set(shapes) == {1}


@pytest.mark.parametrize("max_steps", [1, 2, 5, 9, 10, 11, 17])
def test_max_steps_counts_every_warp_of_a_group(max_steps):
    out = assert_same_as_reference(assemble(SAME_WORD), LAUNCH, _memory(), max_steps)
    assert out["error"] is ExecutionError
    assert out["executed"] == max_steps + 1


# -- generated kernels ------------------------------------------------------------


@st.composite
def fuzz_kernels(draw):
    """A kernel from ``repro.fuzz``'s generator (divergence, guards,
    partial warps, ``bar.sync``, atomics), optionally with a register
    held in different dtypes by different warps and a word every warp
    stores to, spliced in before its epilogue."""
    spec = draw(raw_kernel_specs())
    lines = spec.source.splitlines()
    extra = []
    if draw(st.booleans()):
        extra += [
            "    setp.eq.s32 $p8, %warpid, 0",
            "@$p8 bra mixf",
            "    shl.u32 $mx, 1, 53",
            "    add.s32 $mx, $mx, %tid.x",
            "    bra mixj",
            "mixf:",
            "    cvt.f32 $mx, %tid.x",
            "mixj:",
            "    add.s32 $at, $mx, 1",
            "    st.global.s32 [$gaddr], $mx",
        ]
    if draw(st.booleans()):
        extra += [
            "    st.global.s32 [%param.acc], $lin",
            "    mov.s32 $at, 0",
            "    st.shared.s32 [$at], $lin",
            "    ld.shared.s32 $at, [$at]",
        ]
    source = "\n".join(lines[:-2] + extra + lines[-2:]) + "\n"
    return KernelSpec(spec.name, source, spec.grid_dim, spec.block_dim, spec.data_seed)


@given(spec=fuzz_kernels())
@settings(max_examples=60, deadline=None)
def test_generated_kernels_match_the_per_warp_loop(spec):
    assert_same_as_reference(spec.program(), spec.launch(), spec.fresh_memory)
