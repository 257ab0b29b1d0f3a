"""Idealized Decoupled Affine Computation (DAC-IDEAL) [Wang & Lin, 2017].

The paper models an idealized DAC "by detecting affine instructions at
runtime, and assuming that all affine instructions (both redundant and
otherwise) will be executed only once.  We also assume there is no
synchronization cost between affine and non-affine instruction streams"
(Section 5).  DAC covers uniform and affine value structure but *not*
unstructured redundancy — that gap is DARSIE's headline advantage.

Model: :func:`build_dac_profile` reads the functional trace of the
kernel (the runner's oracle-verified traced run) and finds every dynamic
TB instance whose output is uniform or affine in *every* warp of its TB.
In the timing run, warp 0 executes the instance normally (the affine
stream); all other warps receive it as a zero-cost I-buffer entry —
never fetched, issued or executed on the SIMD path, draining with zero
latency subject only to true data dependences (the idealized "no
synchronization cost").

Memory instructions are excluded: DAC decouples affine *computation*;
loads stay in the SIMT stream.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.instructions import INSTRUCTION_BYTES
from repro.simt.grid import LaunchConfig
from repro.simt.tracer import AFFINE, ExecutionTrace, UNIFORM
from repro.timing.buffers import WakeQueue
from repro.timing.core import IBufferEntry
from repro.timing.frontend import Frontend

#: Profile: (tb, pc, occurrence) -> value-pattern kind, for every TB
#: instance that every warp but warp 0 receives for free.
DacProfile = Dict[Tuple[int, int, int], str]


def build_dac_profile(program, launch: LaunchConfig, trace: ExecutionTrace) -> DacProfile:
    """The oracle profile of a functional ``trace`` of ``program``."""
    profile: DacProfile = {}
    warps = launch.warps_per_block
    for (tb, pc, occ), instance in trace.instances.items():
        if instance.warps != warps or instance.divergent:
            continue  # control or SIMD divergence: not a clean TB-wide instance
        if instance.uniform_warps + instance.affine_warps != warps:
            continue  # some warp's output is unstructured, or no value
        inst = program.at(pc)
        if inst.is_memory:
            continue
        if inst.dest_register() is None and inst.dest_predicate() is None:
            continue
        profile[tb, pc, occ] = UNIFORM if instance.uniform_warps == warps else AFFINE
    return profile


class DacIdealFrontend(Frontend):
    """Oracle affine-stream removal with zero synchronization cost."""

    name = "DAC-IDEAL"

    def __init__(self, profile: DacProfile):
        self.profile = profile

    def bind(self, sm) -> None:
        super().bind(sm)
        self.wake_queue = sm.pipeline.wake_queue = WakeQueue()

    def on_tb_launch(self, tb_rt) -> None:
        tb_rt.frontend_state = {"occ": {}}

    def fetch_cycle(self, cycle: int) -> None:
        """Convert profiled instances into zero-cost I-buffer entries.

        This runs outside fetch bandwidth: the affine stream is a
        separate (idealized) pipeline.  Only woken warps are visited: a
        warp's next profiled instance can appear only when its fetch PC
        or fetch readiness changes, and both wake it.
        """
        sm = self.sm
        program = sm.ctx.program
        end_pc = program.end_pc
        profile = self.profile
        skipped_by_class = sm.stats.skipped_by_class
        for wrt in self.wake_queue.drain():
            warp = wrt.warp
            # not ready to fetch: exited, or held by a control instruction
            # in flight, a branch barrier or bar.sync
            if warp.exited or wrt.cf_stalled or wrt.branch_sync_blocked or warp.at_barrier:
                continue
            warp_id = warp.warp_id
            if warp_id == 0:
                continue  # warp 0 executes every instance
            tb_rt = wrt.tb_rt
            occ_state = tb_rt.frontend_state["occ"]
            tb_index = tb_rt.tb.tb_index
            pc = wrt.fetch_pc
            while pc < end_pc:
                key = (warp_id, pc)
                occ = occ_state.get(key, 0)
                kind = profile.get((tb_index, pc, occ))
                if kind is None:
                    break
                occ_state[key] = occ + 1
                wrt.push_entry(IBufferEntry(inst=program.at(pc), free=True))
                sm.note_activity()
                skipped_by_class[kind] += 1
                pc += INSTRUCTION_BYTES
                wrt.fetch_pc = pc

    def on_fetch(self, wrt, inst, is_leader: bool) -> Optional[Dict]:
        # Count occurrences of normally fetched instructions too, so the
        # profile's occurrence numbering stays aligned per (warp, pc).
        occ_state = wrt.tb_rt.frontend_state["occ"]
        key = (wrt.warp.warp_id, inst.pc)
        occ_state[key] = occ_state.get(key, 0) + 1
        return None
