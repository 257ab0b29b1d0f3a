"""Frontend strategy interface for instruction-elimination mechanisms.

The SM core (:mod:`repro.timing.core`) is mechanism-agnostic: every
config — BASE, UV, DAC-IDEAL, DARSIE and its ablations — runs the same
fetch/issue/execute/writeback pipeline and differs only in the
:class:`Frontend` strategy plugged into it.  This mirrors the paper's
methodology (Section 5): all techniques are modelled inside one
simulator so comparisons are apples-to-apples.

Hook timeline for one instruction:

- ``fetch_cycle``       once per SM cycle, before the fetch scheduler —
  DARSIE's instruction skipper lives here (it works "in parallel with
  the fetch scheduler", Section 4.3.2);
- ``filter_fetch``      as the fetch scheduler considers a warp's next
  PC — may redirect to the skip machinery or stall the warp;
- ``on_fetch``          an instruction entered the I-buffer (rename
  bookkeeping is fetch-ordered, like decode-stage renaming);
- ``eliminate_at_issue``  UV's reuse-buffer check;
- ``on_store`` / ``on_global_communication``  a store or a global
  atomic executed;
- ``blocks_after_branch``  a branch executed: wait at a TB-wide branch
  barrier, or fetch on;
- ``on_writeback``      a leader's destination value architecturally
  visible (DARSIE's LeaderWB bit).

The TB and warp lifecycle adds ``on_tb_launch``, ``on_syncthreads``,
``on_warp_exit`` and ``on_tb_complete``.  These are the
:data:`EVENT_HOOKS`.  The pipeline calls an event hook only on a
frontend whose class defines it (:class:`FrontendHooks`, built once per
SM): a hook inherited unchanged from :class:`Frontend` is a no-op that
is never called, so BASE pays nothing per instruction for the seam.
``bind`` and ``make_issue_stage`` are not event hooks; they are always
called.

The GPU steps every cycle, so a frontend whose ``fetch_cycle`` acts at
a future cycle (SILICON-SYNC's timed barrier releases) needs no way to
announce it: the tick of that cycle runs the hook.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Optional



class FetchAction(enum.Enum):
    """What the fetch scheduler should do with a warp's next PC."""

    FETCH = "fetch"            # fetch normally
    FETCH_LEADER = "leader"    # fetch normally, flag as skip-table leader
    HANDLED = "handled"        # the skip engine owns this PC; do not fetch
    WAIT = "wait"              # warp is blocked (sync / leaderWB pending)


class Frontend:
    """Base strategy: no elimination (the BASE configuration)."""

    name = "BASE"

    def bind(self, sm) -> None:
        """Attach to an SM core (called once before simulation)."""
        self.sm = sm

    def make_issue_stage(self, pipeline):
        """Return a custom issue stage for this frontend, or None for
        the default :class:`~repro.timing.stages.IssueStage`.

        Called while the :class:`~repro.timing.stages.StagePipeline` is
        assembling (before :meth:`bind`), so implementations must not
        touch SM state — just construct the stage.
        """
        return None

    # -- TB lifecycle ---------------------------------------------------------

    def on_tb_launch(self, tb_rt) -> None:
        pass

    def on_tb_complete(self, tb_rt) -> None:
        pass

    # -- fetch stage ------------------------------------------------------------

    def fetch_cycle(self, cycle: int) -> None:
        """Per-cycle hook running in parallel with the fetch scheduler.

        A frontend that visits warps here should visit only the woken
        ones: install a :class:`~repro.timing.buffers.WakeQueue` as
        ``sm.pipeline.wake_queue`` at :meth:`bind` and drain it each cycle;
        any state the visit reads must wake the warp when it changes
        (:meth:`~repro.timing.core.WarpRuntime.wake`).
        """

    def filter_fetch(self, warp_rt, pc: int) -> FetchAction:
        return FetchAction.FETCH

    def on_fetch(self, warp_rt, inst, is_leader: bool) -> Optional[Dict]:
        """Called when ``inst`` enters the I-buffer.  May return captured
        operand overrides ``{"regs": {...}, "preds": {...}}`` for issue
        time (renamed sources are captured in fetch order)."""
        return None

    # -- issue / execute / writeback ------------------------------------------

    def eliminate_at_issue(self, warp_rt, inst) -> Optional[str]:
        """Return a redundancy-class name to eliminate execution at the
        issue stage (UV's reuse buffer), else None."""
        return None

    def on_writeback(self, warp_rt, entry) -> None:
        """``entry`` (an :class:`~repro.timing.buffers.IBufferEntry`),
        fetched as a leader (``entry.is_leader``), reached writeback: its
        destination is architecturally visible.  It carries the
        instruction (``entry.inst``) and the functional outcome execute
        stored (``entry.result``).  Called for leader entries only."""

    # -- synchronization ---------------------------------------------------------

    def blocks_after_branch(self, warp_rt, inst) -> bool:
        """True when the warp must wait at this branch (TB-wide branch
        synchronization) after executing it."""
        return False

    def on_syncthreads(self, tb_rt) -> None:
        pass

    def on_warp_exit(self, warp_rt) -> None:
        pass

    # -- memory-dependence events ---------------------------------------------

    def on_store(self, tb_rt) -> None:
        pass

    def on_global_communication(self) -> None:
        pass


#: The hooks the pipeline calls as events happen; each one runs only on a
#: frontend whose class defines it.
EVENT_HOOKS = (
    "on_tb_launch", "on_tb_complete", "fetch_cycle", "filter_fetch", "on_fetch",
    "eliminate_at_issue", "on_writeback", "blocks_after_branch", "on_syncthreads",
    "on_warp_exit", "on_store", "on_global_communication",
)


class FrontendHooks:
    """A frontend's event hooks as the pipeline calls them: each one
    bound to the frontend, or None when its class inherits the hook
    unchanged from :class:`Frontend` (the no-op is then never called).

    The test is by identity against :class:`Frontend`'s own attribute
    when the SM is built.  A wrapper installed on the class attribute
    (as ``perf/spans.py`` installs its spans) therefore keeps its
    meaning: a subclass that does not define the hook still inherits
    :class:`Frontend`'s, and a hook a frontend class defines is called
    through its wrapper.
    """

    __slots__ = EVENT_HOOKS

    on_tb_launch: Optional[Callable[..., Any]]
    on_tb_complete: Optional[Callable[..., Any]]
    fetch_cycle: Optional[Callable[..., Any]]
    filter_fetch: Optional[Callable[..., Any]]
    on_fetch: Optional[Callable[..., Any]]
    eliminate_at_issue: Optional[Callable[..., Any]]
    on_writeback: Optional[Callable[..., Any]]
    blocks_after_branch: Optional[Callable[..., Any]]
    on_syncthreads: Optional[Callable[..., Any]]
    on_warp_exit: Optional[Callable[..., Any]]
    on_store: Optional[Callable[..., Any]]
    on_global_communication: Optional[Callable[..., Any]]

    def __init__(self, frontend: Frontend) -> None:
        cls = type(frontend)
        for name in EVENT_HOOKS:
            defined = getattr(cls, name) is not getattr(Frontend, name)
            setattr(self, name, getattr(frontend, name) if defined else None)


class DualIssueFrontend(Frontend):
    """DUAL-ISSUE: baseline execution with each warp scheduler able to
    issue from up to two distinct warps per cycle.

    No elimination mechanism — this variant exists to prove the staged
    pipeline's extension seam: one frontend registration swaps in an
    alternative :class:`~repro.timing.stages.IssueStage` without
    touching the core or any other stage.
    """

    name = "DUAL-ISSUE"

    def make_issue_stage(self, pipeline):
        from repro.timing.stages import DualIssueStage

        return DualIssueStage(pipeline)


class SiliconSyncFrontend(Frontend):
    """SILICON-SYNC (Figure 12): baseline execution plus a TB-wide
    barrier at every branch — the paper's silicon experiment that
    isolates DARSIE's synchronization overhead without its benefits
    ("we instrumented the applications with __syncthreads() calls at
    basic-block boundaries").

    Each inserted ``__syncthreads()`` carries a fixed drain cost
    (``release_delay`` cycles) on top of the arrival wait, modelling the
    pipeline drain and barrier-unit round trip a real ``BAR.SYNC`` pays
    on silicon — an in-order simulator with fair scheduling keeps warps
    nearly aligned, so without this cost the instrumentation would look
    free, which contradicts the silicon measurement.
    """

    name = "SILICON-SYNC"

    def __init__(self, release_delay: int = 24):
        self.release_delay = release_delay

    def on_tb_launch(self, tb_rt) -> None:
        tb_rt.frontend_state = {"arrived": {}, "pending_release": []}

    def fetch_cycle(self, cycle: int) -> None:
        for tb_rt in self.sm.tbs:
            pending = tb_rt.frontend_state.get("pending_release", [])
            ready = [p for p in pending if p[0] <= cycle]
            if not ready:
                continue
            tb_rt.frontend_state["pending_release"] = [p for p in pending if p[0] > cycle]
            self.sm.note_activity()
            for _at, warp_ids in ready:
                for w in tb_rt.warps:
                    if w.warp.warp_id in warp_ids and not w.warp.exited:
                        w.set_branch_sync_blocked(False)
                        w.resync_fetch()

    def blocks_after_branch(self, warp_rt, inst) -> bool:
        tb_rt = warp_rt.tb_rt
        arrived = tb_rt.frontend_state["arrived"].setdefault(inst.pc, set())
        arrived.add(warp_rt.warp.warp_id)
        live = {w.warp.warp_id for w in tb_rt.warps if not w.warp.exited}
        if arrived >= live:
            self._release(tb_rt, inst.pc, arrived)
        return True  # even the last arriver pays the drain cost

    def _release(self, tb_rt, pc: int, arrived) -> None:
        tb_rt.frontend_state["pending_release"].append(
            (self.sm.cycle + self.release_delay, set(arrived))
        )
        del tb_rt.frontend_state["arrived"][pc]
        self.sm.stats.branch_barriers += 1

    def on_warp_exit(self, warp_rt) -> None:
        # Re-evaluate pending barriers: the exited warp no longer counts.
        tb_rt = warp_rt.tb_rt
        live = {w.warp.warp_id for w in tb_rt.warps if not w.warp.exited}
        for pc, arrived in list(tb_rt.frontend_state["arrived"].items()):
            if arrived >= live:
                self._release(tb_rt, pc, arrived)
