"""Multithreaded register renaming and versioning (Sections 4.1, 4.3.1).

The rename unit lets follower warps read values produced by the leader
warp.  Three structures from Figure 7 are modelled:

- the **register rename table** maps ``<warp, reg#>`` to this warp's
  ``<reg#, version#>``;
- the **version table** maps ``<reg#, version#>`` to a physical register
  (whose value vector we hold directly, since this is a functional+timing
  model);
- the **physical register freelist** supplies rename space — up to 32
  vector registers per TB (Section 4.3.1).

Versioning follows Figure 5: "each time a redundant register is written,
we create a new version of the register tagged with the number of times
it has been written by this TB"; each warp independently counts the
writes *it* has seen, so a trailing warp reads the older version until it
skips the producing instruction itself.  A version's physical register
returns to the freelist once every participating warp has moved past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.simt.tracer import value_kind

#: Rename-space key: ("r", name) for vector registers, ("p", name) for
#: predicates (separate architectural spaces).
RegKey = Tuple[str, str]


class RenameError(RuntimeError):
    """Internal invariant violation in the rename unit."""


@dataclass
class VersionValue:
    """One live version of a renamed register."""

    key: RegKey
    version: int
    preg: int
    value: np.ndarray
    is_pred: bool
    #: taxonomy kind of the value (uniform/affine/unstructured) — used to
    #: attribute skipped instructions to Figure 9/10 categories.
    kind: str


@dataclass
class Materialization:
    """A renamed value to be copied into a warp's private space."""

    key: RegKey
    value: np.ndarray
    is_pred: bool


class PortBudget:
    """Per-cycle access-port budget of one DARSIE hardware structure.

    ``ports=None`` models an ideal (unbounded) structure — every acquire
    succeeds and nothing is counted, which keeps the default
    configuration bit-identical to the historical model.  A finite value
    grants at most ``ports`` accesses per cycle; the budget resets
    lazily on the first acquire of a new cycle.

    An access group larger than the whole structure (``n > ports``) is
    granted against a fresh budget — the hardware would serialize the
    reads over the cycle — so a wide instruction can never deadlock on a
    narrow table.
    """

    __slots__ = ("ports", "_cycle", "_used")

    def __init__(self, ports: Optional[int]):
        self.ports = ports
        self._cycle = -1
        self._used = 0

    def acquire(self, cycle: int, n: int = 1) -> bool:
        """Try to take ``n`` ports this cycle; False means stall."""
        if self.ports is None or n <= 0:
            return True
        if cycle != self._cycle:
            self._cycle = cycle
            self._used = 0
        if self._used == 0 and n >= self.ports:
            self._used = self.ports
            return True
        if self._used + n > self.ports:
            return False
        self._used += n
        return True


class RegisterRenameUnit:
    """Per-TB rename/version tables and freelist."""

    def __init__(self, num_warps: int, freelist_size: int = 32, rf_banks: int = 16):
        self.num_warps = num_warps
        self.freelist_size = freelist_size
        self.rf_banks = rf_banks
        self._freelist: List[int] = list(range(freelist_size))
        #: (warp, key) -> version currently visible to that warp
        self._rename: Dict[Tuple[int, RegKey], int] = {}
        #: (key, version) -> VersionValue
        self._versions: Dict[Tuple[RegKey, int], VersionValue] = {}
        #: (key, version) -> warps that may still need this version
        self._refs: Dict[Tuple[RegKey, int], Set[int]] = {}
        #: (warp, key) -> number of skip-table writes this warp has seen
        self._write_count: Dict[Tuple[int, RegKey], int] = {}

    # -- capacity ----------------------------------------------------------

    def can_allocate(self) -> bool:
        return bool(self._freelist)

    def count(self, warp: int, key: RegKey) -> int:
        """How many skip-set writes of ``key`` this warp has seen."""
        return self._write_count.get((warp, key), 0)

    def all_reached(self, warps: Iterable[int], key: RegKey, instance: int) -> bool:
        """Whether every warp in ``warps`` has seen at least ``instance``
        writes of ``key`` (stops at the first that has not)."""
        counts = self._write_count
        for warp in warps:
            if counts.get((warp, key), 0) < instance:
                return False
        return True

    def has_mappings(self) -> bool:
        """Whether any warp of the TB reads some register through the
        rename table (when none does, every :meth:`read` is None)."""
        return bool(self._rename)

    @property
    def live_versions(self) -> int:
        return len(self._versions)

    # -- core operations ------------------------------------------------------

    def reserve_version(self, warp: int, key: RegKey) -> int:
        """Advance the leader's write count at *fetch* time.

        Rename-table state must change in fetch order (the hardware
        updates it at decode): the leader's count advances and its own
        rename entry for ``key`` is dropped — the leader's private
        register always holds its current value, so pointing its rename
        entry at the new version would resurrect a stale mapping if a
        younger private write to the same register was already fetched.
        The version *value* is filled in at writeback by
        :meth:`leader_write`.
        """
        version = self._write_count.get((warp, key), 0) + 1
        self._write_count[(warp, key)] = version
        previous = self._rename.pop((warp, key), None)
        if previous is not None:
            self._drop_ref(warp, key, previous)
        return version

    def leader_write(
        self,
        warp: int,
        key: RegKey,
        version: int,
        value: np.ndarray,
        is_pred: bool,
        members: List[int],
    ) -> VersionValue:
        """Record the leader's writeback of a skipped-PC destination.

        ``version`` is the number returned by :meth:`reserve_version` at
        the leader's fetch; ``members`` is the current majority-path
        membership — each member holds a reference to the new version
        until it advances past it.
        """
        if not self._freelist:
            raise RenameError("leader_write with empty freelist")
        if (key, version) in self._versions:
            raise RenameError(f"duplicate version {version} for {key}")
        preg = self._freelist.pop()
        vv = VersionValue(
            key=key,
            version=version,
            preg=preg,
            value=np.asarray(value).copy(),
            is_pred=is_pred,
            kind=value_kind(np.asarray(value)),
        )
        self._versions[(key, version)] = vv
        # The leader never reads its own version through the rename table
        # (its private register holds the same value), so it takes no
        # reference.  Members that already advanced past this version
        # (having executed the instance privately) must not pin it either.
        refs = {
            m
            for m in members
            if m != warp and self._write_count.get((m, key), 0) < version
        }
        self._refs[(key, version)] = refs
        self._release_if_unreferenced(key, version)
        return vv

    def follower_skip(self, warp: int, key: RegKey) -> VersionValue:
        """A follower skipped the producing instruction: advance its
        version mapping and release the version it moved past."""
        warp_key = (warp, key)
        version = self._write_count.get(warp_key, 0) + 1
        vv = self._versions.get((key, version))
        if vv is None:
            raise RenameError(
                f"follower warp {warp} skipping write #{version} of {key} "
                "before the leader produced it"
            )
        self._write_count[warp_key] = version
        previous = self._rename.get(warp_key)
        self._rename[warp_key] = version
        if previous is not None and previous != version:
            self._drop_ref(warp, key, previous)
        return vv

    def read(self, warp: int, key: RegKey) -> Optional[VersionValue]:
        """The renamed value visible to ``warp`` for ``key``, if any."""
        version = self._rename.get((warp, key))
        if version is None:
            return None
        vv = self._versions.get((key, version))
        if vv is None:
            # The version was reclaimed (warp left path / reset); the
            # private copy is authoritative.
            del self._rename[(warp, key)]
            return None
        return vv

    def renamed_keys(self, warp: int) -> List[RegKey]:
        return [k for (w, k) in self._rename if w == warp]

    def private_write(self, warp: int, key: RegKey) -> None:
        """A non-skipped instruction wrote ``key``: the warp's reads must
        come from its private space from now on."""
        version = self._rename.pop((warp, key), None)
        if version is not None:
            self._drop_ref(warp, key, version)

    def private_instance_write(self, warp: int, key: RegKey) -> None:
        """A *skippable* instruction instance executed privately (its
        skip-table entry was invalidated or never created): the warp's
        write count must still advance so future versions stay aligned
        across the TB ("the number of times it has been written by this
        TB" counts writes in the instruction stream, skipped or not)."""
        version = self._write_count.get((warp, key), 0) + 1
        self._write_count[(warp, key)] = version
        previous = self._rename.pop((warp, key), None)
        if previous is not None:
            self._drop_ref(warp, key, previous)
        # The warp will never read the shared copy of this instance;
        # release its reference if the leader did create one.
        self._drop_ref(warp, key, version)

    # -- path / barrier events ----------------------------------------------

    def clear_warp(self, warp: int) -> List[Materialization]:
        """Warp left the majority path (Section 4.3.5): return its
        renamed values for copying into private space, then clear all of
        its rename state and references."""
        out: List[Materialization] = []
        for key in self.renamed_keys(warp):
            vv = self.read(warp, key)
            if vv is not None:
                out.append(Materialization(key=key, value=vv.value.copy(), is_pred=vv.is_pred))
        for key in self.renamed_keys(warp):
            version = self._rename.pop((warp, key))
            self._drop_ref(warp, key, version)
        # Drop every other reference this warp still pins.
        for (key, version), refs in list(self._refs.items()):
            if warp in refs:
                refs.discard(warp)
                self._release_if_unreferenced(key, version)
        return out

    def reset_all(self) -> Dict[int, List[Materialization]]:
        """TB-wide reset (at ``bar.sync``): materialise every warp's
        renamed values, then clear all tables and refill the freelist.

        Returns per-warp materialisations the caller must apply before
        warps resume."""
        out: Dict[int, List[Materialization]] = {}
        for warp in range(self.num_warps):
            mats: List[Materialization] = []
            for key in self.renamed_keys(warp):
                vv = self.read(warp, key)
                if vv is not None:
                    mats.append(
                        Materialization(key=key, value=vv.value.copy(), is_pred=vv.is_pred)
                    )
            if mats:
                out[warp] = mats
        self._rename.clear()
        self._versions.clear()
        self._refs.clear()
        self._write_count.clear()
        self._freelist = list(range(self.freelist_size))
        return out

    # -- freeing --------------------------------------------------------------

    def _drop_ref(self, warp: int, key: RegKey, version: int) -> None:
        refs = self._refs.get((key, version))
        if refs is None:
            return
        refs.discard(warp)
        self._release_if_unreferenced(key, version)

    def _release_if_unreferenced(self, key: RegKey, version: int) -> None:
        refs = self._refs.get((key, version))
        if refs is not None and not refs:
            del self._refs[(key, version)]
            vv = self._versions.pop((key, version), None)
            if vv is not None:
                self._freelist.append(vv.preg)

    def bank_of(self, preg: int) -> int:
        """Renamed registers are strided across the RF banks (4.3.1)."""
        return preg % self.rf_banks
