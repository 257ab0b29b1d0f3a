"""A per-warp reference for the functional trace's TB-instance table.

:class:`FlatTracer` is a :class:`~repro.simt.tracer.Tracer` that also
keeps every warp's record in a flat list, in record order, each
summarized the moment it arrives by the per-vector rules: its summary is
``ValueSummary.of`` over the warp's live lanes (``none`` when no
register was written), and it is divergent when a live lane did not run.
:func:`reference_table` regroups the records by ``(tb, pc, occurrence)``
and derives from them, with :func:`classify`, the classifier the table
replaced, what each :class:`~repro.simt.tracer.TBInstance` must hold.
Tables compare with :func:`table_bits`, floats by bit pattern.
"""

import struct
from typing import Dict, List, NamedTuple

import numpy as np

from repro.simt.tracer import (
    AFFINE, NONE, RedundancyClass, TBInstance, Tracer, UNIFORM, UNSTRUCTURED, ValueSummary,
)


class StubWarp:
    """What the tracer reads of a warp: its id and hardware mask (the
    first ``live`` of ``lanes`` lanes, all of them by default)."""

    def __init__(self, warp_id: int, lanes: int, live=None):
        self.warp_id = warp_id
        self.hw_mask = np.arange(lanes) < (lanes if live is None else live)


class StubTB:
    """What the tracer reads of a threadblock."""

    def __init__(self, tb_index: int, warps):
        self.tb_index = tb_index
        self.warps = warps


class StubInst:
    """What the tracer reads of an instruction."""

    def __init__(self, pc: int):
        self.pc = pc


class FlatRecord(NamedTuple):
    tb_index: int
    warp_id: int
    pc: int
    occurrence: int
    summary: ValueSummary
    divergent: bool


class FlatTracer(Tracer):
    """Also keeps every warp's record in a flat list, in record order,
    each summarized on arrival by the per-vector rules."""

    def __init__(self):
        super().__init__()
        self.records: List[FlatRecord] = []
        self._executed = {}

    def record_group(self, tb, warps, inst, values, exec_masks):
        super().record_group(tb, warps, inst, values, exec_masks)
        for i, warp in enumerate(warps):
            site = (tb.tb_index, warp.warp_id, inst.pc)
            occ = self._executed.get(site, 0)
            self._executed[site] = occ + 1
            hw = warp.hw_mask
            value = None if values is None else values[i]
            if value is None:
                summary = ValueSummary(kind=NONE)
            else:
                summary = ValueSummary.of(value[hw] if value.shape == hw.shape else value)
            divergent = exec_masks is not None and bool((hw & ~exec_masks[i]).any())
            self.records.append(FlatRecord(*site, occ, summary, divergent))


def classify(records, expected_warps: int) -> RedundancyClass:
    """A group of warp records is redundant only when every one of
    ``expected_warps`` warps ran it, none diverged, and all produced one
    summary of a value."""
    if len(records) != expected_warps:
        return RedundancyClass.NON_REDUNDANT
    first = records[0].summary
    if first.kind == NONE:
        return RedundancyClass.NON_REDUNDANT
    for rec in records:
        if rec.divergent or rec.summary != first:
            return RedundancyClass.NON_REDUNDANT
    if first.kind == UNIFORM:
        return RedundancyClass.UNIFORM
    if first.kind == AFFINE:
        return RedundancyClass.AFFINE
    assert first.kind == UNSTRUCTURED
    return RedundancyClass.UNSTRUCTURED


def grouped(records, key) -> Dict:
    groups = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec)
    return groups


def by_tb(records) -> Dict:
    """The records of each TB instance, in first-record order."""
    return grouped(records, lambda r: (r.tb_index, r.pc, r.occurrence))


def reference_instance(group, expected_warps: int) -> TBInstance:
    """What the table must hold for one TB instance's records."""
    first = group[0].summary
    return TBInstance(
        summary=first,
        warps=len(group),
        uniform_warps=sum(r.summary.kind == UNIFORM and not r.divergent for r in group),
        affine_warps=sum(r.summary.kind == AFFINE and not r.divergent for r in group),
        divergent=any(r.divergent for r in group),
        same=all(r.summary == first for r in group),
        redundancy=classify(group, expected_warps),
    )


def reference_table(records, expected_warps: int) -> Dict:
    return {key: reference_instance(group, expected_warps) for key, group in by_tb(records).items()}


def instance_bits(instance: TBInstance) -> tuple:
    """Every field of an instance, its summary's floats by bit pattern
    (so -0.0 differs from 0.0) and its flags as exact bools."""
    s = instance.summary
    assert type(instance.divergent) is bool and type(instance.same) is bool
    return (
        s.kind, struct.pack("<dd", s.base, s.stride), s.digest, instance.warps,
        instance.uniform_warps, instance.affine_warps, instance.divergent, instance.same,
        instance.redundancy,
    )


def table_bits(instances: Dict) -> list:
    """The whole table, in order: each key with its instance's bits."""
    return [(key, instance_bits(instance)) for key, instance in instances.items()]
