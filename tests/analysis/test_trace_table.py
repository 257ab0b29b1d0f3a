"""The TB-instance table against the flat per-warp record list.

The tracer reduces each warp-instruction into its ``(tb, pc,
occurrence)`` TB instance as it flushes, and keeps only the instance:
its warp count, shared summary, undiverged uniform and affine counts,
divergence, agreement and class.  The limit studies, the opportunity
report, the soundness audit and the DAC-IDEAL profile read those fields.
The reference here is the model the table replaced, written out: a flat
list of per-warp records in record order (``tests/flat_trace.py``), each
summarized by the per-vector rules, which every consumer regrouped by
``(tb, pc, occurrence)`` (the limit study's grid level by ``(pc,
occurrence)``) and classified again.  On every workload at tiny the two
must agree exactly: every instance's fields and class, the Figure 1 and
2 breakdowns, the per-PC opportunity counts, the audit (on the real
markings and on every instruction forced to DR) and the DAC profile.
"""

import pytest

from repro import analyze_program, promote_markings, redundancy_levels, taxonomy_breakdown
from repro.analysis.limit_study import LevelBreakdown
from repro.analysis.opportunity import opportunity_report
from repro.analysis.taxonomy_study import TaxonomyBreakdown
from repro.baselines.dac import build_dac_profile
from repro.core.taxonomy import Marking
from repro.simt import run_functional
from repro.simt.tracer import AFFINE, RedundancyClass, UNIFORM
from repro.staticlib.soundness import SoundnessViolation, audit_workload
from repro.workloads import EXTENDED_ABBRS, build_workload
from tests.flat_trace import FlatTracer, by_tb, classify, grouped, reference_table, table_bits


# -- the regroup-and-classify code the table replaced --------------------------


def reference_levels(records, warps, blocks):
    total = len(records)
    tb_keys = {key for key, group in by_tb(records).items()
               if classify(group, warps) is not RedundancyClass.NON_REDUNDANT}
    grid = sum(len(group) for group in grouped(records, lambda r: (r.pc, r.occurrence)).values()
               if classify(group, warps * blocks) is not RedundancyClass.NON_REDUNDANT)
    tb = warp = scalar = vector = 0
    for rec in records:
        in_tb = (rec.tb_index, rec.pc, rec.occurrence) in tb_keys
        uniform = rec.summary.kind == UNIFORM and not rec.divergent
        tb += in_tb
        warp += uniform
        scalar += uniform and not in_tb
        vector += not uniform and not in_tb
    return LevelBreakdown(total=total, grid=grid / total, tb=tb / total, warp=warp / total,
                          vector=vector / total, scalar=scalar / total)


def reference_taxonomy(records, warps):
    total = len(records)
    counts = {cls: 0 for cls in RedundancyClass}
    for group in by_tb(records).values():
        counts[classify(group, warps)] += len(group)
    return TaxonomyBreakdown(
        total=total,
        uniform=counts[RedundancyClass.UNIFORM] / total,
        affine=counts[RedundancyClass.AFFINE] / total,
        unstructured=counts[RedundancyClass.UNSTRUCTURED] / total,
        non_redundant=counts[RedundancyClass.NON_REDUNDANT] / total,
    )


def reference_opportunity(records, warps):
    executions, redundant = {}, {}
    for (_tb, pc, _occ), group in by_tb(records).items():
        executions[pc] = executions.get(pc, 0) + len(group)
        if classify(group, warps) is not RedundancyClass.NON_REDUNDANT:
            redundant[pc] = redundant.get(pc, 0) + len(group)
    return executions, redundant


def reference_audit(program, static, promoted, records, warps, workload):
    site_counts, divergent_sites = {}, set()
    for rec in records:
        site = (rec.tb_index, rec.pc)
        counts = site_counts.setdefault(site, {})
        counts[rec.warp_id] = counts.get(rec.warp_id, 0) + 1
        if rec.divergent:
            divergent_sites.add(site)
    violations, checked_pcs, checked = [], set(), 0
    for (tb, pc, occ), group in by_tb(records).items():
        counts = site_counts[(tb, pc)]
        if promoted.get(pc) is not Marking.REDUNDANT or (tb, pc) in divergent_sites:
            continue
        if len(counts) != warps or len(set(counts.values())) != 1:
            continue
        inst = program.at(pc)
        if inst.dest_register() is None and inst.dest_predicate() is None:
            continue
        checked_pcs.add(pc)
        checked += 1
        cls = classify(group, warps)
        if static.get(pc, Marking.VECTOR) is Marking.REDUNDANT:
            sound, expectation, marking = (
                cls is RedundancyClass.UNIFORM, "uniform across all warps", "DR")
        else:
            sound, expectation, marking = (
                cls is not RedundancyClass.NON_REDUNDANT, "TB-redundant across all warps",
                f"{static.get(pc, Marking.VECTOR).short}->DR")
        if sound:
            continue
        observed = f"dynamically {cls.value}"
        violations.append(SoundnessViolation(
            workload=workload, pc=pc, tb_index=tb, occurrence=occ, marking=marking,
            observed=observed,
            message=f"statically marked {marking} (must be {expectation}) "
            f"but was {observed} — compiler-pass bug: `{inst}`",
        ))
    return len(checked_pcs), checked, violations


def reference_dac(program, records, warps):
    profile = {}
    for (tb, pc, occ), group in by_tb(records).items():
        if len(group) != warps:
            continue
        inst = program.at(pc)
        if inst.is_memory or (inst.dest_register() is None and inst.dest_predicate() is None):
            continue
        kinds = {r.summary.kind for r in group}
        if any(r.divergent for r in group):
            continue
        if kinds <= {UNIFORM, AFFINE}:
            executor = min(r.warp_id for r in group)
            kind = UNIFORM if kinds == {UNIFORM} else AFFINE
            for rec in group:
                if rec.warp_id != executor:
                    profile[(tb, rec.warp_id, pc, occ)] = kind
    return profile


# -- the comparisons -----------------------------------------------------------


@pytest.fixture(scope="module", params=EXTENDED_ABBRS)
def run(request):
    """One traced run per workload: the workload, its table and its flat
    records."""
    workload = build_workload(request.param, "tiny")
    mem, params = workload.fresh()
    tracer = FlatTracer()
    run_functional(workload.program, workload.launch, mem, params=params, tracer=tracer)
    return workload, tracer.trace, tracer.records


class TestTableMatchesRegrouping:
    def test_instances_and_classes(self, run):
        workload, trace, records = run
        warps = workload.launch.warps_per_block
        assert trace.warps_per_block == warps
        assert len(trace) == len(records) > 0
        assert table_bits(trace.instances) == table_bits(reference_table(records, warps))

    def test_figure1_and_figure2(self, run):
        workload, trace, records = run
        warps, blocks = workload.launch.warps_per_block, workload.launch.num_blocks
        assert redundancy_levels(trace) == reference_levels(records, warps, blocks)
        assert taxonomy_breakdown(trace) == reference_taxonomy(records, warps)

    def test_opportunity_rows(self, run):
        workload, trace, records = run
        report = opportunity_report(analyze_program(workload.program), trace, workload.launch)
        executions, redundant = reference_opportunity(records, workload.launch.warps_per_block)
        assert [(r.pc, r.executions, r.redundant_executions) for r in report.rows] == [
            (inst.pc, executions.get(inst.pc, 0), redundant.get(inst.pc, 0))
            for inst in workload.program.instructions
        ]
        assert report.total_executions == len(records)

    @pytest.mark.parametrize("forced", [False, True], ids=["real", "all-dr"])
    def test_audit(self, run, forced):
        workload, _trace, records = run
        program = workload.program
        markings = analyze_program(program).instruction_markings
        if forced:
            markings = {pc: Marking.REDUNDANT for pc in markings}
        audit = audit_workload(workload, markings=markings if forced else None)
        promoted = promote_markings(markings, workload.launch)
        assert (audit.dr_pcs, audit.groups_checked, audit.violations) == reference_audit(
            program, markings, promoted, records, workload.launch.warps_per_block, workload.abbr
        )
        assert forced or audit.ok

    def test_dac_profile(self, run):
        workload, _trace, records = run
        mem, params = workload.fresh()
        profile = build_dac_profile(workload.program, workload.launch, mem.words.copy(), params)
        assert profile == reference_dac(workload.program, records, workload.launch.warps_per_block)
