//! Set programs: a compiled plan lowered to hoisted intersection ops
//! (Section IV-B phase 2, Figures 5(b)/6(b) of the paper).
//!
//! GraphPi's generated code never recomputes a candidate set on loop entry:
//! it builds `N(v_A) ∩ N(v_B)` once, in the loop of the **last** parent to
//! bind, keeps it in a temporary, and extends it (`tmp ∩ N(v_C)`) when a
//! deeper loop needs a superset of the same parents. A [`SetProgram`] is
//! that generated program in data form:
//!
//! * every set the plan reads is `∩ N(v_p)` over a set of loop positions,
//!   so it is named by its **parent mask** and each distinct mask is built
//!   exactly once, by one [`SetOp`] `slot ← (slot | N(v_j)) ∩ N(v_i)` that
//!   runs when loop `i` — the highest position in the mask — binds;
//! * a loop's candidate set is an [`Operand`]: all vertices, one raw
//!   neighbourhood, or a slot;
//! * the IEP leaf (Section IV-D) is an [`IepTable`]: the set partitions of
//!   the `k` suffix vertices with their signed Möbius coefficients merged,
//!   each block's cardinality read from the slot of the union of its
//!   members' parent masks.
//!
//! The interpreter, the parallel and pooled task kernels and IEP counting
//! all execute this one program ([`crate::exec::interp`]);
//! [`crate::perf_model`] charges exactly its ops and [`crate::codegen`]
//! renders it.

use crate::config::{ExecutionPlan, IepCorrection};
use std::collections::BTreeMap;

/// A set of loop positions, one bit per position.
pub(crate) type Mask = u8;

/// Where a loop or an op reads a set from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    /// Every data vertex (no bound parent).
    All,
    /// The raw neighbourhood of the vertex bound by this loop position.
    Adj(u8),
    /// The slot with this index, built by an earlier op.
    Slot(u8),
}

/// One hoisted intersection: `dst ← lhs ∩ N(v_depth)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SetOp {
    /// The loop whose binding makes the op computable; its neighbourhood is
    /// the right operand.
    pub depth: u8,
    /// The positions whose neighbourhoods `dst` intersects.
    pub mask: Mask,
    /// The left operand: the same mask without `depth`.
    pub lhs: Operand,
    /// The slot written: the op's position in run order, so always greater
    /// than the slot `lhs` reads.
    pub dst: u8,
    /// The first loop that draws its candidates from this op's set or from
    /// a superset chain through it, or the loop count when only the IEP
    /// leaf reads it. A walk that stops before that loop skips the op, and
    /// an empty result below it ends the subtree.
    pub first_loop: u8,
    /// Under IEP only the cardinality is read, so the set is not
    /// materialised.
    pub count_only: bool,
}

/// One distinct set whose cardinality the IEP leaf reads: `∩ N(v_p)` over
/// the union of the parent masks of one block of suffix vertices, minus the
/// bound prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IepSet {
    /// Where the unreduced cardinality comes from.
    pub source: Operand,
    /// Bound vertices the pattern's own edges place inside the set.
    pub sure: u64,
    /// `(q, probes)`: the vertex bound by loop `q` is inside the set iff it
    /// is adjacent to the vertex of every position in `probes` (its pattern
    /// edges already cover the rest of the mask).
    pub probes: Vec<(u8, Mask)>,
}

/// One merged inclusion–exclusion term: `coeff × Π |sets[f]|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IepTerm {
    /// Sum of the Möbius coefficients of the partitions that share these
    /// factors.
    pub coeff: i64,
    /// Indices into [`IepTable::sets`], one per block, ascending.
    pub factors: Vec<u8>,
}

/// The IEP leaf of a plan, precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IepTable {
    /// Number of loops walked before the leaf (`n - k`).
    pub outer: usize,
    /// The distinct block sets.
    pub sets: Vec<IepSet>,
    /// The merged terms.
    pub terms: Vec<IepTerm>,
}

/// A plan lowered to hoisted set ops; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SetProgram {
    /// Every op, ordered by depth.
    ops: Vec<SetOp>,
    /// `ops[starts[d]..starts[d + 1]]` run when loop `d` binds.
    starts: Vec<usize>,
    /// Candidate set of each loop.
    candidates: Vec<Operand>,
    iep: Option<IepTable>,
}

impl SetProgram {
    /// Lowers a compiled plan.
    pub(crate) fn lower(plan: &ExecutionPlan) -> Self {
        let n = plan.num_loops();
        let mut chains = Chains::default();
        let masks: Vec<Mask> = plan
            .loops
            .iter()
            .map(|l| l.parents.iter().fold(0, |m, &p| m | 1 << p))
            .collect();
        let mut candidates: Vec<Operand> = masks
            .iter()
            .enumerate()
            .map(|(t, &mask)| chains.operand(mask, t as u8))
            .collect();

        let k = plan.iep_suffix_len;
        let uniform = matches!(
            plan.iep_correction,
            IepCorrection::DividePrefixRestricted { .. }
        );
        let mut iep = (k >= 2 && n > k && uniform)
            .then(|| IepTable::build(plan, &masks[n - k..], &mut chains));

        // Run order is depth order; number the slots in it. An op's left
        // operand is built at a shallower depth, so it keeps a lower slot.
        let mut ops = chains.ops;
        ops.sort_by_key(|op| op.depth);
        let mut renumbered = vec![0u8; ops.len()];
        for (slot, op) in ops.iter().enumerate() {
            renumbered[op.dst as usize] = slot as u8;
        }
        let renumber = |operand: &mut Operand| {
            if let Operand::Slot(slot) = operand {
                *slot = renumbered[*slot as usize];
            }
        };
        candidates.iter_mut().for_each(renumber);
        for set in iep.iter_mut().flat_map(|table| &mut table.sets) {
            renumber(&mut set.source);
        }
        for (slot, op) in ops.iter_mut().enumerate() {
            renumber(&mut op.lhs);
            op.dst = slot as u8;
        }
        if let Some(table) = &iep {
            // The leaf reads cardinalities; a set is materialised only for
            // a walked loop to iterate or a later op to extend.
            let extended: Vec<Operand> = ops.iter().map(|op| op.lhs).collect();
            for op in &mut ops {
                op.count_only = op.first_loop as usize >= table.outer
                    && !extended.contains(&Operand::Slot(op.dst));
            }
        }
        let starts = (0..=n)
            .map(|d| ops.partition_point(|op| (op.depth as usize) < d))
            .collect();
        Self {
            ops,
            starts,
            candidates,
            iep,
        }
    }

    /// The ops that run when loop `depth` binds its vertex.
    #[inline]
    pub(crate) fn ops_at(&self, depth: usize) -> &[SetOp] {
        &self.ops[self.starts[depth]..self.starts[depth + 1]]
    }

    /// The candidate set of loop `depth`.
    #[inline]
    pub(crate) fn candidates(&self, depth: usize) -> Operand {
        self.candidates[depth]
    }

    /// Number of slots the ops write.
    pub(crate) fn num_slots(&self) -> usize {
        self.ops.len()
    }

    /// The IEP leaf, present exactly when IEP counting can run this plan:
    /// an independent suffix of at least two loops below at least one outer
    /// loop, and a uniform over-count to divide by.
    #[inline]
    pub(crate) fn iep(&self) -> Option<&IepTable> {
        self.iep.as_ref()
    }
}

/// The ops built so far, one per distinct multi-parent mask; an op's index
/// is the slot it writes.
#[derive(Default)]
struct Chains {
    ops: Vec<SetOp>,
}

impl Chains {
    /// The operand holding `∩ N(v_p)` over `mask`, creating the ops of its
    /// ascending chain (`{p1,p2}`, `{p1,p2,p3}`, …) as needed and recording
    /// that loop `reader` draws candidates through every one of them.
    fn operand(&mut self, mask: Mask, reader: u8) -> Operand {
        match mask.count_ones() {
            0 => Operand::All,
            1 => Operand::Adj(mask.trailing_zeros() as u8),
            _ => {
                let top = (Mask::BITS - 1 - mask.leading_zeros()) as u8;
                let lhs = self.operand(mask & !(1 << top), reader);
                let slot = match self.ops.iter().position(|op| op.mask == mask) {
                    Some(slot) => slot,
                    None => {
                        self.ops.push(SetOp {
                            depth: top,
                            mask,
                            lhs,
                            dst: self.ops.len() as u8,
                            first_loop: reader,
                            count_only: false,
                        });
                        self.ops.len() - 1
                    }
                };
                let op = &mut self.ops[slot];
                op.first_loop = op.first_loop.min(reader);
                Operand::Slot(slot as u8)
            }
        }
    }
}

impl IepTable {
    fn build(plan: &ExecutionPlan, suffix_masks: &[Mask], chains: &mut Chains) -> Self {
        let n = plan.num_loops();
        let outer = n - suffix_masks.len();
        let order = plan.config.schedule.order();
        let pattern = &plan.config.pattern;
        let mut set_masks: Vec<Mask> = Vec::new();
        let mut merged: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
        for_each_partition(suffix_masks.len(), |blocks| {
            let mut coeff = 1i64;
            let mut factors: Vec<u8> = blocks
                .iter()
                .map(|members| {
                    coeff *= block_coefficient(members.len());
                    let mask = members.iter().fold(0, |m, &i| m | suffix_masks[i]);
                    let at = set_masks.iter().position(|&m| m == mask);
                    at.unwrap_or_else(|| {
                        set_masks.push(mask);
                        set_masks.len() - 1
                    }) as u8
                })
                .collect();
            factors.sort_unstable();
            *merged.entry(factors).or_insert(0) += coeff;
        });
        let sets = set_masks
            .iter()
            .map(|&mask| {
                let mut set = IepSet {
                    // Only the leaf reads these: they gate no loop.
                    source: chains.operand(mask, n as u8),
                    sure: 0,
                    probes: Vec::new(),
                };
                for q in (0..outer).filter(|q| mask & (1 << q) == 0) {
                    let probes = (0..outer)
                        .filter(|&p| mask & (1 << p) != 0 && !pattern.has_edge(order[q], order[p]))
                        .fold(0, |m, p| m | 1 << p);
                    if probes == 0 {
                        set.sure += 1;
                    } else {
                        set.probes.push((q as u8, probes));
                    }
                }
                set
            })
            .collect();
        let terms = merged
            .into_iter()
            .filter(|&(_, coeff)| coeff != 0)
            .map(|(factors, coeff)| IepTerm { coeff, factors })
            .collect();
        Self { outer, sets, terms }
    }
}

/// A block's factor in the Möbius function of the partition lattice,
/// `(-1)^(len-1) (len-1)!`: the coefficient of a partition in the
/// inclusion–exclusion sum is the product over its blocks.
pub(crate) fn block_coefficient(len: usize) -> i64 {
    (1..len as i64).map(|i| -i).product()
}

/// Visits every partition of `0..k` into non-empty blocks (Bell(k) of
/// them), as restricted growth strings.
pub(crate) fn for_each_partition(k: usize, mut visit: impl FnMut(&[Vec<usize>])) {
    fn grow(
        i: usize,
        k: usize,
        blocks: &mut Vec<Vec<usize>>,
        visit: &mut dyn FnMut(&[Vec<usize>]),
    ) {
        if i == k {
            return visit(blocks);
        }
        for b in 0..blocks.len() {
            blocks[b].push(i);
            grow(i + 1, k, blocks, visit);
            blocks[b].pop();
        }
        blocks.push(vec![i]);
        grow(i + 1, k, blocks, visit);
        blocks.pop();
    }
    grow(0, k, &mut Vec::new(), &mut visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::schedule::Schedule;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::RestrictionSet;

    fn program(pattern: graphpi_pattern::Pattern, order: Vec<usize>) -> SetProgram {
        let schedule = Schedule::new(&pattern, order);
        let plan = Configuration::new(pattern, schedule, RestrictionSet::empty()).compile();
        plan.program().clone()
    }

    #[test]
    fn house_program_matches_figure_5b() {
        let program = program(prefab::house(), vec![0, 1, 2, 3, 4]);
        // E's candidates N(A) ∩ N(B) are built when B binds, D's
        // N(B) ∩ N(C) when C binds; the IEP pair set extends the former.
        let ops: Vec<(u8, Mask, Operand)> = program
            .ops
            .iter()
            .map(|op| (op.depth, op.mask, op.lhs))
            .collect();
        assert_eq!(
            ops,
            vec![
                (1, 0b011, Operand::Adj(0)),
                (2, 0b110, Operand::Adj(1)),
                (2, 0b111, Operand::Slot(0)),
            ]
        );
        assert_eq!(program.candidates(0), Operand::All);
        assert_eq!(program.candidates(2), Operand::Adj(0));
        assert_eq!(program.candidates(3), Operand::Slot(1));
        assert_eq!(program.candidates(4), Operand::Slot(0));
        // N(A) ∩ N(B) feeds the triple set, so IEP materialises it; the
        // other two are only counted. Enumeration never runs the triple.
        let by_mask = |mask: Mask| program.ops.iter().find(|op| op.mask == mask).unwrap();
        assert!(!by_mask(0b011).count_only);
        assert!(by_mask(0b110).count_only && by_mask(0b111).count_only);
        assert_eq!(by_mask(0b011).first_loop, 4);
        assert_eq!(by_mask(0b110).first_loop, 3);
        assert_eq!(by_mask(0b111).first_loop, 5);
    }

    #[test]
    fn shared_prefixes_are_built_once() {
        // K4: loop 2 reads N0∩N1, loop 3 extends the same slot.
        let program = program(prefab::clique(4), vec![0, 1, 2, 3]);
        assert_eq!(program.num_slots(), 2);
        assert_eq!(program.ops[1].lhs, Operand::Slot(0));
        assert_eq!(program.ops[0].first_loop, 2);
        assert!(program.iep().is_none());
    }

    #[test]
    fn coinciding_block_sets_collapse() {
        // Cycle-6-Tri: the three pair sets and the triple are all
        // N0∩N1∩N2, so the leaf reads four sets and five merged terms.
        let table = program(prefab::cycle_6_tri(), vec![0, 1, 2, 3, 4, 5])
            .iep()
            .cloned()
            .unwrap();
        assert_eq!(table.outer, 3);
        assert_eq!(table.sets.len(), 4);
        assert_eq!(table.terms.len(), 5);
        // The double star's four leaves hang off two hubs: three sets.
        let table = program(prefab::p2(), vec![0, 1, 2, 3, 4, 5])
            .iep()
            .cloned()
            .unwrap();
        assert_eq!(table.sets.len(), 3);
    }

    #[test]
    fn partition_counts_are_bell_numbers() {
        for (k, bell) in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)] {
            let mut count = 0;
            for_each_partition(k, |blocks| {
                assert_eq!(blocks.iter().map(Vec::len).sum::<usize>(), k);
                count += 1;
            });
            assert_eq!(count, bell, "k = {k}");
        }
    }
}
