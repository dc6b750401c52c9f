//! Cross-technique validation (the paper's Table 2).
//!
//! Lacking ground truth, the paper validates its alias sets by comparing the
//! partitions produced by different techniques over the addresses responsive
//! to *both*: a set "agrees" when the other technique groups exactly the
//! same addresses together.  The same machinery compares against MIDAR.
//!
//! Everything here runs in the id space: inputs are [`CompactAliasSet`]s
//! plus sorted [`AddrId`] universes interned against one shared
//! [`AddrInterner`](crate::intern::AddrInterner).  Agreement counting is
//! invariant under the (bijective) address ↔ id relabeling, so the results
//! are identical to the former `BTreeSet<IpAddr>` formulation — the parity
//! suite pins that down.  Projection onto a universe builds one membership
//! mask over the universe's id range and filters every set through it, so
//! a whole validation is linear in the total set size plus the universe.

use crate::intern::{AddrId, CompactAliasSet};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Outcome of one pairwise validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationResult {
    /// Number of sets (from technique A) that could be tested.
    pub sample_size: usize,
    /// Sets whose membership exactly matches a set of technique B.
    pub agree: usize,
    /// Sets with mismatching membership.
    pub disagree: usize,
}

impl ValidationResult {
    /// Agreement rate in `[0, 1]`; 1.0 when nothing could be tested.
    pub fn agreement_rate(&self) -> f64 {
        if self.sample_size == 0 {
            1.0
        } else {
            self.agree as f64 / self.sample_size as f64
        }
    }
}

/// Ids present in both sorted id slices, as a sorted vector.
pub fn common_ids(a: &[AddrId], b: &[AddrId]) -> Vec<AddrId> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted");
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Membership mask over a sorted id universe: `mask[id]` says whether `id`
/// is a member.  Sized `universe.last() + 1`; ids past its end are not
/// members.
fn membership_mask(universe: &[AddrId]) -> Vec<bool> {
    debug_assert!(
        universe.windows(2).all(|w| w[0] < w[1]),
        "universe must be sorted"
    );
    let mut mask = vec![false; universe.last().map_or(0, |id| id.index() + 1)];
    for id in universe {
        mask[id.index()] = true;
    }
    mask
}

/// Restrict `sets` to the members of `mask`, dropping sets that no longer
/// have at least two members.
fn project_masked(sets: &[CompactAliasSet], mask: &[bool]) -> Vec<CompactAliasSet> {
    sets.iter()
        .filter_map(|set| {
            let kept: Vec<AddrId> = set
                .iter()
                .filter(|id| mask.get(id.index()).copied().unwrap_or(false))
                .collect();
            (kept.len() >= 2).then(|| CompactAliasSet::from_ids(kept))
        })
        .collect()
}

/// Restrict `sets` to the sorted id `universe`, dropping sets that no longer
/// have at least two members.
pub fn project_compact(sets: &[CompactAliasSet], universe: &[AddrId]) -> Vec<CompactAliasSet> {
    project_masked(sets, &membership_mask(universe))
}

/// Count how many already projected A sets match a projected B set exactly.
fn agreement(projected_a: &[CompactAliasSet], projected_b: &[CompactAliasSet]) -> ValidationResult {
    let b_lookup: HashSet<&[AddrId]> = projected_b.iter().map(|s| s.ids()).collect();
    let agree = projected_a
        .iter()
        .filter(|set| b_lookup.contains(set.ids()))
        .count();
    ValidationResult {
        sample_size: projected_a.len(),
        agree,
        disagree: projected_a.len() - agree,
    }
}

/// Compare technique A's sets against technique B's sets over the ids
/// responsive to both techniques.
///
/// Both set lists are first projected onto `common`; every projected A set
/// is then checked for an exact membership match among the projected B sets.
/// Both inputs must share one interner — comparing ids minted by different
/// interners is meaningless (the resolver translates first).
pub fn cross_validate(
    sets_a: &[CompactAliasSet],
    sets_b: &[CompactAliasSet],
    common: &[AddrId],
) -> ValidationResult {
    let mask = membership_mask(common);
    agreement(
        &project_masked(sets_a, &mask),
        &project_masked(sets_b, &mask),
    )
}

/// Validation against an IPID-based technique such as MIDAR.
///
/// MIDAR can only test addresses with a usable (monotonic, sampleable) IPID
/// counter, so most sampled sets cannot be verified at all.  `testable`
/// is the set of addresses for which MIDAR produced usable measurements;
/// sampled sets whose projection onto `testable` retains fewer than two
/// addresses are reported as `unverifiable`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MidarValidation {
    /// Sets in the sample.
    pub sampled: usize,
    /// Sets MIDAR could not test (insufficient usable addresses).
    pub unverifiable: usize,
    /// The pairwise comparison over the verifiable sets.
    pub result: ValidationResult,
}

impl MidarValidation {
    /// Fraction of sampled sets MIDAR could verify at all.
    pub fn coverage(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.result.sample_size as f64 / self.sampled as f64
        }
    }
}

/// Compare sampled alias sets against a MIDAR-style partition, with
/// `testable` the sorted ids MIDAR could measure at all.
pub fn validate_against_midar(
    sampled_sets: &[CompactAliasSet],
    midar_sets: &[CompactAliasSet],
    testable: &[AddrId],
) -> MidarValidation {
    let mask = membership_mask(testable);
    let projected = project_masked(sampled_sets, &mask);
    MidarValidation {
        sampled: sampled_sets.len(),
        unverifiable: sampled_sets.len() - projected.len(),
        result: agreement(&projected, &project_masked(midar_sets, &mask)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The former projection, kept as the oracle for the mask: one
    /// `common_ids` merge walk over the whole universe per set.
    fn merge_walk_projection(
        sets: &[CompactAliasSet],
        universe: &[AddrId],
    ) -> Vec<CompactAliasSet> {
        sets.iter()
            .map(|set| CompactAliasSet::from_ids(common_ids(set.ids(), universe)))
            .filter(|set| set.len() >= 2)
            .collect()
    }

    /// The former `cross_validate`, over the merge-walk projection.
    fn merge_walk_cross_validate(
        sets_a: &[CompactAliasSet],
        sets_b: &[CompactAliasSet],
        common: &[AddrId],
    ) -> ValidationResult {
        let projected_a = merge_walk_projection(sets_a, common);
        let projected_b = merge_walk_projection(sets_b, common);
        let b_lookup: HashSet<&[AddrId]> = projected_b.iter().map(|s| s.ids()).collect();
        let mut result = ValidationResult {
            sample_size: projected_a.len(),
            ..Default::default()
        };
        for set in &projected_a {
            if b_lookup.contains(set.ids()) {
                result.agree += 1;
            } else {
                result.disagree += 1;
            }
        }
        result
    }

    fn ids(raw: &[u32]) -> Vec<AddrId> {
        raw.iter().copied().map(AddrId).collect()
    }

    fn set(raw: &[u32]) -> CompactAliasSet {
        CompactAliasSet::from_ids(ids(raw))
    }

    #[test]
    fn identical_partitions_agree_fully() {
        let a = vec![set(&[0, 1]), set(&[2, 3])];
        let common = ids(&[0, 1, 2, 3]);
        let result = cross_validate(&a, &a, &common);
        assert_eq!(result.sample_size, 2);
        assert_eq!(result.agree, 2);
        assert_eq!(result.disagree, 0);
        assert_eq!(result.agreement_rate(), 1.0);
    }

    #[test]
    fn split_sets_disagree() {
        let a = vec![set(&[0, 1, 2])];
        // Technique B splits the set in two.
        let b = vec![set(&[0, 1]), set(&[2, 3])];
        let common = ids(&[0, 1, 2]);
        let result = cross_validate(&a, &b, &common);
        assert_eq!(result.sample_size, 1);
        assert_eq!(result.disagree, 1);
        assert_eq!(result.agreement_rate(), 0.0);
    }

    #[test]
    fn projection_respects_the_common_universe() {
        // A's set contains an id B never saw; after projection onto the
        // common universe they agree.
        let a = vec![set(&[0, 1, 9])];
        let b = vec![set(&[0, 1])];
        let common = ids(&[0, 1]);
        let result = cross_validate(&a, &b, &common);
        assert_eq!(result.agree, 1);
    }

    #[test]
    fn sets_that_vanish_after_projection_are_not_counted() {
        let a = vec![set(&[0, 1]), set(&[5, 6])];
        let b = vec![set(&[0, 1])];
        // Only the first set intersects the common universe with ≥2 ids.
        let common = ids(&[0, 1, 5]);
        let result = cross_validate(&a, &b, &common);
        assert_eq!(result.sample_size, 1);
        assert_eq!(result.agree, 1);
    }

    #[test]
    fn empty_sample_has_full_agreement_by_convention() {
        let result = cross_validate(&[], &[], &[]);
        assert_eq!(result.sample_size, 0);
        assert_eq!(result.agreement_rate(), 1.0);
    }

    #[test]
    fn midar_validation_reports_coverage() {
        let sampled = vec![
            set(&[0, 1]), // testable, agrees
            set(&[2, 3]), // untestable (random IPIDs)
            set(&[4, 5]), // testable, MIDAR splits it
        ];
        let midar = vec![set(&[0, 1]), set(&[4, 9])];
        let testable = ids(&[0, 1, 4, 5]);
        let validation = validate_against_midar(&sampled, &midar, &testable);
        assert_eq!(validation.sampled, 3);
        assert_eq!(validation.unverifiable, 1);
        assert_eq!(validation.result.sample_size, 2);
        assert_eq!(validation.result.agree, 1);
        assert!((validation.coverage() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn common_ids_is_a_sorted_intersection() {
        assert_eq!(common_ids(&ids(&[0, 1]), &ids(&[1, 2])), ids(&[1]));
        assert_eq!(common_ids(&ids(&[0, 2, 4]), &ids(&[1, 3, 5])), ids(&[]));
        assert_eq!(common_ids(&ids(&[0, 1, 2, 3]), &ids(&[1, 3])), ids(&[1, 3]));
    }

    #[test]
    fn ids_above_the_universe_are_not_members() {
        let sets = vec![set(&[1, 2, 7, 300]), set(&[8, 9])];
        let universe = ids(&[1, 2, 7]);
        assert_eq!(project_compact(&sets, &universe), vec![set(&[1, 2, 7])]);
        assert_eq!(project_compact(&sets, &[]), Vec::<CompactAliasSet>::new());
    }

    /// Sorted, deduplicated ids below `bound`.
    fn sorted_ids(bound: u32, max_len: usize) -> impl Strategy<Value = Vec<AddrId>> {
        prop::collection::vec(0..bound, 0..max_len).prop_map(|raw| {
            let mut out: Vec<AddrId> = raw.into_iter().map(AddrId).collect();
            out.sort_unstable();
            out.dedup();
            out
        })
    }

    /// Alias sets over ids below 64, so many fall outside a universe drawn
    /// below 48 and many shrink below two members when projected.
    fn alias_sets() -> impl Strategy<Value = Vec<CompactAliasSet>> {
        prop::collection::vec(sorted_ids(64, 8), 0..16)
            .prop_map(|sets| sets.into_iter().map(CompactAliasSet::from_ids).collect())
    }

    proptest! {
        #[test]
        fn mask_projection_matches_the_merge_walk(
            sets in alias_sets(),
            universe in prop_oneof![sorted_ids(48, 40), Just(Vec::new())],
        ) {
            prop_assert_eq!(
                project_compact(&sets, &universe),
                merge_walk_projection(&sets, &universe)
            );
        }

        #[test]
        fn mask_cross_validation_matches_the_merge_walk(
            sets_a in alias_sets(),
            sets_b in alias_sets(),
            common in prop_oneof![sorted_ids(48, 40), Just(Vec::new())],
        ) {
            prop_assert_eq!(
                cross_validate(&sets_a, &sets_b, &common),
                merge_walk_cross_validate(&sets_a, &sets_b, &common)
            );
            // A technique always agrees with itself.
            let own = cross_validate(&sets_a, &sets_a, &common);
            prop_assert_eq!(own.agree, own.sample_size);
        }

        #[test]
        fn midar_validation_matches_the_merge_walk(
            sampled in alias_sets(),
            midar in alias_sets(),
            testable in prop_oneof![sorted_ids(48, 40), Just(Vec::new())],
        ) {
            let validation = validate_against_midar(&sampled, &midar, &testable);
            prop_assert_eq!(validation.sampled, sampled.len());
            prop_assert_eq!(
                validation.unverifiable,
                sampled.len() - merge_walk_projection(&sampled, &testable).len()
            );
            prop_assert_eq!(
                validation.result,
                merge_walk_cross_validate(&sampled, &midar, &testable)
            );
        }
    }
}
