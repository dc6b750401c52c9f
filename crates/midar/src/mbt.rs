//! The Monotonic Bounds Test (MBT).
//!
//! MIDAR's core insight: if two addresses share one IPID counter, then the
//! time-ordered merge of their samples must itself be a monotonically
//! increasing sequence (modulo 16-bit wrap-around).  The test tolerates a
//! bounded number of wraps, inferred from the counter velocity.

use alias_scan::ipid_probe::IpidSample;

/// Verdict of a monotonic bounds test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbtVerdict {
    /// The merged sequence is consistent with a single shared counter.
    Consistent,
    /// The merged sequence cannot come from a single monotonic counter.
    Inconsistent,
    /// Not enough samples to decide.
    Insufficient,
}

impl MbtVerdict {
    /// Whether the verdict supports aliasing.
    pub fn is_consistent(self) -> bool {
        self == MbtVerdict::Consistent
    }
}

/// Extra counter advance tolerated between consecutive samples on top of
/// `max_velocity * Δt`.
const SLACK: f64 = 64.0;

/// Merge two per-address sample series by time and test whether the result
/// is a single monotonic (mod 2^16) sequence.
///
/// `max_velocity` is the highest counter velocity (increments per second)
/// considered testable; between consecutive samples the counter is allowed
/// to advance by at most `max_velocity * Δt + SLACK`, and never to go
/// backwards.
///
/// Each series must be time-sorted (the IPID prober emits strictly
/// increasing times).  The merge is stable: on equal timestamps `a`'s sample
/// comes first.  It walks both series in place, without allocating.
pub fn monotonic_bounds_test(a: &[IpidSample], b: &[IpidSample], max_velocity: f64) -> MbtVerdict {
    if a.len() < 2 || b.len() < 2 {
        return MbtVerdict::Insufficient;
    }
    debug_assert!(
        is_time_sorted(a) && is_time_sorted(b),
        "MBT series must be time-sorted"
    );
    let (mut i, mut j) = (0, 0);
    let mut prev: Option<IpidSample> = None;
    while i < a.len() || j < b.len() {
        let next = if j == b.len() || (i < a.len() && a[i].time <= b[j].time) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        if let Some(prev) = prev {
            if !step_fits(prev, next, max_velocity) {
                return MbtVerdict::Inconsistent;
            }
        }
        prev = Some(next);
    }
    MbtVerdict::Consistent
}

/// Whether one counter can move from `prev` to `next`.
fn step_fits(prev: IpidSample, next: IpidSample, max_velocity: f64) -> bool {
    let dt = next.time.since(prev.time).as_secs_f64();
    let delta = next.ipid.wrapping_sub(prev.ipid) as f64;
    // A shared counter can only move forward; `delta` is the forward
    // distance mod 2^16.  If the counter moved further than the velocity
    // bound allows, the samples cannot be explained by one counter (either
    // they are unrelated, or the counter wrapped because it is too fast to
    // be testable — MIDAR rejects both).
    if delta == 0.0 && dt > 0.0 {
        return false;
    }
    if delta > max_velocity * dt + SLACK {
        return false;
    }
    true
}

fn is_time_sorted(series: &[IpidSample]) -> bool {
    series.windows(2).all(|w| w[0].time <= w[1].time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::SimTime;
    use proptest::prelude::*;

    /// The former sort-based test, kept as the oracle for the merge walk:
    /// concatenate the series, stable-sort by time, check every step.
    fn sort_based_oracle(series: &[&[IpidSample]], max_velocity: f64) -> MbtVerdict {
        let mut merged: Vec<IpidSample> = series.iter().flat_map(|s| s.iter().copied()).collect();
        if merged.len() < 4 || series.iter().any(|s| s.len() < 2) {
            return MbtVerdict::Insufficient;
        }
        merged.sort_by_key(|s| s.time);

        let slack = 64.0;
        for window in merged.windows(2) {
            let dt = window[1].time.since(window[0].time).as_secs_f64();
            let delta = window[1].ipid.wrapping_sub(window[0].ipid) as f64;
            let allowed = max_velocity * dt + slack;
            if delta == 0.0 && dt > 0.0 {
                return MbtVerdict::Inconsistent;
            }
            if delta > allowed {
                return MbtVerdict::Inconsistent;
            }
        }
        MbtVerdict::Consistent
    }

    fn series(samples: &[(u64, u16)]) -> Vec<IpidSample> {
        samples
            .iter()
            .map(|&(ms, ipid)| IpidSample {
                time: SimTime(ms),
                ipid,
            })
            .collect()
    }

    #[test]
    fn shared_counter_is_consistent() {
        let a = series(&[(0, 100), (2_000, 110), (4_000, 122)]);
        let b = series(&[(1_000, 105), (3_000, 117), (5_000, 130)]);
        assert_eq!(monotonic_bounds_test(&a, &b, 100.0), MbtVerdict::Consistent);
    }

    #[test]
    fn independent_counters_are_inconsistent() {
        // Two counters with far-apart bases: the interleaved sequence jumps
        // backwards (i.e. forward by an enormous amount mod 2^16).
        let a = series(&[(0, 100), (2_000, 110), (4_000, 122)]);
        let b = series(&[(1_000, 40_000), (3_000, 40_010), (5_000, 40_025)]);
        assert_eq!(
            monotonic_bounds_test(&a, &b, 100.0),
            MbtVerdict::Inconsistent
        );
    }

    #[test]
    fn wraparound_within_velocity_bound_is_tolerated() {
        // Counter near the top of the range wraps; deltas stay small.
        let a = series(&[(0, 65_500), (2_000, 65_530), (4_000, 20)]);
        let b = series(&[(1_000, 65_515), (3_000, 5), (5_000, 40)]);
        assert_eq!(monotonic_bounds_test(&a, &b, 100.0), MbtVerdict::Consistent);
    }

    #[test]
    fn high_velocity_counter_is_rejected() {
        // The counter advances ~30k per second: between 1-second samples the
        // allowed bound (velocity cap 1000/s) is exceeded.
        let a = series(&[(0, 0), (2_000, 60_000), (4_000, 54_464)]);
        let b = series(&[(1_000, 30_000), (3_000, 24_464), (5_000, 18_928)]);
        assert_eq!(
            monotonic_bounds_test(&a, &b, 1_000.0),
            MbtVerdict::Inconsistent
        );
    }

    #[test]
    fn constant_ipids_are_inconsistent() {
        let a = series(&[(0, 0), (2_000, 0), (4_000, 0)]);
        let b = series(&[(1_000, 0), (3_000, 0), (5_000, 0)]);
        assert_eq!(
            monotonic_bounds_test(&a, &b, 100.0),
            MbtVerdict::Inconsistent
        );
    }

    #[test]
    fn too_few_samples_is_insufficient() {
        let a = series(&[(0, 1)]);
        let b = series(&[(1_000, 2), (2_000, 3), (3_000, 4)]);
        assert_eq!(
            monotonic_bounds_test(&a, &b, 100.0),
            MbtVerdict::Insufficient
        );
        assert!(!MbtVerdict::Insufficient.is_consistent());
        assert!(MbtVerdict::Consistent.is_consistent());
    }

    #[test]
    fn equal_timestamps_take_the_first_series_first() {
        // At t = 1000 both series have a sample.  Taking `a`'s first gives
        // 100, 110, 105: a backwards step.  With the series swapped the
        // merged order is 100, 105, 110, 120, which one counter explains.
        let a = series(&[(0, 100), (1_000, 110)]);
        let b = series(&[(1_000, 105), (2_000, 120)]);
        assert_eq!(
            monotonic_bounds_test(&a, &b, 100.0),
            MbtVerdict::Inconsistent
        );
        assert_eq!(monotonic_bounds_test(&b, &a, 100.0), MbtVerdict::Consistent);
        assert_eq!(
            sort_based_oracle(&[&a, &b], 100.0),
            MbtVerdict::Inconsistent
        );
        assert_eq!(sort_based_oracle(&[&b, &a], 100.0), MbtVerdict::Consistent);
    }

    /// Samples of one counter read at random times, dealt to two series:
    /// `(time step, counter step, goes to series a)`.  Time steps of zero
    /// give equal timestamps, also across the two series; counter steps of
    /// zero and above the velocity bound give inconsistent merges.
    fn dealt_series() -> impl Strategy<Value = (Vec<IpidSample>, Vec<IpidSample>)> {
        (
            prop_oneof![65_300u16..=u16::MAX, any::<u16>()],
            0u64..3_000,
            prop::collection::vec(
                (
                    0u64..3,
                    prop_oneof![1u16..40, 1u16..40, 1u16..40, 0u16..180],
                    any::<bool>(),
                ),
                0..24,
            ),
        )
            .prop_map(|(ipid0, t0, steps)| {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let (mut time, mut ipid) = (t0, ipid0);
                for (dt, dipid, to_a) in steps {
                    time += dt * 500;
                    ipid = ipid.wrapping_add(dipid);
                    let sample = IpidSample {
                        time: SimTime(time),
                        ipid,
                    };
                    if to_a {
                        a.push(sample);
                    } else {
                        b.push(sample);
                    }
                }
                (a, b)
            })
    }

    /// A time-sorted series with arbitrary counter values.
    fn arbitrary_series() -> impl Strategy<Value = Vec<IpidSample>> {
        prop::collection::vec((0u64..3, any::<u16>()), 0..8).prop_map(|steps| {
            let mut time = 0;
            steps
                .into_iter()
                .map(|(dt, ipid)| {
                    time += dt * 500;
                    IpidSample {
                        time: SimTime(time),
                        ipid,
                    }
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn merge_walk_matches_the_sort_based_oracle_on_one_counter(
            cases in prop::collection::vec(dealt_series(), 16),
            max_velocity in prop_oneof![Just(20.0), Just(100.0), Just(1_000.0)],
        ) {
            for (a, b) in &cases {
                prop_assert_eq!(
                    monotonic_bounds_test(a, b, max_velocity),
                    sort_based_oracle(&[a, b], max_velocity)
                );
                prop_assert_eq!(
                    monotonic_bounds_test(b, a, max_velocity),
                    sort_based_oracle(&[b, a], max_velocity)
                );
            }
        }

        #[test]
        fn merge_walk_matches_the_sort_based_oracle_on_unrelated_series(
            cases in prop::collection::vec((arbitrary_series(), arbitrary_series()), 16),
            max_velocity in prop_oneof![Just(100.0), Just(40_000.0), Just(70_000.0)],
        ) {
            for (a, b) in &cases {
                prop_assert_eq!(
                    monotonic_bounds_test(a, b, max_velocity),
                    sort_based_oracle(&[a, b], max_velocity)
                );
            }
        }
    }
}
