//! Benign diurnal load traces (the background of Fig. 2).
//!
//! Real datacenter utilization averages 20–30 % but fluctuates enormously
//! (§IV-A); the paper's one-week RAPL monitoring of 8 servers shows a
//! 899–1199 W aggregate band with drastic changes on days 2 and 5. This
//! generator reproduces that shape: a per-host diurnal sine, autocorrelated
//! noise, and scheduled surge events.

use cloudsim::{Cloud, HostId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// A scheduled fleet-wide surge (flash-crowd) event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurgeEvent {
    /// Start, seconds into the trace.
    pub start_s: u64,
    /// Duration, seconds.
    pub duration_s: u64,
    /// Extra demand added to every host, `[0, 1]`.
    pub extra_demand: f64,
}

/// The extra demand `s` adds at `t_s`, inside its window.
fn surge_demand(s: &SurgeEvent, t_s: u64) -> f64 {
    // Ramp in/out over 10% of the duration.
    let ramp = s.duration_s as f64 * 0.1;
    let into = (t_s - s.start_s) as f64;
    let left = (s.start_s + s.duration_s - t_s) as f64;
    let shape = (into / ramp).min(1.0).min(left / ramp);
    s.extra_demand * shape
}

/// The diurnal demand generator.
#[derive(Debug, Clone)]
pub struct DiurnalTrace {
    base: f64,
    amplitude: f64,
    noise: f64,
    phase_per_host_s: u64,
    surges: Vec<SurgeEvent>,
    index: SurgeIndex,
    rng: StdRng,
    noise_state: Vec<f64>,
    /// The active surges' demands at the instant [`DiurnalTrace::apply`]
    /// last evaluated, in `surges` order.
    surge_terms: Vec<f64>,
}

/// The surges sorted by start, so a lookup visits only those that began
/// at or before an instant and may not have ended yet.
#[derive(Debug, Clone, Default)]
struct SurgeIndex {
    /// `(start, end, position in surges)`, sorted.
    by_start: Vec<(u64, u64, usize)>,
    /// The latest end among `by_start[..=i]`, for each `i`.
    max_end: Vec<u64>,
}

impl SurgeIndex {
    fn new(surges: &[SurgeEvent]) -> Self {
        let mut by_start: Vec<(u64, u64, usize)> = surges
            .iter()
            .enumerate()
            .map(|(i, s)| (s.start_s, s.start_s + s.duration_s, i))
            .collect();
        by_start.sort_unstable();
        let max_end = by_start
            .iter()
            .scan(0, |latest, &(_, end, _)| {
                *latest = end.max(*latest);
                Some(*latest)
            })
            .collect();
        SurgeIndex { by_start, max_end }
    }

    /// Visits the position in `surges` of every surge active at `t_s`,
    /// ascending. The hits are sorted in a stack buffer; only more than
    /// [`STACK_HITS`] overlapping surges spill to the heap.
    fn active(&self, t_s: u64, mut visit: impl FnMut(usize)) {
        let began = self.by_start.partition_point(|&(start, _, _)| start <= t_s);
        let hits = || {
            (0..began)
                .rev()
                .take_while(move |&i| self.max_end[i] > t_s)
                .filter(move |&i| self.by_start[i].1 > t_s)
                .map(|i| self.by_start[i].2)
        };
        let mut buf = [0usize; STACK_HITS];
        let mut n = 0;
        for pos in hits() {
            if let Some(slot) = buf.get_mut(n) {
                *slot = pos;
            }
            n += 1;
        }
        if let Some(hits) = buf.get_mut(..n) {
            hits.sort_unstable();
            hits.iter().for_each(|&i| visit(i));
        } else {
            let mut hits: Vec<usize> = hits().collect();
            hits.sort_unstable();
            hits.into_iter().for_each(visit);
        }
    }
}

/// Overlapping surges [`SurgeIndex::active`] sorts without allocating.
const STACK_HITS: usize = 16;

impl DiurnalTrace {
    /// The paper-calibrated default: ~22 % mean demand, strong daily
    /// swing, hour-scale surge events on day 2 and day 5 (as visible in
    /// Fig. 2), plus minute-scale flash-crowd spikes throughout — the
    /// short benign crests a synergistic attacker superimposes on and a
    /// periodic attacker mostly misses.
    pub fn paper_week(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1u64);
        let mut surges = vec![
            SurgeEvent {
                start_s: 86_400 + 30_000,
                duration_s: 26_000,
                extra_demand: 0.17,
            },
            SurgeEvent {
                start_s: 4 * 86_400 + 40_000,
                duration_s: 20_000,
                extra_demand: 0.14,
            },
        ];
        let mut t = 0u64;
        while t < 7 * 86_400 {
            t += rng.random_range(500..1_800);
            surges.push(SurgeEvent {
                start_s: t,
                duration_s: rng.random_range(60..180),
                extra_demand: rng.random_range(0.04..0.12),
            });
        }
        DiurnalTrace {
            base: 0.13,
            amplitude: 0.15,
            noise: 0.03,
            phase_per_host_s: 1_800,
            index: SurgeIndex::new(&surges),
            surges,
            rng,
            noise_state: Vec::new(),
            surge_terms: Vec::new(),
        }
    }

    /// A flat low-load trace (control experiments).
    pub fn flat(demand: f64, seed: u64) -> Self {
        DiurnalTrace {
            base: demand.clamp(0.0, 1.0),
            amplitude: 0.0,
            noise: 0.01,
            phase_per_host_s: 0,
            surges: Vec::new(),
            index: SurgeIndex::default(),
            rng: StdRng::seed_from_u64(seed ^ 0xf1a7),
            noise_state: Vec::new(),
            surge_terms: Vec::new(),
        }
    }

    /// Adds a surge event.
    #[must_use]
    pub fn with_surge(mut self, surge: SurgeEvent) -> Self {
        self.surges.push(surge);
        self.index = SurgeIndex::new(&self.surges);
        self
    }

    /// The diurnal curve for `host` at `t_s`, before surges and noise.
    fn diurnal(&self, host: usize, t_s: u64) -> f64 {
        let phase = (host as u64 * self.phase_per_host_s) as f64;
        let daily = 2.0 * std::f64::consts::PI * ((t_s as f64 + phase) / 86_400.0);
        self.base + self.amplitude * (daily.sin() * 0.6 + (2.0 * daily).sin() * 0.25)
    }

    /// The demand for `host` at `t_s` seconds into the trace (before
    /// noise).
    pub fn nominal_demand(&self, host: usize, t_s: u64) -> f64 {
        let mut d = self.diurnal(host, t_s);
        // Summed in `surges` order: float addition does not reassociate.
        self.index
            .active(t_s, |i| d += surge_demand(&self.surges[i], t_s));
        d.clamp(0.01, 0.95)
    }

    /// Applies the demand at `t_s` to every host of the cloud
    /// (autocorrelated noise on top of the nominal curve).
    pub fn apply(&mut self, cloud: &mut Cloud, t_s: u64) {
        self.demands(cloud.host_count(), t_s, |host, d| {
            cloud.set_background_demand(HostId(host as u32), d);
        });
    }

    /// Hands `set` each of `hosts` hosts' demand at `t_s`, in host order.
    /// Every host sees the same surges, so their terms are evaluated once
    /// and then added to each host's curve one by one in `surges` order:
    /// the very sum [`DiurnalTrace::nominal_demand`] forms.
    fn demands(&mut self, hosts: usize, t_s: u64, mut set: impl FnMut(usize, f64)) {
        if self.noise_state.len() != hosts {
            self.noise_state = vec![0.0; hosts];
        }
        self.surge_terms.clear();
        self.index.active(t_s, |i| {
            self.surge_terms.push(surge_demand(&self.surges[i], t_s));
        });
        for host in 0..hosts {
            // AR(1) noise: smooth wander rather than white flicker.
            let innovation: f64 = self.rng.random_range(-1.0..1.0);
            self.noise_state[host] = self.noise_state[host] * 0.9 + innovation * 0.1;
            let mut nominal = self.diurnal(host, t_s);
            for term in &self.surge_terms {
                nominal += term;
            }
            let d = (nominal.clamp(0.01, 0.95) + self.noise_state[host] * self.noise * 3.0)
                .clamp(0.01, 0.95);
            set(host, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{CloudConfig, CloudProfile};
    use proptest::prelude::*;

    #[test]
    fn nominal_demand_is_bounded_and_diurnal() {
        let t = DiurnalTrace::paper_week(1);
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for h in 0..8 {
            for step in 0..(7 * 24) {
                let d = t.nominal_demand(h, step * 3_600);
                assert!((0.01..=0.95).contains(&d));
                lo = lo.min(d);
                hi = hi.max(d);
            }
        }
        assert!(hi - lo > 0.25, "diurnal swing too small: {lo}..{hi}");
    }

    #[test]
    fn surges_raise_demand_on_their_days() {
        let t = DiurnalTrace::paper_week(1);
        let quiet = t.nominal_demand(0, 40_000);
        let day2 = t.nominal_demand(0, 86_400 + 40_000);
        assert!(
            day2 > quiet + 0.08,
            "day-2 surge missing: {quiet} vs {day2}"
        );
    }

    #[test]
    fn hosts_are_phase_shifted() {
        let t = DiurnalTrace::paper_week(1);
        let d0 = t.nominal_demand(0, 20_000);
        let d7 = t.nominal_demand(7, 20_000);
        assert!((d0 - d7).abs() > 0.005, "hosts should not be in lockstep");
    }

    #[test]
    fn aggregate_power_band_matches_fig2() {
        // 8 cloud servers: the weekly band should span roughly the
        // paper's 899–1199 W (we check the calibration coarsely over one
        // day at coarse ticks; the full week runs in the fig2 binary).
        let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(8), 33);
        cloud.set_tick_secs(30);
        let mut trace = DiurnalTrace::paper_week(33);
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        // Sample day 2 (includes the surge) every 10 minutes.
        for step in 0..144 {
            let t_s = 86_400 + step * 600;
            trace.apply(&mut cloud, t_s);
            cloud.advance_secs(600);
            let agg: f64 = (0..8).map(|h| cloud.host_power_w(HostId(h))).sum();
            lo = lo.min(agg);
            hi = hi.max(agg);
        }
        assert!(lo > 820.0 && lo < 1_060.0, "trough {lo} W");
        assert!(hi > 1_080.0 && hi < 1_420.0, "peak {hi} W");
    }

    /// The lookup before the index: every surge, in `surges` order.
    fn nominal_demand_reference(t: &DiurnalTrace, host: usize, t_s: u64) -> f64 {
        let phase = (host as u64 * t.phase_per_host_s) as f64;
        let daily = 2.0 * std::f64::consts::PI * ((t_s as f64 + phase) / 86_400.0);
        let mut d = t.base + t.amplitude * (daily.sin() * 0.6 + (2.0 * daily).sin() * 0.25);
        for s in &t.surges {
            if t_s >= s.start_s && t_s < s.start_s + s.duration_s {
                let ramp = s.duration_s as f64 * 0.1;
                let into = (t_s - s.start_s) as f64;
                let left = (s.start_s + s.duration_s - t_s) as f64;
                let shape = (into / ramp).min(1.0).min(left / ramp);
                d += s.extra_demand * shape;
            }
        }
        d.clamp(0.01, 0.95)
    }

    /// Every surge's edges: one second before its start, its start, its
    /// last second and its end.
    fn edges(t: &DiurnalTrace) -> Vec<u64> {
        t.surges
            .iter()
            .flat_map(|s| {
                let end = s.start_s + s.duration_s;
                [
                    s.start_s.saturating_sub(1),
                    s.start_s,
                    end.saturating_sub(1),
                    end,
                ]
            })
            .collect()
    }

    /// [`DiurnalTrace::apply`]'s demands before the surge terms were
    /// shared: each host's own `nominal_demand`, plus its noise.
    fn demands_reference(t: &mut DiurnalTrace, hosts: usize, t_s: u64) -> Vec<f64> {
        if t.noise_state.len() != hosts {
            t.noise_state = vec![0.0; hosts];
        }
        (0..hosts)
            .map(|host| {
                let innovation: f64 = t.rng.random_range(-1.0..1.0);
                t.noise_state[host] = t.noise_state[host] * 0.9 + innovation * 0.1;
                (t.nominal_demand(host, t_s) + t.noise_state[host] * t.noise * 3.0)
                    .clamp(0.01, 0.95)
            })
            .collect()
    }

    fn assert_index_matches(t: &DiurnalTrace) -> Result<(), TestCaseError> {
        for host in [0, 3, 7] {
            for t_s in edges(t) {
                prop_assert_eq!(
                    t.nominal_demand(host, t_s).to_bits(),
                    nominal_demand_reference(t, host, t_s).to_bits(),
                    "host {} at {} s",
                    host,
                    t_s
                );
            }
        }
        // The batched per-instant path, 8 hosts at every edge in turn,
        // against the per-host path: the same demands, noise and stream.
        let (mut fast, mut reference) = (t.clone(), t.clone());
        for t_s in edges(t) {
            let mut got = Vec::new();
            fast.demands(8, t_s, |host, d| got.push((host, d.to_bits())));
            let want: Vec<(usize, u64)> = demands_reference(&mut reference, 8, t_s)
                .into_iter()
                .map(f64::to_bits)
                .enumerate()
                .collect();
            prop_assert_eq!(got, want, "demands at {} s", t_s);
        }
        prop_assert_eq!(fast.noise_state, reference.noise_state);
        prop_assert_eq!(fast.rng, reference.rng);
        Ok(())
    }

    #[test]
    fn surge_index_matches_the_linear_scan_on_the_paper_week() {
        for seed in [1, 33, 1729] {
            let t = DiurnalTrace::paper_week(seed);
            assert!(t.surges.len() > 300);
            assert_index_matches(&t).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn surge_index_matches_the_linear_scan(
            seed in 0u64..1_000,
            base in 0usize..2,
            surges in proptest::collection::vec(
                (0u64..20_000, 0usize..4, 0u64..3_000, 0.0f64..0.02),
                1..48,
            ),
        ) {
            // Small extras keep overlapping sums below the clamp, where a
            // different summation order would show in the low bits.
            let mut t = if base == 0 {
                DiurnalTrace::flat(0.05, seed)
            } else {
                DiurnalTrace::paper_week(seed)
            };
            for (start, shape, duration, extra_demand) in surges {
                // Zero-length, short and long surges, appended out of
                // start order and overlapping each other.
                let duration_s = match shape {
                    0 => 0,
                    1 => duration % 7,
                    _ => duration,
                };
                t = t.with_surge(SurgeEvent {
                    start_s: 86_400 + start,
                    duration_s,
                    extra_demand,
                });
            }
            assert_index_matches(&t)?;
        }
    }

    #[test]
    fn overlapping_added_surges_share_their_terms_across_hosts() {
        let mut t = DiurnalTrace::paper_week(7);
        for (start_s, duration_s, extra_demand) in [
            (86_400 + 30_100, 900, 0.013),
            (86_400 + 30_200, 400, 0.029),
            (86_400 + 30_150, 60, 0.007),
        ] {
            t = t.with_surge(SurgeEvent {
                start_s,
                duration_s,
                extra_demand,
            });
        }
        let mut active = 0;
        t.index.active(86_400 + 30_205, |_| active += 1);
        assert!(active >= 4, "{active} surges overlap");
        assert_index_matches(&t).unwrap();
    }

    #[test]
    fn more_overlapping_surges_than_the_stack_buffer_sum_in_order() {
        let mut t = DiurnalTrace::flat(0.05, 3);
        for i in 0..STACK_HITS as u64 + 5 {
            t = t.with_surge(SurgeEvent {
                start_s: 1_000 + 7 * (i % 4),
                duration_s: 500 + 13 * i,
                extra_demand: 0.001 + 0.0007 * i as f64,
            });
        }
        let mut active = 0;
        t.index.active(1_100, |_| active += 1);
        assert!(active > STACK_HITS, "{active} surges overlap");
        assert_index_matches(&t).unwrap();
    }

    #[test]
    fn flat_trace_is_flat() {
        let t = DiurnalTrace::flat(0.2, 5);
        for step in 0..100 {
            assert!((t.nominal_demand(0, step * 600) - 0.2).abs() < 1e-9);
        }
    }
}
