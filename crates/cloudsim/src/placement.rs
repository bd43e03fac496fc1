//! Container placement policies and the free-capacity index.
//!
//! The attacker's orchestration loop (§IV-C) works *against* the
//! scheduler: it keeps launching and terminating instances until the
//! channels confirm co-residence. How quickly that converges depends on
//! the provider's placement policy, so all three common ones are modeled.
//!
//! Placement used to be an O(hosts) scan per launch; at datacenter scale
//! that dominates churn-heavy campaigns. `CapacityIndex` keeps an
//! ordered view of instance counts per span of `SPAN` hosts — updated
//! on every launch/terminate/reboot — so a decision costs
//! O(hosts / SPAN · log SPAN) while producing *exactly* the host the
//! linear scan would have picked (pinned by
//! `index_matches_linear_scan_across_churn` below, including the Random
//! policy's RNG draw).

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Placement policy for new instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Least-loaded host first (availability-oriented).
    Spread,
    /// Most-loaded host with remaining capacity first
    /// (consolidation-oriented — the cheapest for attackers).
    BinPack,
    /// Uniformly random among hosts with capacity.
    Random,
}

impl PlacementPolicy {
    /// Reference implementation: the historical O(hosts) linear scan over
    /// per-host instance counts (`capacity` = instances a host can take,
    /// uniform across the fleet). Kept as the behavioral baseline the
    /// indexed `CapacityIndex::choose` is pinned against.
    pub fn choose_linear(&self, counts: &[u32], capacity: u32, rng: &mut StdRng) -> Option<usize> {
        let candidates: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c < capacity)
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        match self {
            PlacementPolicy::Spread => candidates.into_iter().min_by_key(|i| (counts[*i], *i)),
            PlacementPolicy::BinPack => candidates
                .into_iter()
                .max_by_key(|i| (counts[*i], usize::MAX - *i)),
            PlacementPolicy::Random => {
                let pick = rng.random_range(0..candidates.len());
                Some(candidates[pick])
            }
        }
    }
}

/// Hosts per sub-index of [`CapacityIndex`]. Placement decisions do not
/// depend on it; it only trades the per-span scan against the ordered
/// sets' depth.
const SPAN: usize = 128;

/// Free-capacity index: per span of hosts, instance counts mirrored three
/// ways — a dense `counts` lane, an ordered `(count, slot)` set for the
/// min/max policies, and a count histogram for Random's candidate
/// arithmetic. `set` keeps all three current on launch/terminate/reboot.
#[derive(Debug)]
pub(crate) struct CapacityIndex {
    span: usize,
    spans: Vec<SpanIndex>,
}

#[derive(Debug)]
struct SpanIndex {
    base: u32,
    counts: Vec<u32>,
    by_count: BTreeSet<(u32, u32)>,
    // hist[c] = number of slots currently holding c instances. Counts
    // never exceed the machine's cpu count (capacity ≤ cpus for every
    // vcpu size), so `cpus + 1` buckets suffice.
    hist: Vec<u32>,
}

impl CapacityIndex {
    /// An index over `hosts` empty hosts split into spans of [`SPAN`].
    pub(crate) fn new(hosts: usize, cpus: u16) -> Self {
        Self::with_span(hosts, SPAN, cpus)
    }

    /// An index over `hosts` empty hosts split into spans of `span`.
    fn with_span(hosts: usize, span: usize, cpus: u16) -> Self {
        let mut spans = Vec::with_capacity(hosts.div_ceil(span.max(1)));
        let mut base = 0usize;
        while base < hosts {
            let len = span.min(hosts - base);
            let mut hist = vec![0u32; usize::from(cpus) + 1];
            hist[0] = len as u32;
            spans.push(SpanIndex {
                base: base as u32,
                counts: vec![0; len],
                by_count: (0..len as u32).map(|slot| (0, slot)).collect(),
                hist,
            });
            base += len;
        }
        CapacityIndex { span, spans }
    }

    /// Records `host` now holding `count` instances.
    pub(crate) fn set(&mut self, host: usize, count: u32) {
        let sh = &mut self.spans[host / self.span];
        let slot = (host % self.span) as u32;
        let old = sh.counts[slot as usize];
        if old == count {
            return;
        }
        sh.by_count.remove(&(old, slot));
        sh.hist[old as usize] -= 1;
        sh.counts[slot as usize] = count;
        sh.by_count.insert((count, slot));
        sh.hist[count as usize] += 1;
    }

    /// Picks the host for an instance, given the fleet-uniform per-host
    /// `capacity` for its vCPU size. Decision (and, for Random, the RNG
    /// consumption) is identical to
    /// [`PlacementPolicy::choose_linear`] over the same counts.
    pub(crate) fn choose(
        &self,
        policy: PlacementPolicy,
        capacity: u32,
        rng: &mut StdRng,
    ) -> Option<usize> {
        match policy {
            PlacementPolicy::Spread => {
                // Global min (count, host); each span's first set entry
                // is its local min, already in global-index order.
                let mut best: Option<(u32, usize)> = None;
                for sh in &self.spans {
                    if let Some(&(c, slot)) = sh.by_count.iter().next() {
                        if c < capacity {
                            let g = sh.base as usize + slot as usize;
                            if best.is_none_or(|b| (c, g) < b) {
                                best = Some((c, g));
                            }
                        }
                    }
                }
                best.map(|(_, g)| g)
            }
            PlacementPolicy::BinPack => {
                // Fullest host still below capacity; ties to the lowest
                // host index, as the scan's `usize::MAX - i` key does.
                let mut best: Option<(u32, usize)> = None;
                for sh in &self.spans {
                    let Some(&(c, _)) = sh.by_count.range(..(capacity, 0)).next_back() else {
                        continue;
                    };
                    let &(_, slot) = sh
                        .by_count
                        .range((c, 0)..(c + 1, 0))
                        .next()
                        .expect("a count just seen in the set has a first slot");
                    let g = sh.base as usize + slot as usize;
                    if best.is_none_or(|(bc, bg)| c > bc || (c == bc && g < bg)) {
                        best = Some((c, g));
                    }
                }
                best.map(|(_, g)| g)
            }
            PlacementPolicy::Random => {
                let cap = (capacity as usize).min(self.spans.first().map_or(0, |s| s.hist.len()));
                let per_span: Vec<u32> = self
                    .spans
                    .iter()
                    .map(|sh| sh.hist[..cap].iter().sum())
                    .collect();
                let total: u32 = per_span.iter().sum();
                if total == 0 {
                    return None;
                }
                // Same draw the scan makes over its candidate vector;
                // candidate k in global host order is the same host.
                let mut k = rng.random_range(0..total as usize);
                for (sh, &here) in self.spans.iter().zip(&per_span) {
                    if k >= here as usize {
                        k -= here as usize;
                        continue;
                    }
                    for (slot, &c) in sh.counts.iter().enumerate() {
                        if c < capacity {
                            if k == 0 {
                                return Some(sh.base as usize + slot);
                            }
                            k -= 1;
                        }
                    }
                }
                unreachable!("histogram total covered the drawn candidate index")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cloud, CloudConfig, CloudProfile, InstanceSpec};
    use rand::{RngExt, SeedableRng};

    fn fleet(policy: PlacementPolicy, hosts: usize) -> Cloud {
        Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(hosts)
                .placement(policy)
                .without_background(),
            13,
        )
    }

    #[test]
    fn binpack_fills_one_host_first() {
        let mut c = fleet(PlacementPolicy::BinPack, 3);
        let mut placements = Vec::new();
        for i in 0..4 {
            let id = c.launch("t", InstanceSpec::new(format!("i{i}"))).unwrap();
            placements.push(c.instance(id).unwrap().host());
        }
        // 16-cpu hosts, 4 vcpus each → 4 per host; all land on one host.
        assert!(
            placements.windows(2).all(|w| w[0] == w[1]),
            "{placements:?}"
        );
    }

    #[test]
    fn spread_alternates_hosts() {
        let mut c = fleet(PlacementPolicy::Spread, 3);
        let mut hosts = std::collections::HashSet::new();
        for i in 0..3 {
            let id = c.launch("t", InstanceSpec::new(format!("i{i}"))).unwrap();
            hosts.insert(c.instance(id).unwrap().host());
        }
        assert_eq!(hosts.len(), 3);
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut c = fleet(PlacementPolicy::BinPack, 1);
        // 16 cpus / 4 vcpus = 4 instances.
        for i in 0..4 {
            c.launch("t", InstanceSpec::new(format!("i{i}"))).unwrap();
        }
        assert!(matches!(
            c.launch("t", InstanceSpec::new("overflow")),
            Err(crate::CloudError::CapacityExhausted)
        ));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let pick = |seed: u64| {
            let counts = [0u32, 2, 4, 1, 3];
            let mut rng = StdRng::seed_from_u64(seed);
            PlacementPolicy::Random.choose_linear(&counts, 4, &mut rng)
        };
        assert_eq!(pick(1), pick(1));
    }

    /// The pinning test for the indexed fast path: a scripted churn of
    /// launches (mixed vCPU sizes → mixed capacities) and terminations,
    /// replayed against the linear scan and the index with identical RNG
    /// seeds, must agree on every single decision — across spans that
    /// divide the fleet evenly, raggedly, and not at all.
    #[test]
    fn index_matches_linear_scan_across_churn() {
        let hosts = 40;
        let cpus = 16u16;
        for span in [1usize, 3, 8, 64] {
            for policy in [
                PlacementPolicy::Spread,
                PlacementPolicy::BinPack,
                PlacementPolicy::Random,
            ] {
                let mut counts = vec![0u32; hosts];
                let mut index = CapacityIndex::with_span(hosts, span, cpus);
                let mut script = StdRng::seed_from_u64(0x9a11_0c47 ^ span as u64);
                for step in 0..400 {
                    let vcpus = [1u32, 2, 4, 8, 16][script.random_range(0..5)];
                    let capacity = u32::from(cpus) / vcpus;
                    if script.random_range(0..100) < 60 {
                        let draw = script.random::<u64>();
                        let scan = policy.choose_linear(
                            &counts,
                            capacity,
                            &mut StdRng::seed_from_u64(draw),
                        );
                        let indexed =
                            index.choose(policy, capacity, &mut StdRng::seed_from_u64(draw));
                        assert_eq!(scan, indexed, "span {span} policy {policy:?} step {step}");
                        if let Some(h) = scan {
                            counts[h] += 1;
                            index.set(h, counts[h]);
                        }
                    } else {
                        let occupied: Vec<usize> = counts
                            .iter()
                            .enumerate()
                            .filter(|(_, &c)| c > 0)
                            .map(|(i, _)| i)
                            .collect();
                        if !occupied.is_empty() {
                            let h = occupied[script.random_range(0..occupied.len())];
                            counts[h] -= 1;
                            index.set(h, counts[h]);
                        }
                    }
                }
            }
        }
    }
}
