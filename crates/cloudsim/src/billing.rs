//! Utilization-metered billing (§IV-B).
//!
//! The paper's cost argument: under utilization-based pricing (ElasticHosts
//! CPU metering, IBM Cloud billing metrics, EC2 burstable instances, the
//! VMware OnDemand calculator's $2.87/month @1% vs $167.25 @100% for 16
//! vCPUs), a *continuous* power attack runs the meter at 100% and gets
//! expensive, while a synergistic attack that mostly just reads RAPL is
//! nearly free. This module meters exactly that.
//!
//! Tenants are identified by interned [`TenantId`]s (the cloud keeps the
//! name table), so the per-advance metering loop indexes a dense vector
//! instead of hashing and cloning tenant name strings.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An interned tenant identity: index into the cloud's tenant table.
/// Ids are dense and assigned in first-launch order, so they double as
/// billing-ledger indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Pricing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BillingModel {
    /// Dollars per vCPU-hour of *utilized* CPU time.
    pub usd_per_vcpu_hour_utilized: f64,
    /// Dollars per instance-hour regardless of load (keep-alive floor).
    pub usd_per_instance_hour_base: f64,
}

impl BillingModel {
    /// The pricing every cloud meters with.
    // Derived from the VMware calculator figures cited in the paper:
    // 16 vCPUs fully utilized ≈ $167.25/month → ≈ $0.0143/vCPU-hour;
    // the ≈$2.87/month floor spread across the month ≈ $0.004/hour.
    pub const PAPER: BillingModel = BillingModel {
        usd_per_vcpu_hour_utilized: 0.0143,
        usd_per_instance_hour_base: 0.004,
    };
}

/// One tenant's accumulated charges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantBill {
    /// Charges for utilized CPU time.
    pub cpu_usd: f64,
    /// Base instance-hour charges.
    pub base_usd: f64,
    /// Total utilized vCPU-seconds metered.
    pub vcpu_seconds: f64,
}

impl TenantBill {
    /// Total dollars owed.
    pub fn total_usd(&self) -> f64 {
        self.cpu_usd + self.base_usd
    }
}

/// The provider-side metering ledger, indexed by dense [`TenantId`].
/// Each instance keeps its own last metered cpuacct total (the cloud
/// stores it on the instance record), so the ledger holds only bills.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    bills: Vec<TenantBill>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    fn slot(&mut self, tenant: TenantId) -> &mut TenantBill {
        let idx = tenant.0 as usize;
        if self.bills.len() <= idx {
            self.bills.resize(idx + 1, TenantBill::default());
        }
        &mut self.bills[idx]
    }

    /// Meters one interval of one instance: `cumulative_usage_ns` is its
    /// cpuacct total, `last_usage_ns` the total at its previous meter
    /// (updated here); `interval_secs` the wall time since that meter.
    pub fn meter(
        &mut self,
        tenant: TenantId,
        last_usage_ns: &mut u64,
        cumulative_usage_ns: u64,
        interval_secs: u64,
    ) {
        let delta_ns = cumulative_usage_ns.saturating_sub(*last_usage_ns);
        *last_usage_ns = cumulative_usage_ns;
        let vcpu_seconds = delta_ns as f64 / 1e9;
        let bill = self.slot(tenant);
        bill.vcpu_seconds += vcpu_seconds;
        bill.cpu_usd += vcpu_seconds / 3600.0 * BillingModel::PAPER.usd_per_vcpu_hour_utilized;
        bill.base_usd += base_usd(interval_secs);
    }

    /// Meters one interval of an instance whose cpuacct total has not
    /// moved since its previous meter: exactly [`Ledger::meter`] with a
    /// zero delta, whose cpu terms add `+0.0` to non-negative
    /// accumulators and so leave them bit-identical.
    pub fn charge_base(&mut self, tenant: TenantId, interval_secs: u64) {
        self.slot(tenant).base_usd += base_usd(interval_secs);
    }

    /// The bill for a tenant (zero if unknown).
    pub fn bill(&self, tenant: TenantId) -> TenantBill {
        self.bills
            .get(tenant.0 as usize)
            .copied()
            .unwrap_or_default()
    }
}

/// One instance's keep-alive charge for `interval_secs`.
fn base_usd(interval_secs: u64) -> f64 {
    interval_secs as f64 / 3600.0 * BillingModel::PAPER.usd_per_instance_hour_base
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TenantId = TenantId(0);

    #[test]
    fn full_utilization_matches_vmware_calculator_scale() {
        // 16 vCPUs fully busy for 30 days ≈ $167 (paper's §IV-B figure).
        let mut ledger = Ledger::new();
        let mut last = 0;
        let month_secs = 30 * 24 * 3600u64;
        let usage_ns = month_secs * 16 * 1_000_000_000;
        ledger.meter(T, &mut last, usage_ns, month_secs);
        let total = ledger.bill(T).total_usd();
        assert!((140.0..200.0).contains(&total), "monthly bill ${total}");
    }

    #[test]
    fn idle_instance_pays_only_the_floor() {
        let mut ledger = Ledger::new();
        let mut last = 0;
        let month_secs = 30 * 24 * 3600u64;
        // 1% utilization of 16 vCPUs.
        let usage_ns = (month_secs as f64 * 0.16 * 1e9) as u64;
        ledger.meter(T, &mut last, usage_ns, month_secs);
        let total = ledger.bill(T).total_usd();
        assert!((2.0..6.0).contains(&total), "1% bill ${total}");
    }

    #[test]
    fn metering_uses_deltas_not_absolutes() {
        let mut ledger = Ledger::new();
        let mut last = 0;
        ledger.meter(T, &mut last, 3_600_000_000_000, 3600);
        assert_eq!(last, 3_600_000_000_000);
        let after_first = ledger.bill(T).vcpu_seconds;
        // Same cumulative value again → zero delta.
        ledger.meter(T, &mut last, 3_600_000_000_000, 3600);
        assert!((ledger.bill(T).vcpu_seconds - after_first).abs() < 1e-9);
    }

    #[test]
    fn tenants_are_billed_independently() {
        let mut ledger = Ledger::new();
        let mut last = 0;
        ledger.meter(TenantId(3), &mut last, 7_200_000_000_000, 3600);
        assert!(ledger.bill(TenantId(3)).total_usd() > 0.0);
        assert!((ledger.bill(TenantId(0)).total_usd()).abs() < 1e-12);
        // Unknown tenants read as zero.
        assert!((ledger.bill(TenantId(9)).total_usd()).abs() < 1e-12);
    }

    /// The identity the cloud's idle-host skip rests on: a meter whose
    /// cumulative total has not moved leaves the cpu accumulators
    /// bit-identical and adds exactly the base term, which is all
    /// `charge_base` does.
    #[test]
    fn unchanged_total_adds_only_the_base_term() {
        let mut metered = Ledger::new();
        let mut last = 0;
        metered.meter(T, &mut last, 1_234_567_891, 3600);
        let mut based = metered.clone();
        let before = metered.bill(T);
        metered.meter(T, &mut last, 1_234_567_891, 7);
        based.charge_base(T, 7);
        let (after, skipped) = (metered.bill(T), based.bill(T));
        assert_eq!(after.vcpu_seconds.to_bits(), before.vcpu_seconds.to_bits());
        assert_eq!(after.cpu_usd.to_bits(), before.cpu_usd.to_bits());
        let base = before.base_usd + 7.0 / 3600.0 * BillingModel::PAPER.usd_per_instance_hour_base;
        assert_eq!(after.base_usd.to_bits(), base.to_bits());
        for (a, b) in [
            (after.vcpu_seconds, skipped.vcpu_seconds),
            (after.cpu_usd, skipped.cpu_usd),
            (after.base_usd, skipped.base_usd),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// k base-only charges equal k zero-delta meters bit for bit — and
    /// neither equals k times the term: at k = 100 hourly charges the
    /// sequential sum is 0.4000000000000003, the product 0.4. So the
    /// skip must keep one add per instance, never fold them into a
    /// multiply.
    #[test]
    fn k_base_charges_are_k_zero_delta_meters_not_a_multiply() {
        const K: u32 = 100;
        let (mut metered, mut based) = (Ledger::new(), Ledger::new());
        let mut last = 0;
        for _ in 0..K {
            metered.meter(T, &mut last, 0, 3600);
            based.charge_base(T, 3600);
        }
        let (m, b) = (metered.bill(T), based.bill(T));
        assert_eq!(m.base_usd.to_bits(), b.base_usd.to_bits());
        assert_eq!(m.cpu_usd.to_bits(), b.cpu_usd.to_bits());
        assert_eq!(m.vcpu_seconds.to_bits(), b.vcpu_seconds.to_bits());
        let product =
            f64::from(K) * (3600.0 / 3600.0 * BillingModel::PAPER.usd_per_instance_hour_base);
        assert_ne!(b.base_usd.to_bits(), product.to_bits());
    }
}
