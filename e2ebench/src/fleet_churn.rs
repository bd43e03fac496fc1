//! `fleet_churn`: a provider's control loop over a large, mostly idle
//! fleet — the opposite of `busy_attack`. A 10 000-host CC1 fleet with
//! no background load and the online detector attached runs a simulated
//! week in hourly steps. Each step launches and terminates idle
//! containers for 64 tenants from a seeded script, serves one benign
//! read, lets four probing attackers step at their 1 Hz cadence for ten
//! seconds, and advances the rest of the hour; each
//! simulated day ends with a bill per tenant. The detector flags every
//! attacker in the first hour and escalates it to the full mask, so the
//! verdict and live policy-swap path runs, and later bursts are denied
//! reads. No kernel ever ticks and no host ever falls due on the
//! calendar: the time goes to placement, container create and remove,
//! metering, the attackers' reads and the detector.

use containerleaks::cloudsim::{
    Cloud, CloudConfig, CloudError, CloudProfile, DetectorConfig, InstanceId, InstanceSpec,
};
use containerleaks::leakscan::{AdaptiveAttacker, AttackerMode};

use crate::spans::Spans;
use crate::{fnv, splitmix, timed_op, Checked, Size, Workload, FNV_OFFSET};

const TENANTS: usize = 64;
const OPS_PER_STEP: usize = 200;
const ATTACKERS: usize = 4;
/// Seconds of each hour the attackers probe, one step per second. The
/// default detector flags a prober after 3 s and escalates it after 4 s;
/// the rest of the burst is denied reads.
const ATTACK_SECS: u64 = 10;
/// Launches per step; the step's other ops terminate. A fixed count in
/// a seeded order keeps the live population, and with it a pass's work,
/// the same at every seed: with a seeded launch share the week ends
/// with a few hundred containers more or fewer from seed to seed.
const LAUNCHES_PER_STEP: usize = 110;

/// The fleet-churn workload.
#[derive(Debug)]
pub struct FleetChurn {
    seed: u64,
    hosts: usize,
    steps: u64,
}

/// One pass's input: the booted fleet, its tenants and the churn script.
#[derive(Debug)]
pub struct Fleet {
    cloud: Cloud,
    tenants: Vec<String>,
    /// `OPS_PER_STEP` ops per step: launch or terminate, and a seeded
    /// word that picks the tenant or the victim.
    script: Vec<(bool, u64)>,
    attackers: Vec<AdaptiveAttacker>,
    benign: InstanceId,
}

/// What a pass observed, folded as it ran, and the fleet it ran on:
/// returned so that tearing down 10 000 hosts happens after the timed
/// section (it takes about a fifth of a pass).
#[derive(Debug, Default)]
pub struct Churned {
    checked: Checked,
    _fleet: Option<Fleet>,
}

impl Workload for FleetChurn {
    type Input = Result<Fleet, CloudError>;
    type Output = Churned;

    fn new(seed: u64, size: Size) -> Self {
        let (hosts, steps) = match size {
            Size::Full => (10_000, 168),
            Size::Smoke => (200, 24),
        };
        FleetChurn { seed, hosts, steps }
    }

    fn setup(&self, _traced: bool) -> Self::Input {
        let cfg = CloudConfig::new(CloudProfile::CC1)
            .hosts(self.hosts)
            .without_background()
            .detector(DetectorConfig::default());
        let mut cloud = Cloud::new(cfg, self.seed);
        let benign = cloud.launch("benign", InstanceSpec::new("web").vcpus(1))?;
        let attackers = (0..ATTACKERS)
            .map(|k| {
                let prober =
                    cloud.launch(&format!("mallory-{k}"), InstanceSpec::new("probe").vcpus(1))?;
                Ok(AdaptiveAttacker::new(
                    AttackerMode::Persistent,
                    prober,
                    None,
                ))
            })
            .collect::<Result<Vec<_>, CloudError>>()?;
        let mut state = self.seed;
        let mut script = Vec::with_capacity(self.steps as usize * OPS_PER_STEP);
        for _ in 0..self.steps {
            let mut ops: Vec<(bool, u64)> = (0..OPS_PER_STEP)
                .map(|k| (k < LAUNCHES_PER_STEP, splitmix(&mut state)))
                .collect();
            for k in (1..ops.len()).rev() {
                ops.swap(k, (splitmix(&mut state) % (k as u64 + 1)) as usize);
            }
            script.extend(ops);
        }
        Ok(Fleet {
            cloud,
            tenants: (0..TENANTS).map(|t| format!("t{t:02}")).collect(),
            script,
            attackers,
            benign,
        })
    }

    fn run(&self, input: Self::Input, ops_ms: &mut Vec<f64>, spans: &mut Spans) -> Churned {
        let mut c = Checked {
            digest: FNV_OFFSET,
            ..Checked::default()
        };
        let mut f = match input {
            Ok(f) => f,
            Err(e) => {
                c.attempted += 1;
                c.failures.push(format!("setup: {e}"));
                return Churned {
                    checked: c,
                    _fleet: None,
                };
            }
        };
        let cloud = &mut f.cloud;
        let mut live: Vec<InstanceId> = Vec::new();
        let mut launched = 0u64;
        for (step, words) in f.script.chunks(OPS_PER_STEP).enumerate() {
            timed_op(ops_ms, || {
                spans.enter("bench.fleet_churn.step");
                for &(launch, w) in words {
                    c.attempted += 1;
                    let pick = (w >> 8) as usize;
                    if launch || live.is_empty() {
                        let tenant = &f.tenants[pick % TENANTS];
                        let spec = InstanceSpec::new(format!("c{launched}")).vcpus(1);
                        launched += 1;
                        match spans.time("cloudsim.launch", || cloud.launch(tenant, spec)) {
                            Ok(id) => {
                                let host = cloud.instance(id).map_or(u32::MAX, |i| i.host().0);
                                fnv(&mut c.digest, &id.0.to_le_bytes());
                                fnv(&mut c.digest, &host.to_le_bytes());
                                live.push(id);
                            }
                            Err(CloudError::CapacityExhausted) => c.refused += 1,
                            Err(e) => c.failures.push(format!("launch: {e}")),
                        }
                    } else {
                        let id = live.swap_remove(pick % live.len());
                        fnv(&mut c.digest, &id.0.to_le_bytes());
                        if let Err(e) = spans.time("cloudsim.terminate", || cloud.terminate(id)) {
                            c.failures.push(format!("terminate {id}: {e}"));
                        }
                    }
                }
                c.attempted += 1;
                match spans.time("cloudsim.read_file", || {
                    cloud.read_file(f.benign, "/proc/uptime")
                }) {
                    Ok(body) => fnv(&mut c.digest, body.as_bytes()),
                    Err(e) => c.failures.push(format!("benign read: {e}")),
                }
                for s in 0..ATTACK_SECS {
                    let now_secs = step as u64 * 3_600 + s;
                    for atk in &mut f.attackers {
                        spans.time("leakscan.attacker_step", || atk.step(cloud, now_secs));
                    }
                    spans.time("cloudsim.advance_secs", || cloud.advance_secs(1));
                }
                spans.time("cloudsim.advance_secs", || {
                    cloud.advance_secs(3_600 - ATTACK_SECS)
                });
                if (step + 1) % 24 == 0 {
                    for tenant in &f.tenants {
                        c.attempted += 1;
                        let bill = spans.time("cloudsim.bill", || cloud.bill(tenant));
                        fnv(&mut c.digest, &bill.total_usd().to_bits().to_le_bytes());
                    }
                }
                spans.exit();
            });
        }
        for atk in &f.attackers {
            let cost = atk.cost();
            fnv(&mut c.digest, &cost.probes.to_le_bytes());
            fnv(&mut c.digest, &cost.denials.to_le_bytes());
        }
        // Every attacker is flagged once and escalated once; the benign
        // tenant and the churn tenants never are.
        let verdicts = cloud.detector().map_or(&[][..], |d| d.verdicts());
        for v in verdicts {
            fnv(&mut c.digest, &v.t_ns.to_le_bytes());
            fnv(&mut c.digest, &v.tenant.to_le_bytes());
            fnv(&mut c.digest, &[v.level.as_u8()]);
        }
        c.attempted += 1;
        if verdicts.len() != 2 * ATTACKERS {
            c.failures.push(format!(
                "detector: {} verdicts, expected {} (targeted then full per attacker)",
                verdicts.len(),
                2 * ATTACKERS
            ));
        }
        Churned {
            checked: c,
            _fleet: Some(f),
        }
    }

    fn check(&self, out: &Churned) -> Checked {
        out.checked.clone()
    }
}
