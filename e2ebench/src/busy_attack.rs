//! `busy_attack`: the 1 Hz power-attack loop on a fleet where every
//! host is busy, shaped like the stealth experiment — one 8-host CC1
//! fleet per strategy, three payload hosts, a window on the day-2 surge
//! plateau. The diurnal trace retargets every host's demand each second,
//! so event-horizon coalescing and the calendar never get to skip a
//! host. The window is 1000 s rather than the experiment's 3000 s: the
//! per-second loop is the same, and a pass a third as long lets one run
//! time several passes.
//!
//! Untraced passes call `AttackCampaign::run`, the library path the
//! experiments use. The traced pass replays the same loop through the
//! public calls it is made of, with a span around each, and must produce
//! the same outcome.

use containerleaks::cloudsim::{
    Cloud, CloudConfig, CloudError, CloudProfile, HostId, InstanceId, InstanceSpec,
};
use containerleaks::powersim::attack::PowerSample;
use containerleaks::powersim::{
    AttackCampaign, AttackOutcome, AttackStrategy, DiurnalTrace, RaplMonitor,
};
use containerleaks::simkernel::HostPid;
use containerleaks::workloads::{models, WorkloadSpec};

use crate::spans::Spans;
use crate::{fnv, timed_op, Checked, Size, Workload, FNV_OFFSET};

/// Start of the observation window: day 2, inside the surge plateau.
const WINDOW_START_S: u64 = 86_400 + 33_000;
const FLEET_HOSTS: usize = 8;
const PAYLOAD_HOSTS: usize = 3;
const TENANT: &str = "att";

/// The stealth experiment's three strategies.
const STRATEGIES: [AttackStrategy; 3] = [
    AttackStrategy::Continuous,
    AttackStrategy::Periodic {
        period_s: 300,
        burst_s: 60,
    },
    AttackStrategy::Synergistic {
        threshold_w: 560.0,
        burst_s: 90,
        cooldown_s: 600,
    },
];

/// The busy-fleet attack workload.
#[derive(Debug)]
pub struct BusyAttack {
    seed: u64,
    window_s: u64,
}

/// One strategy's deployed fleet.
#[derive(Debug)]
pub struct Deployed {
    cloud: Cloud,
    trace: DiurnalTrace,
    attack: Attack,
}

/// The deployed attack: the library's campaign object, or — for the
/// traced replay — the instances and payload pids it would hide.
#[derive(Debug)]
enum Attack {
    Library(AttackCampaign),
    Replay {
        strategy: AttackStrategy,
        observers: Vec<InstanceId>,
        payloads: Vec<(InstanceId, Vec<HostPid>)>,
    },
}

fn fleet(seed: u64) -> Cloud {
    let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(FLEET_HOSTS), seed);
    cloud.advance_secs(2);
    cloud
}

/// `AttackCampaign::deploy`'s launch order: one observer per host, then
/// the payload instances with four dormant virus processes each.
fn deploy_replay(cloud: &mut Cloud, strategy: AttackStrategy) -> Result<Attack, CloudError> {
    let observers = (0..cloud.host_count())
        .map(|h| cloud.launch(TENANT, InstanceSpec::new(format!("obs-{h}")).vcpus(1)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut payloads = Vec::new();
    for p in 0..PAYLOAD_HOSTS.min(cloud.host_count()) {
        let inst = cloud.launch(TENANT, InstanceSpec::new(format!("payload-{p}")).vcpus(4))?;
        let pids = (0..4)
            .map(|i| cloud.exec(inst, &format!("virus-{i}"), models::sleeper()))
            .collect::<Result<Vec<_>, _>>()?;
        payloads.push((inst, pids));
    }
    Ok(Attack::Replay {
        strategy,
        observers,
        payloads,
    })
}

impl Workload for BusyAttack {
    type Input = Result<Vec<Deployed>, CloudError>;
    type Output = Result<Vec<AttackOutcome>, CloudError>;

    fn new(seed: u64, size: Size) -> Self {
        let window_s = match size {
            Size::Full => 1_000,
            Size::Smoke => 60,
        };
        BusyAttack { seed, window_s }
    }

    fn setup(&self, traced: bool) -> Self::Input {
        STRATEGIES
            .iter()
            .map(|&strategy| {
                let mut cloud = fleet(self.seed);
                let attack = if traced {
                    deploy_replay(&mut cloud, strategy)?
                } else {
                    Attack::Library(AttackCampaign::deploy(
                        &mut cloud,
                        strategy,
                        PAYLOAD_HOSTS,
                        TENANT,
                    )?)
                };
                Ok(Deployed {
                    cloud,
                    trace: DiurnalTrace::paper_week(self.seed),
                    attack,
                })
            })
            .collect()
    }

    fn run(&self, input: Self::Input, ops_ms: &mut Vec<f64>, spans: &mut Spans) -> Self::Output {
        input?
            .into_iter()
            .map(|mut d| {
                timed_op(ops_ms, || match &mut d.attack {
                    Attack::Library(campaign) => campaign.run(
                        &mut d.cloud,
                        &mut d.trace,
                        WINDOW_START_S,
                        self.window_s,
                        None,
                    ),
                    Attack::Replay {
                        strategy,
                        observers,
                        payloads,
                    } => {
                        let mut replay = Replay {
                            cloud: &mut d.cloud,
                            payloads,
                            spans: &mut *spans,
                        };
                        replay.run(*strategy, observers, &mut d.trace, self.window_s)
                    }
                })
            })
            .collect()
    }

    fn check(&self, out: &Self::Output) -> Checked {
        let mut c = Checked {
            digest: FNV_OFFSET,
            ..Checked::default()
        };
        match out {
            Err(e) => {
                c.attempted += 1;
                c.failures.push(format!("campaign: {e}"));
            }
            Ok(outcomes) => {
                for o in outcomes {
                    c.attempted += 1;
                    fnv(&mut c.digest, &o.peak_w.to_bits().to_le_bytes());
                    fnv(&mut c.digest, &o.trials.to_le_bytes());
                    fnv(&mut c.digest, &o.attack_cost_usd.to_bits().to_le_bytes());
                    for s in &o.series {
                        fold_sample(&mut c.digest, s);
                    }
                    if o.series.len() as u64 != self.window_s {
                        c.failures
                            .push(format!("series has {} samples", o.series.len()));
                    }
                }
            }
        }
        c
    }
}

fn fold_sample(h: &mut u64, s: &PowerSample) {
    fnv(h, &s.t_s.to_le_bytes());
    fnv(h, &s.aggregate_w.to_bits().to_le_bytes());
    match s.attacker_estimate_w {
        Some(w) => fnv(h, &w.to_bits().to_le_bytes()),
        None => fnv(h, b"none"),
    }
    fnv(h, &[u8::from(s.attacking)]);
}

/// `AttackCampaign::run` rebuilt from public calls, one span per call.
struct Replay<'a> {
    cloud: &'a mut Cloud,
    payloads: &'a [(InstanceId, Vec<HostPid>)],
    spans: &'a mut Spans,
}

impl Replay<'_> {
    fn set_firing(&mut self, on: bool) -> Result<(), CloudError> {
        let w: WorkloadSpec = if on {
            models::power_virus()
        } else {
            models::sleeper()
        };
        for (inst, pids) in self.payloads {
            for pid in pids {
                let cloud = &mut *self.cloud;
                self.spans.time("cloudsim.set_process_workload", || {
                    cloud.set_process_workload(*inst, *pid, w.clone())
                })?;
            }
        }
        Ok(())
    }

    fn bill(&mut self) -> f64 {
        let cloud = &*self.cloud;
        self.spans
            .time("cloudsim.bill", || cloud.bill(TENANT).total_usd())
    }

    fn run(
        &mut self,
        strategy: AttackStrategy,
        observers: &[InstanceId],
        trace: &mut DiurnalTrace,
        duration_s: u64,
    ) -> Result<AttackOutcome, CloudError> {
        let mut monitor = RaplMonitor::new();
        let bill_before = self.bill();
        let mut series = Vec::with_capacity(duration_s as usize);
        let (mut peak_w, mut trials) = (0.0f64, 0u32);
        let (mut firing, mut burst_left, mut cooldown_left) = (false, 0u64, 0u64);
        if matches!(strategy, AttackStrategy::Continuous) {
            self.set_firing(true)?;
            firing = true;
            trials = 1;
        }
        for t in 0..duration_s {
            self.spans.enter("bench.busy_attack.step");
            let cloud = &mut *self.cloud;
            self.spans.time("powersim.trace_apply", || {
                trace.apply(cloud, WINDOW_START_S + t)
            });
            self.spans
                .time("cloudsim.advance_secs", || cloud.advance_secs(1));
            let mut aggregate_w = 0.0f64;
            for h in 0..cloud.host_count() {
                aggregate_w += self.spans.time("cloudsim.host_power_w", || {
                    cloud.host_power_w(HostId(h as u32))
                });
            }
            peak_w = peak_w.max(aggregate_w);
            let mut estimate = Some(0.0f64);
            for obs in observers {
                let sample = self.spans.time("powersim.rapl_sample", || {
                    monitor.sample_watts(cloud, *obs, t as f64)
                });
                match sample {
                    Ok(Some(w)) => {
                        if let Some(e) = estimate.as_mut() {
                            *e += w;
                        }
                    }
                    Ok(None) => estimate = None,
                    Err(e) => {
                        if matches!(strategy, AttackStrategy::Synergistic { .. }) {
                            return Err(e);
                        }
                        estimate = None;
                    }
                }
            }
            match strategy {
                AttackStrategy::Continuous => {}
                AttackStrategy::Periodic { period_s, burst_s } => {
                    if firing {
                        burst_left = burst_left.saturating_sub(1);
                        if burst_left == 0 {
                            self.set_firing(false)?;
                            firing = false;
                        }
                    } else if period_s > 0 && t % period_s == 0 {
                        self.set_firing(true)?;
                        firing = true;
                        burst_left = burst_s;
                        trials += 1;
                    }
                }
                AttackStrategy::Synergistic {
                    threshold_w,
                    burst_s,
                    cooldown_s,
                } => {
                    cooldown_left = cooldown_left.saturating_sub(1);
                    if firing {
                        burst_left = burst_left.saturating_sub(1);
                        if burst_left == 0 {
                            self.set_firing(false)?;
                            firing = false;
                            cooldown_left = cooldown_s;
                        }
                    } else if cooldown_left == 0 && estimate.is_some_and(|e| e > threshold_w) {
                        self.set_firing(true)?;
                        firing = true;
                        burst_left = burst_s;
                        trials += 1;
                    }
                }
            }
            series.push(PowerSample {
                t_s: t,
                aggregate_w,
                attacker_estimate_w: estimate,
                attacking: firing,
            });
            self.spans.exit();
        }
        if firing {
            self.set_firing(false)?;
        }
        Ok(AttackOutcome {
            series,
            peak_w,
            trials,
            attack_cost_usd: self.bill() - bill_before,
            breaker_tripped_at_s: None,
        })
    }
}
