// The criterion_group macro expands to undocumented public items the
// workspace-level missing_docs lint would otherwise flag.
#![allow(missing_docs)]
//! One Criterion benchmark per table/figure pipeline.
//!
//! Each group benches the hot inner loop of the corresponding experiment.
//! A path e2ebench already times end to end (the Fig. 2 week on a
//! populated fleet, the 1 Hz attack loop with its RAPL sampling and
//! `Cloud::read_file_into`, the campaign sweep and its oracles) has no
//! row here. ci.sh runs e2ebench's workloads as smoke tests only, with
//! no timing bound, so those paths have no performance gate until
//! e2ebench gets one.
//!
//! The harness pins the process to one CPU. Rows that step several hosts
//! do so serially, as the lab, the defended fleet and the cloud do.
//!
//! * `table1_scan`       — the cross-validation walk + differential diff
//! * `route_resolve_cc1_listing` — the pseudo-fs route resolver over
//!   every path a CC1 instance lists
//! * `table2_metrics`    — entropy computation over a 60-point trace
//! * `table3_unixbench`  — the full UnixBench overhead replay
//! * `fig2_week_segment_coalesced` — an hour of the Fig. 2 pipeline on
//!   quiescent hosts, where the event-horizon coalescer applies
//! * `fleet_10k_week`    — a simulated week across 10,000 hosts on the
//!   lazy calendar; `fleet_10k_week_eager`, timed once in its own group
//!   against a memory-latency kernel, is the eager reference the bench
//!   gate holds it ≥5x ahead of
//! * `fleet_10k_meter_idle` — the same week with 2,000 idle instances
//!   over 64 tenants, so billing meters every one of them each hour
//! * `host_lifecycle_idle` — one idle CC1 host's container lifecycle:
//!   create the env, advance a quiescent hour, destroy the env
//! * `fleet_calendar_pop` — the calendar pop/sync/re-push cycle with
//!   every host due each advance
//! * `fig4_staircase`    — launching + measuring one attack container
//! * `fig6_training`     — one training-interval sample collection
//! * `fig8_model_eval`   — power-model inference per perf-counter delta
//! * `fig9_ns_update`    — one power-namespace calibration interval
//! * `substrate_kernel_tick_1s` — one loaded kernel-second;
//!   `kernel_tick_8_hosts` — eight of them stepped by a plain loop
//! * `detector_week`     — a simulated week at hourly cadence with the
//!   online detector observing a bursty prober: prices the read-tap,
//!   the per-advance verdict evaluation, and the live policy swap

use criterion::{criterion_group, criterion_main, BatchSize, Calibration, Criterion};
use std::hint::black_box;

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, HostId, InstanceSpec};
use containerleaks::container_runtime::ContainerSpec;
use containerleaks::leakscan::metrics::joint_entropy;
use containerleaks::leakscan::{CrossValidator, Lab};
use containerleaks::powerns::nsfs::{DefendedHost, PowerNamespace};
use containerleaks::powerns::{run_table3, Trainer};
use containerleaks::pseudofs::route_for;
use containerleaks::simkernel::cgroup::PerfCounters;
use containerleaks::simkernel::{Kernel, MachineConfig};
use containerleaks::workloads::models;

fn bench_table1_scan(c: &mut Criterion) {
    let lab = Lab::new(1, 1);
    let host = lab.host(0);
    let view = host.container_view();
    let validator = CrossValidator::new();
    c.bench_function("table1_scan", |b| {
        b.iter(|| black_box(validator.scan(&host.kernel, &view)))
    });
}

fn bench_route_resolve(c: &mut Criterion) {
    // The pseudo-fs route resolver alone: every path a CC1 instance
    // lists, resolved to its route. A read also renders, which dominates,
    // so `table1_scan` moves only ~1.3x when the resolver doubles.
    let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 5);
    let inst = cloud.launch("t0", InstanceSpec::new("i0")).expect("launch");
    let paths = cloud.list_files(inst).expect("instance is live");
    assert!(
        paths.iter().all(|p| route_for(p).is_some()),
        "listed paths route"
    );
    c.bench_function("route_resolve_cc1_listing", |b| {
        b.iter(|| paths.iter().filter(|p| route_for(p).is_some()).count())
    });
}

fn bench_table2_metrics(c: &mut Criterion) {
    // 60 snapshots × 40 fields, the Formula-1 entropy input shape.
    let snaps: Vec<Vec<f64>> = (0..60)
        .map(|t| (0..40).map(|f| ((t * 7 + f * 13) % 23) as f64).collect())
        .collect();
    c.bench_function("table2_metrics_entropy", |b| {
        b.iter(|| black_box(joint_entropy(&snaps)))
    });
}

fn bench_table3_unixbench(c: &mut Criterion) {
    let machine = MachineConfig::testbed_i7_6700();
    c.bench_function("table3_unixbench", |b| {
        b.iter(|| black_box(run_table3(&machine)))
    });
}

fn bench_fig2_week_segment_coalesced(c: &mut Criterion) {
    // The same hour of the Fig. 2 pipeline on a fleet *without*
    // background services: the hosts are quiescent between trace
    // applications, so the event-horizon coalescer folds each 30 s
    // advance into a handful of spans. The populated-fleet version of
    // this hour is e2ebench's `registry` workload, where Fig. 2 is the
    // largest share.
    use containerleaks::powersim::DiurnalTrace;
    let mut cloud = Cloud::new(
        CloudConfig::new(CloudProfile::CC1)
            .hosts(8)
            .without_background(),
        2,
    );
    let mut trace = DiurnalTrace::paper_week(2);
    cloud.set_tick_secs(30);
    let mut t = 0u64;
    c.bench_function("fig2_week_segment_coalesced", |b| {
        b.iter(|| {
            let mut agg = 0.0;
            for _ in 0..120 {
                trace.apply(&mut cloud, t);
                cloud.advance_secs(30);
                agg = (0..8).map(|h| cloud.host_power_w(HostId(h))).sum();
                t += 30;
            }
            black_box(agg)
        })
    });
}

/// Shared fleet for the datacenter-scale calendar benches: 10,000
/// hosts, no background churn, and `instances` 1-vCPU instances over
/// `tenants` tenants placed by the capacity index. The week is stepped
/// at a one-hour control cadence — the shape `advance_secs` sees from
/// an orchestrator that wakes up periodically over an almost entirely
/// quiescent fleet.
fn fleet_10k(eager: bool, instances: usize, tenants: usize) -> Cloud {
    let mut cfg = CloudConfig::new(CloudProfile::CC2)
        .hosts(10_000)
        .without_background();
    if eager {
        cfg = cfg.eager_advance();
    }
    let mut cloud = Cloud::new(cfg, 9);
    for i in 0..instances {
        let tenant = format!("t{}", i % tenants);
        cloud
            .launch(&tenant, InstanceSpec::new(format!("i{i}")).vcpus(1))
            .expect("10k-host fleet has room for every instance");
    }
    cloud.install_faults(&containerleaks::simkernel::FaultPlan::standard(9));
    cloud
}

fn bench_fleet_10k_week(c: &mut Criterion) {
    // The headline calendar number: a simulated week across 10,000
    // hosts. Each of the 168 hourly advances pops only the due hosts
    // from the calendar; the quiescent thousands are never
    // touched until the closing power observation syncs host 0.
    let mut cloud = fleet_10k(false, 32, 4);
    c.bench_function("fleet_10k_week", |b| {
        b.iter(|| {
            for _ in 0..168 {
                cloud.advance_secs(3600);
            }
            black_box(cloud.host_power_w(HostId(0)))
        })
    });
}

fn bench_fleet_10k_week_eager(c: &mut Criterion) {
    // Same fleet and cadence with the calendar disabled: eager
    // advance, so every hourly step walks all 10,000 hosts. The bench
    // gate demands `fleet_10k_week` beat this by at least 5x; a bound
    // the lazy row clears by orders of magnitude needs one sample. The
    // walk over ~200 MB of host state is bound by memory latency, so its
    // group is calibrated by a memory walk, not the compute kernel.
    let mut cloud = fleet_10k(true, 32, 4);
    c.bench_function("fleet_10k_week_eager", |b| {
        b.iter(|| {
            for _ in 0..168 {
                cloud.advance_secs(3600);
            }
            black_box(cloud.host_power_w(HostId(0)))
        })
    });
}

fn bench_fleet_10k_meter_idle(c: &mut Criterion) {
    // Billing over an idle fleet: 2,000 open instances that never run,
    // so no host is ever due and each hourly advance is all metering.
    // Every instance pays its base charge each hour; none has a cpuacct
    // delta to read.
    let mut cloud = fleet_10k(false, 2_000, 64);
    c.bench_function("fleet_10k_meter_idle", |b| {
        b.iter(|| {
            for _ in 0..168 {
                cloud.advance_secs(3600);
            }
            black_box(cloud.bill("t0").total_usd())
        })
    });
}

fn bench_host_lifecycle_idle(c: &mut Criterion) {
    // The per-host cost of container churn on an idle fleet: the create
    // and destroy bookkeeping plus the one idle-anchor capture the hour's
    // quiescent advance makes after the create invalidated the anchor.
    let mut k = Kernel::new(CloudProfile::CC1.default_machine(), 17);
    k.fast_forward_boot(40 * 86_400);
    let mut n = 0u64;
    c.bench_function("host_lifecycle_idle", |b| {
        b.iter(|| {
            n += 1;
            let env = k
                .create_container_env(&format!("c{n}"))
                .expect("env fits an idle host");
            k.advance_secs(3_600);
            k.destroy_container_env(&env).expect("env is live");
            black_box(k.rapl().package_energy_uj(0))
        })
    });
}

fn bench_fleet_calendar_pop(c: &mut Criterion) {
    // Prices the pop/sync/re-push cycle itself: 192 hosts each wired
    // with a 1 Hz implanted timer, so every one-second advance makes
    // every host due and the calendar cannot skip anything.
    let mut cloud = Cloud::new(
        CloudConfig::new(CloudProfile::CC2)
            .hosts(192)
            .without_background(),
        9,
    );
    let ids: Vec<_> = (0..192)
        .map(|i| {
            cloud
                .launch("t0", InstanceSpec::new(format!("i{i}")).vcpus(1))
                .expect("one instance per host fits")
        })
        .collect();
    // A sleeping owner process per container (timers need a live pid),
    // then the timers themselves: every host quiescent but for its tick.
    for (i, id) in ids.into_iter().enumerate() {
        cloud
            .exec(id, &format!("owner-{i}"), models::sleeper())
            .expect("instance is live");
        cloud
            .implant_timer(id, &format!("tick-{i}"))
            .expect("owner process is live");
    }
    c.bench_function("fleet_calendar_pop", |b| {
        b.iter(|| {
            cloud.advance_secs(1);
            black_box(cloud.rack_power_w(0))
        })
    });
}

fn bench_fig4_staircase(c: &mut Criterion) {
    c.bench_function("fig4_container_launch_and_load", |b| {
        b.iter_batched(
            || {
                let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 4);
                cloud.advance_secs(1);
                cloud
            },
            |mut cloud| {
                let inst = cloud.launch("a", InstanceSpec::new("atk")).expect("launch");
                for i in 0..4 {
                    cloud
                        .exec(inst, &format!("p{i}"), models::prime())
                        .expect("exec");
                }
                cloud.advance_secs(5);
                black_box(cloud.host_power_w(HostId(0)))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_fig6_training(c: &mut Criterion) {
    let trainer = Trainer::new(6);
    let workload = models::stress_small();
    c.bench_function("fig6_training_sample_collection", |b| {
        b.iter(|| black_box(trainer.collect_samples(&workload)))
    });
}

fn bench_fig8_model_eval(c: &mut Criterion) {
    let model = Trainer::new(8).train();
    let delta = PerfCounters {
        instructions: 9_000_000_000,
        cache_misses: 14_000_000,
        branch_misses: 19_000_000,
        cycles: 13_600_000_000,
    };
    c.bench_function("fig8_model_eval", |b| {
        b.iter(|| black_box(model.package_uj(&delta)))
    });
}

fn bench_fig9_ns_update(c: &mut Criterion) {
    let model = Trainer::new(9).train();
    let mut host = DefendedHost::new(MachineConfig::testbed_i7_6700(), 9, model);
    let cont = host
        .create_container(ContainerSpec::new("c"))
        .expect("container");
    host.exec(cont, "w", models::stress_small())
        .expect("workload");
    c.bench_function("fig9_namespace_update_interval", |b| {
        b.iter(|| {
            host.advance_secs(1);
            black_box(host.container_energy_uj(cont))
        })
    });
}

fn bench_covert_bit(c: &mut Criterion) {
    use containerleaks::leakscan::{CovertLink, CovertMedium};
    c.bench_function("covert_timer_list_bit", |b| {
        b.iter_batched(
            || {
                let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), 13);
                let mut rt = containerleaks::container_runtime::Runtime::new();
                let tx = rt.create(&mut k, ContainerSpec::new("tx")).expect("tx");
                let rx = rt.create(&mut k, ContainerSpec::new("rx")).expect("rx");
                rt.exec(&mut k, tx, "a", models::sleeper()).expect("a");
                rt.exec(&mut k, rx, "a", models::sleeper()).expect("a");
                (k, rt, tx, rx)
            },
            |(mut k, mut rt, tx, rx)| {
                let mut link = CovertLink::new(CovertMedium::TimerList).slot_secs(1);
                black_box(
                    link.transmit(&mut k, &mut rt, tx, rx, &[true])
                        .expect("bit"),
                )
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_hardening(c: &mut Criterion) {
    use containerleaks::leakscan::Hardener;
    let lab = Lab::new(1, 14);
    let host = lab.host(0);
    let view = host.container_view();
    c.bench_function("hardening_policy_generation", |b| {
        b.iter(|| black_box(Hardener::new().harden(&host.kernel, &view)))
    });
}

fn bench_kernel_tick(c: &mut Criterion) {
    // The substrate's base cost: one loaded kernel-second.
    let mut k = Kernel::new(MachineConfig::cloud_server(), 10);
    for i in 0..8 {
        k.spawn_host_process(&format!("w{i}"), models::web_service(0.4))
            .expect("spawn");
    }
    c.bench_function("substrate_kernel_tick_1s", |b| {
        b.iter(|| {
            k.advance_secs(1);
            black_box(k.wall_watts())
        })
    });
}

fn bench_kernel_tick_8_hosts(c: &mut Criterion) {
    // A busy host collection: eight loaded kernel-seconds stepped in
    // host order, the loop `Lab::advance_secs` and
    // `DefendedFleet::advance_secs` run.
    let mut kernels: Vec<Kernel> = (0..8)
        .map(|seed| {
            let mut k = Kernel::new(MachineConfig::cloud_server(), seed);
            for i in 0..8 {
                k.spawn_host_process(&format!("w{i}"), models::web_service(0.4))
                    .expect("spawn");
            }
            k
        })
        .collect();
    c.bench_function("kernel_tick_8_hosts", |b| {
        b.iter(|| {
            for k in &mut kernels {
                k.advance_secs(1);
            }
            black_box(kernels[7].wall_watts())
        })
    });
}

fn bench_detector_week(c: &mut Criterion) {
    // A simulated week of a detector-on fleet at the hourly control
    // cadence. The prober bursts four full channel sweeps per wake —
    // enough to trip the rate floor inside one window — so the first
    // hour pays the verdict + live policy swap and the remaining 167
    // price the steady state: denied probes still observed, windows
    // evicted, no further updates. Each iteration rebuilds the cloud so
    // the flag always lands inside the measured week.
    use containerleaks::cloudsim::{DetectorConfig, PlacementPolicy};
    use containerleaks::leakscan::{AdaptiveAttacker, AttackerMode};
    c.bench_function("detector_week", |b| {
        b.iter_batched(
            || {
                let cfg = CloudConfig::new(CloudProfile::CC1)
                    .hosts(8)
                    .placement(PlacementPolicy::BinPack)
                    .without_background()
                    .detector(DetectorConfig::default());
                let mut cloud = Cloud::new(cfg, 15);
                let benign = cloud
                    .launch("alice", InstanceSpec::new("web"))
                    .expect("benign");
                let prober = cloud
                    .launch("mallory", InstanceSpec::new("probe"))
                    .expect("prober");
                let atk = AdaptiveAttacker::new(AttackerMode::Persistent, prober, None);
                (cloud, atk, benign)
            },
            |(mut cloud, mut atk, benign)| {
                for hour in 0..168u64 {
                    let _ = cloud.read_file(benign, "/proc/meminfo");
                    for _ in 0..4 {
                        atk.step(&mut cloud, hour * 3600);
                    }
                    cloud.advance_secs(3600);
                }
                black_box(cloud.detector().map(|d| d.report().len()))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_namespace_install(c: &mut Criterion) {
    let model = Trainer::new(11).train();
    c.bench_function("defense_namespace_install", |b| {
        b.iter_batched(
            || Kernel::new(MachineConfig::testbed_i7_6700(), 11),
            |mut k| black_box(PowerNamespace::install(&mut k, model.clone()).expect("install")),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = pipelines;
    config = Criterion::default().sample_size(15);
    targets =
        bench_table1_scan,
        bench_route_resolve,
        bench_table2_metrics,
        bench_table3_unixbench,
        bench_fig2_week_segment_coalesced,
        bench_fleet_10k_week,
        bench_fleet_10k_meter_idle,
        bench_host_lifecycle_idle,
        bench_fleet_calendar_pop,
        bench_fig4_staircase,
        bench_fig6_training,
        bench_fig8_model_eval,
        bench_fig9_ns_update,
        bench_covert_bit,
        bench_hardening,
        bench_kernel_tick,
        bench_kernel_tick_8_hosts,
        bench_detector_week,
        bench_namespace_install,
);
criterion_group!(
    name = eager_reference;
    config = Criterion::default()
        .sample_size(1)
        .calibration(Calibration::MemoryLatency);
    targets = bench_fleet_10k_week_eager,
);
criterion_main!(pipelines, eager_reference);
