//! The trace-event taxonomy and its determinism grouping.

use std::fmt::Write as _;

/// Which determinism class a record belongs to. See the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// Byte-identical across `--jobs` values, against the tick-stepped
    /// reference and against the eager calendar.
    Portable,
    /// Differs by design between coalesced and tick-stepped kernels, or
    /// between the lazy and the eager calendar; left out of those
    /// compares (`tests/trace_counters.rs`, `tests/fleet_calendar.rs`).
    /// Its label is pinned by the golden trace.
    ModeExempt,
}

impl Group {
    /// The stable label written into trace lines and summaries.
    pub fn label(self) -> &'static str {
        match self {
            Group::Portable => "portable",
            Group::ModeExempt => "mode-exempt",
        }
    }
}

/// One structured trace event. Timestamps live alongside the event in
/// [`TimedEvent`](crate::TimedEvent); every field here is simulation
/// state, never wall-clock state.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A process entered the run queue (`Kernel::spawn` in simkernel).
    SchedSpawn {
        /// Host pid of the new process.
        pid: u32,
        /// Its comm at spawn time.
        comm: String,
    },
    /// A process exited (workload completion or kill).
    SchedExit {
        /// Host pid of the reaped process.
        pid: u32,
    },
    /// A process was paused (SIGSTOP).
    SchedPause {
        /// Host pid.
        pid: u32,
    },
    /// A paused process was resumed (SIGCONT).
    SchedResume {
        /// Host pid.
        pid: u32,
    },
    /// A user hrtimer was armed (the timer-implant primitive).
    TimerArmed {
        /// Owning host pid.
        pid: u32,
        /// Attacker-controlled comm rendered in `/proc/timer_list`.
        comm: String,
    },
    /// A pseudo-file was rendered successfully for a reader.
    PseudofsRead {
        /// Channel path.
        path: String,
        /// Rendered length in bytes (after any sensor distortion).
        bytes: u64,
    },
    /// The view's masking policy denied a path (namespace filter hit).
    MaskDenied {
        /// The denied path.
        path: String,
    },
    /// An installed fault plan made a read fail.
    FaultInjected {
        /// Fault class (`fs.eio`, `fs.short_read`, `sensor.dropout`).
        class: &'static str,
        /// The path the fault fired on.
        path: String,
    },
    /// A sensor value was distorted in-flight (saturation/quantization).
    SensorDistorted {
        /// Fault class (`sensor.saturation`, `sensor.quantization`).
        class: &'static str,
        /// The sensor path.
        path: String,
    },
    /// An uptime read was shifted by an active clock-skew window.
    ClockSkewObserved {
        /// Applied skew, nanoseconds (signed).
        skew_ns: i64,
    },
    /// A fault plan was installed on a kernel.
    FaultsInstalled {
        /// Crash-reboots the plan schedules.
        reboots: u32,
    },
    /// The kernel crash-rebooted (boot id rotated, counters zeroed).
    Reboot {
        /// Reboot ordinal (1 = first crash).
        boot: u32,
    },
    /// A quiescent kernel jumped a coalesced span to its event horizon.
    /// Absent on a tick-stepped kernel, hence mode-exempt.
    CoalescedSpan {
        /// Lifetime-nanosecond instant the span started at.
        from_ns: u64,
        /// Lifetime-nanosecond instant it jumped to.
        to_ns: u64,
    },
    /// A tenant-side RAPL monitor produced a power sample.
    RaplSample {
        /// Observing instance id.
        instance: u64,
        /// Estimated package power, milliwatts (integer for stable bytes).
        milliwatts: i64,
    },
    /// The placement scheduler put an instance on a host.
    Placement {
        /// Instance id.
        instance: u64,
        /// Chosen host id.
        host: u32,
    },
    /// A billing record was opened for an instance.
    BillingOpen {
        /// Owning tenant.
        tenant: String,
        /// Instance id.
        instance: u64,
    },
    /// A billing record was closed (instance terminated or lost).
    BillingClose {
        /// Instance id.
        instance: u64,
    },
    /// The provider-side detector flagged a tenant as a prober.
    TenantFlagged {
        /// Dense cloud tenant id.
        tenant: u32,
        /// Escalation level reached (1 = targeted mask, 2 = full mask).
        level: u8,
        /// Watched-channel reads in the detection window.
        reads: u32,
    },
    /// A live masking-policy update was applied to a running container.
    PolicyUpdated {
        /// Instance id the new policy landed on.
        instance: u64,
        /// Owning tenant id.
        tenant: u32,
        /// Escalation level of the policy (1 = targeted, 2 = full).
        level: u8,
        /// Number of deny rules in the update.
        rules: u32,
    },
    /// A consumer degraded gracefully instead of failing (retry, re-scan,
    /// dropped sample, re-baseline).
    Degraded {
        /// The degrading subsystem (`leakscan`, `powersim`, …).
        subsystem: &'static str,
        /// What happened, human-readable but deterministic.
        detail: String,
    },
}

impl TraceEvent {
    /// Stable kind tag written into trace lines.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SchedSpawn { .. } => "sched_spawn",
            TraceEvent::SchedExit { .. } => "sched_exit",
            TraceEvent::SchedPause { .. } => "sched_pause",
            TraceEvent::SchedResume { .. } => "sched_resume",
            TraceEvent::TimerArmed { .. } => "timer_armed",
            TraceEvent::PseudofsRead { .. } => "pseudofs_read",
            TraceEvent::MaskDenied { .. } => "mask_denied",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::SensorDistorted { .. } => "sensor_distorted",
            TraceEvent::ClockSkewObserved { .. } => "clock_skew",
            TraceEvent::FaultsInstalled { .. } => "faults_installed",
            TraceEvent::Reboot { .. } => "reboot",
            TraceEvent::CoalescedSpan { .. } => "coalesced_span",
            TraceEvent::RaplSample { .. } => "rapl_sample",
            TraceEvent::Placement { .. } => "placement",
            TraceEvent::BillingOpen { .. } => "billing_open",
            TraceEvent::BillingClose { .. } => "billing_close",
            TraceEvent::TenantFlagged { .. } => "tenant_flagged",
            TraceEvent::PolicyUpdated { .. } => "policy_updated",
            TraceEvent::Degraded { .. } => "degraded",
        }
    }

    /// The determinism group this event belongs to. Only coalesced-span
    /// jumps are mode-dependent; every other event records a decision the
    /// simulation makes identically on coalescing and tick-stepped
    /// kernels.
    pub fn group(&self) -> Group {
        match self {
            TraceEvent::CoalescedSpan { .. } => Group::ModeExempt,
            _ => Group::Portable,
        }
    }

    /// Renders the event's payload as a stable `key=value` string (the
    /// `data` field of a trace line).
    pub fn render_data(&self, out: &mut String) {
        match self {
            TraceEvent::SchedSpawn { pid, comm } => {
                let _ = write!(out, "pid={pid} comm={comm}");
            }
            TraceEvent::SchedExit { pid } => {
                let _ = write!(out, "pid={pid}");
            }
            TraceEvent::SchedPause { pid } => {
                let _ = write!(out, "pid={pid}");
            }
            TraceEvent::SchedResume { pid } => {
                let _ = write!(out, "pid={pid}");
            }
            TraceEvent::TimerArmed { pid, comm } => {
                let _ = write!(out, "pid={pid} comm={comm}");
            }
            TraceEvent::PseudofsRead { path, bytes } => {
                let _ = write!(out, "path={path} bytes={bytes}");
            }
            TraceEvent::MaskDenied { path } => {
                let _ = write!(out, "path={path}");
            }
            TraceEvent::FaultInjected { class, path } => {
                let _ = write!(out, "class={class} path={path}");
            }
            TraceEvent::SensorDistorted { class, path } => {
                let _ = write!(out, "class={class} path={path}");
            }
            TraceEvent::ClockSkewObserved { skew_ns } => {
                let _ = write!(out, "skew_ns={skew_ns}");
            }
            TraceEvent::FaultsInstalled { reboots } => {
                let _ = write!(out, "reboots={reboots}");
            }
            TraceEvent::Reboot { boot } => {
                let _ = write!(out, "boot={boot}");
            }
            TraceEvent::CoalescedSpan { from_ns, to_ns } => {
                let _ = write!(out, "from_ns={from_ns} to_ns={to_ns}");
            }
            TraceEvent::RaplSample {
                instance,
                milliwatts,
            } => {
                let _ = write!(out, "instance={instance} milliwatts={milliwatts}");
            }
            TraceEvent::Placement { instance, host } => {
                let _ = write!(out, "instance={instance} host={host}");
            }
            TraceEvent::BillingOpen { tenant, instance } => {
                let _ = write!(out, "tenant={tenant} instance={instance}");
            }
            TraceEvent::BillingClose { instance } => {
                let _ = write!(out, "instance={instance}");
            }
            TraceEvent::TenantFlagged {
                tenant,
                level,
                reads,
            } => {
                let _ = write!(out, "tenant={tenant} level={level} reads={reads}");
            }
            TraceEvent::PolicyUpdated {
                instance,
                tenant,
                level,
                rules,
            } => {
                let _ = write!(
                    out,
                    "instance={instance} tenant={tenant} level={level} rules={rules}"
                );
            }
            TraceEvent::Degraded { subsystem, detail } => {
                let _ = write!(out, "subsystem={subsystem} detail={detail}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_span_jumps_are_mode_exempt() {
        let span = TraceEvent::CoalescedSpan {
            from_ns: 0,
            to_ns: 5,
        };
        assert_eq!(span.group(), Group::ModeExempt);
        let read = TraceEvent::PseudofsRead {
            path: "/proc/stat".into(),
            bytes: 10,
        };
        assert_eq!(read.group(), Group::Portable);
    }

    #[test]
    fn data_rendering_is_stable() {
        let mut s = String::new();
        TraceEvent::FaultInjected {
            class: "fs.eio",
            path: "/proc/stat".into(),
        }
        .render_data(&mut s);
        assert_eq!(s, "class=fs.eio path=/proc/stat");
    }
}
