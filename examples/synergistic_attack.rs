//! The synergistic power attack (§IV): monitor the fleet through the
//! leaked RAPL channel, superimpose power-virus bursts on benign crests,
//! and trip an oversubscribed branch breaker that a schedule-blind
//! periodic attack cannot.
//!
//! ```sh
//! cargo run --release --example synergistic_attack
//! ```

use containerleaks::cloudsim::{CloudConfig, CloudProfile};
use containerleaks::powersim::{
    calibrate, strike, surge_fleet, AttackStrategy, CircuitBreaker, SURGE_WINDOW_START,
};

const SEED: u64 = 77;
const WINDOW_LEN: u64 = 3_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fleet = || surge_fleet(CloudConfig::new(CloudProfile::CC1), SEED);

    // Reconnaissance: observe the window with no payload; the attacker's
    // RAPL estimate at the 97th percentile becomes the trigger.
    let recon = calibrate(fleet(), SEED, SURGE_WINDOW_START, WINDOW_LEN)?;
    let threshold = recon
        .trigger_w(97)
        .ok_or("reconnaissance produced no power estimates")?;
    println!("RAPL-derived trigger threshold: {threshold:.0} W (package domains)");

    let run = |name: &str, strategy: AttackStrategy| -> Result<(), Box<dyn std::error::Error>> {
        let mut breaker = CircuitBreaker::new(1_190.0).thermal_limit(8.0);
        let out = strike(
            fleet(),
            strategy,
            SEED,
            SURGE_WINDOW_START,
            WINDOW_LEN,
            Some(&mut breaker),
        )?;
        println!(
            "{name:<12} peak {:.0} W | {} trials | cost ${:.4} | breaker: {}",
            out.peak_w,
            out.trials,
            out.attack_cost_usd,
            match out.breaker_tripped_at_s {
                Some(t) => format!("TRIPPED at t={t:.0} s — power outage"),
                None => "held".to_string(),
            }
        );
        Ok(())
    };

    run(
        "periodic",
        AttackStrategy::Periodic {
            period_s: 300,
            burst_s: 60,
        },
    )?;
    run(
        "synergistic",
        AttackStrategy::Synergistic {
            threshold_w: threshold,
            burst_s: 90,
            cooldown_s: 600,
        },
    )?;
    println!("\nthe RAPL leak converts a blind gamble into a timed strike.");
    Ok(())
}
