//! The `campaign` binary's command line, parsed with the same helpers as
//! the experiment CLI: an unknown flag, a flag missing its value, or a
//! bad value is an error (the binary exits 2) instead of being ignored.

use containerleaks::campaign::{CampaignConfig, InjectedViolation, Overrides};

use crate::{on_off, value};

/// A parsed `campaign` command line.
#[derive(Debug)]
pub struct CampaignCli {
    /// The sweep to run.
    pub config: CampaignConfig,
    /// `--seed-start`: the seed the trace artifact is stamped with.
    pub seed_start: u64,
    /// Markdown report path (a `.json` companion lands next to it).
    pub out: Option<String>,
    /// JSONL trace path.
    pub trace: Option<String>,
    /// Print the counter and profile summary.
    pub counters: bool,
}

impl CampaignCli {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// A message naming the unknown flag or the bad value.
    pub fn parse(args: &[String]) -> Result<CampaignCli, String> {
        let (mut seed_start, mut count, mut seed, mut jobs) = (0u64, 16usize, None, 1usize);
        let mut overrides = Overrides::default();
        let (mut shrink, mut injected) = (true, None);
        let (mut out, mut trace, mut counters) = (None, None, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let f = flag.as_str();
            match f {
                "--seeds" => count = value(f, it.next(), "a scenario count")?,
                "--seed-start" => seed_start = value(f, it.next(), "a u64")?,
                "--seed" => seed = Some(value(f, it.next(), "a u64")?),
                "--jobs" => {
                    jobs = value(f, it.next(), "a worker count ≥ 1")?;
                    if jobs == 0 {
                        return Err("--jobs takes a worker count ≥ 1, got `0`".into());
                    }
                }
                "--hosts" => overrides.hosts = Some(value(f, it.next(), "a host count")?),
                "--tenants" => overrides.tenants = Some(value(f, it.next(), "a tenant count")?),
                "--churn" => overrides.churn_cycles = Some(value(f, it.next(), "a cycle count")?),
                "--faults" => overrides.faults = Some(on_off(f, it.next())?),
                "--no-shrink" => shrink = false,
                "--inject" => injected = Some(injection(f, it.next())?),
                "--out" => out = Some(value(f, it.next(), "a path")?),
                "--trace" => trace = Some(value(f, it.next(), "a path")?),
                "--counters" => counters = true,
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let mut config = match seed {
            Some(seed) => CampaignConfig::sweep(seed, 1),
            None => CampaignConfig::sweep(seed_start, count),
        }
        .jobs(jobs)
        .overrides(overrides)
        .shrink(shrink);
        if let Some(v) = injected {
            config = config.inject(v);
        }
        Ok(CampaignCli {
            config,
            seed_start,
            out,
            trace,
            counters,
        })
    }
}

/// Parses `--inject`'s `hosts,tenants,churn` thresholds.
fn injection(flag: &str, v: Option<&String>) -> Result<InjectedViolation, String> {
    let spec: String = value(flag, v, "`hosts,tenants,churn`")?;
    let bad = || format!("{flag} takes `hosts,tenants,churn`, got `{spec}`");
    let parts: Vec<&str> = spec.split(',').collect();
    let [hosts, tenants, churn] = parts[..] else {
        return Err(bad());
    };
    Ok(InjectedViolation {
        min_hosts: hosts.parse().map_err(|_| bad())?,
        min_tenants: tenants.parse().map_err(|_| bad())?,
        min_churn: churn.parse().map_err(|_| bad())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CampaignCli, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        CampaignCli::parse(&args)
    }

    #[test]
    fn defaults_sweep_sixteen_seeds_on_one_worker() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.config.seeds, (0..16).collect::<Vec<u64>>());
        assert_eq!(cli.config.jobs, 1);
        assert!(cli.config.overrides.is_empty());
        assert!(cli.config.shrink);
        assert_eq!(cli.config.injected, None);
        assert_eq!((cli.seed_start, cli.out, cli.trace), (0, None, None));
        assert!(!cli.counters);
    }

    #[test]
    fn parses_every_flag() {
        let cli = parse(&[
            "--seeds",
            "4",
            "--seed-start",
            "10",
            "--jobs",
            "3",
            "--hosts",
            "2",
            "--tenants",
            "5",
            "--churn",
            "7",
            "--faults",
            "off",
            "--no-shrink",
            "--inject",
            "2,3,4",
            "--out",
            "c.md",
            "--trace",
            "c.jsonl",
            "--counters",
        ])
        .unwrap();
        assert_eq!(cli.config.seeds, vec![10, 11, 12, 13]);
        assert_eq!(cli.config.jobs, 3);
        let o = cli.config.overrides;
        assert_eq!(
            (o.hosts, o.tenants, o.churn_cycles, o.faults),
            (Some(2), Some(5), Some(7), Some(false))
        );
        assert!(!cli.config.shrink);
        assert_eq!(
            cli.config.injected,
            Some(InjectedViolation {
                min_hosts: 2,
                min_tenants: 3,
                min_churn: 4,
            })
        );
        assert_eq!(cli.seed_start, 10);
        assert_eq!(cli.out.as_deref(), Some("c.md"));
        assert_eq!(cli.trace.as_deref(), Some("c.jsonl"));
        assert!(cli.counters);
    }

    #[test]
    fn one_seed_replaces_the_sweep() {
        let cli = parse(&["--seed", "4711", "--seeds", "200"]).unwrap();
        assert_eq!(cli.config.seeds, vec![4711]);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for bad in [
            &["--sedes", "4"][..],
            &["--bogus"],
            &["--seeds"],
            &["--seeds", "x"],
            &["--seed"],
            &["--seed-start", "-1"],
            &["--jobs", "0"],
            &["--jobs"],
            &["--hosts", "two"],
            &["--tenants"],
            &["--churn", "1.5"],
            &["--faults", "yes"],
            &["--faults"],
            &["--inject", "1,2"],
            &["--inject", "1,2,3,4"],
            &["--inject", "1,x,3"],
            &["--inject"],
            &["--out"],
            &["--trace"],
            &["--coalesce", "off"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
