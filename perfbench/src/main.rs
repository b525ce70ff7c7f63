//! End-to-end and per-layer benchmark of the dnacomp exchange path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-exchange --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --steady 10 --sets 2 --seconds 30 [--workloads a,b]
//! ```
//!
//! One run sets a workload up several times (reporting the median
//! set-up time), measures it for `--seconds`, checks every output, and
//! prints the run header, one `metric <name> <value> <unit> <better>`
//! line per metric, and last the result object. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records spans around the
//! benchmark's calls into each layer, replays the inputs layer by layer
//! and reports the per-layer metrics instead. See `perfbench/README.md`.

mod bulk;
mod cluster;
mod common;
mod grid;
mod host;
mod report;
mod routed;
mod stats;
mod steady;
mod trace;

use report::{end_to_end, metric_line, per_layer, result_line, Header};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Workload names, in the order the steadiness mode starts from.
pub const WORKLOADS: [&str; 3] = ["bulk-exchange", "small-routed", "selector-grid"];

/// Times each workload is set up in one run; the median is reported.
pub const SETUPS: usize = 5;

/// Client connections (or threads) driving each workload's load.
pub const CLIENTS: usize = 2;

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// Per-layer values a workload measured, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Set one value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// A ratio, reported together with its numerator and denominator.
    pub fn ratio(&mut self, info: &mut Vec<String>, name: &str, num: f64, den: f64) {
        let value = if den > 0.0 { num / den } else { 0.0 };
        info.push(format!("ratio {name} {value:?} = {num:?} / {den:?}"));
        self.set(name, value);
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (typed errors, timeouts, quorum failures
    /// and verification mismatches).
    pub failed: u64,
    /// Verification mismatches (a subset of `failed`), with the first
    /// few messages.
    pub mismatches: Vec<String>,
    /// End-to-end values by metric name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values (traced runs).
    pub layers: Layers,
    /// Diagnostic lines printed before the result.
    pub info: Vec<String>,
    /// Events that make the timed phase unlike a clean one: shard
    /// ejections, router retries, queue `rejected_full`.
    pub validity: Vec<String>,
    /// Filesystem of the store directories ("none" without a store).
    pub store_fs: String,
}

impl Outcome {
    /// Record a failed operation; mismatches also keep their message.
    pub fn fail(&mut self, mismatch: Option<String>) {
        self.failed += 1;
        if let Some(m) = mismatch {
            if self.mismatches.len() < 5 {
                self.mismatches.push(m);
            } else if self.mismatches.len() == 5 {
                self.mismatches.push("…".to_owned());
            }
        }
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       perfbench --steady <runs> [--sets <n>] --seconds <n> [--workloads a,b,..]",
        WORKLOADS.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let num = |flag: &str| {
        get(flag).map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} wants a number"))
        })
    };
    let parsed = (|| -> Result<(Option<String>, Opts, Option<u64>), String> {
        let opts = Opts {
            seed: num("--seed").transpose()?.unwrap_or(1),
            seconds: num("--seconds").transpose()?.unwrap_or(10).max(1),
            trace: num("--trace").transpose()?.unwrap_or(0) != 0,
        };
        Ok((get("--workload"), opts, num("--steady").transpose()?))
    })();
    let (workload, opts, steady_runs) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = steady_runs {
        let list = get("--workloads").unwrap_or_else(|| WORKLOADS.join(","));
        let names: Vec<&str> = list.split(',').collect();
        let sets = match num("--sets").transpose() {
            Ok(n) => n.unwrap_or(1).max(1) as usize,
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                return ExitCode::from(2);
            }
        };
        return match steady::run(&names, runs as usize, sets, opts.seconds) {
            Ok(all_within) if all_within => ExitCode::SUCCESS,
            Ok(_) => ExitCode::from(3),
            Err(e) => {
                eprintln!("steadiness run failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = workload else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = match workload.as_str() {
        "bulk-exchange" => bulk::run(&opts),
        "small-routed" => routed::run(&opts),
        "selector-grid" => grid::run(&opts),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&workload, &opts, out)
}

/// Print the header, diagnostics, metric lines and the result line.
fn report(workload: &str, opts: &Opts, out: Outcome) -> ExitCode {
    let header = Header {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_features: dnacomp_seq::CpuFeatures::get().summary(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit: common::git_commit(),
        seed: opts.seed,
        workload: workload.to_owned(),
        store_fs: out.store_fs.clone(),
        seconds: opts.seconds,
        clients: CLIENTS,
        trace: opts.trace,
    };
    println!("header {}", header.to_json());
    for line in &out.info {
        println!("{line}");
    }
    for v in &out.validity {
        println!("validity {v}");
    }
    if !out.mismatches.is_empty() {
        for m in &out.mismatches {
            eprintln!("mismatch: {m}");
        }
        println!(
            "{}",
            result_line(false, out.attempted.max(1), out.failed, &[])
        );
        return ExitCode::FAILURE;
    }
    let metrics: Vec<_> = if opts.trace {
        let mut unused = Vec::new();
        let m = per_layer()
            .into_iter()
            .map(|d| {
                let v = out.layers.0.get(&d.name).copied().unwrap_or_else(|| {
                    unused.push(d.name.clone());
                    0.0
                });
                (d, v)
            })
            .collect();
        if !unused.is_empty() {
            println!("not-exercised {}", unused.join(" "));
        }
        m
    } else {
        let mut missing = Vec::new();
        let m = end_to_end()
            .into_iter()
            .map(|d| {
                let v = out.e2e.get(d.name.as_str()).copied().unwrap_or_else(|| {
                    missing.push(d.name.clone());
                    f64::NAN
                });
                (d, v)
            })
            .collect();
        if !missing.is_empty() {
            eprintln!("{workload} did not measure {}", missing.join(", "));
            return ExitCode::FAILURE;
        }
        m
    };
    if let Some((d, _)) = metrics
        .iter()
        .find(|(d, _)| !report::valid_name(&d.name) || !report::valid_unit(d.unit))
    {
        eprintln!("invalid metric name or unit: {} ({})", d.name, d.unit);
        return ExitCode::FAILURE;
    }
    for (d, v) in &metrics {
        println!("{}", metric_line(d, *v));
    }
    println!(
        "{}",
        result_line(true, out.attempted.max(1), out.failed, &metrics)
    );
    ExitCode::SUCCESS
}
