//! Steadiness report: run each workload repeatedly, each run in its own
//! process with its own seed, alternating the workload order, and
//! print each end-to-end metric's median, quartiles and spread against
//! its bound. With several sets of runs, it also prints how far each
//! later set's median moved from the first set's, against the same
//! bound.

use crate::report::{end_to_end, Better, Header};
use crate::stats::{median, quartiles, spread, worsening};
use std::collections::BTreeMap;
use std::process::Command;

/// One child run's parsed output.
#[derive(Debug, Default)]
struct RunOutput {
    header: String,
    metrics: BTreeMap<String, f64>,
    validity: Vec<String>,
}

/// Value of a top-level `"key":` in a one-line JSON object written by
/// this program (strings unquoted).
fn json_field(json: &str, key: &str) -> Option<String> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[at..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|e| s[..e].to_owned());
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].to_owned())
}

/// The comparability fields of a header line.
fn header_of(json: &str) -> Result<Header, String> {
    let field = |k: &str| json_field(json, k).ok_or_else(|| format!("header lacks {k}"));
    Ok(Header {
        host_cpus: field("host_cpus")?.parse().map_err(|_| "bad host_cpus")?,
        cpu_features: field("cpu_features")?,
        profile: if field("profile")? == "release" {
            "release"
        } else {
            "debug"
        },
        commit: field("commit")?,
        seed: field("seed")?.parse().map_err(|_| "bad seed")?,
        workload: field("workload")?,
        store_fs: field("store_fs")?,
        seconds: field("seconds")?.parse().map_err(|_| "bad seconds")?,
        clients: field("clients")?.parse().map_err(|_| "bad clients")?,
        trace: field("trace")? == "true",
    })
}

fn parse(stdout: &str) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let last = stdout.lines().last().unwrap_or_default();
    if json_field(last, "correct").as_deref() != Some("true") {
        return Err(format!("run was not correct: {last}"));
    }
    for line in stdout.lines() {
        if let Some(h) = line.strip_prefix("header ") {
            out.header = h.to_owned();
        } else if let Some(v) = line.strip_prefix("validity ") {
            out.validity.push(v.to_owned());
        } else if let Some(m) = line.strip_prefix("metric ") {
            let mut f = m.split(' ');
            if let (Some(name), Some(value)) = (f.next(), f.next()) {
                let v = value
                    .parse()
                    .map_err(|_| format!("bad metric line {line}"))?;
                out.metrics.insert(name.to_owned(), v);
            }
        }
    }
    Ok(out)
}

/// Run one workload once as a child process and parse its output.
fn run_child(exe: &std::path::Path, w: &str, seed: u64, seconds: u64) -> Result<RunOutput, String> {
    let child = Command::new(exe)
        .args(["--workload", w, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("starting {w}: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "{w} seed {seed} exited {}: {}",
            child.status,
            String::from_utf8_lossy(&child.stderr)
        ));
    }
    parse(&String::from_utf8_lossy(&child.stdout))
}

/// Run `sets` sets of `runs` rounds over `workloads` (seeds 1..=runs in
/// every set) and print, per set, each end-to-end metric's median,
/// quartiles and spread against its bound and, from the second set on,
/// each median beside the first set's. Returns whether every spread
/// and every change of a median between sets is within its bound.
pub fn run(workloads: &[&str], runs: usize, sets: usize, seconds: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    // (set, workload) → the set's runs in seed order.
    let mut results: BTreeMap<(usize, String), Vec<RunOutput>> = BTreeMap::new();
    let mut first: Option<Header> = None;
    for set in 0..sets {
        for r in 0..runs {
            let seed = r as u64 + 1;
            let order: Vec<&str> = if (set * runs + r).is_multiple_of(2) {
                workloads.to_vec()
            } else {
                workloads.iter().rev().copied().collect()
            };
            for w in order {
                let out = run_child(&exe, w, seed, seconds)?;
                let header = header_of(&out.header)?;
                match &first {
                    None => first = Some(header),
                    Some(h) => {
                        if let Some(why) = h.incompatible(&header) {
                            return Err(format!(
                                "refusing to compare runs from different hosts or builds: {why}"
                            ));
                        }
                    }
                }
                eprintln!("set {} {w} seed {seed} done", set + 1);
                results.entry((set, w.to_owned())).or_default().push(out);
            }
        }
    }
    let mut all_within = true;
    let mut medians: BTreeMap<(usize, &str, String), f64> = BTreeMap::new();
    println!("set workload metric unit better median q1 q3 spread bound flag runs");
    for ((set, w), outs) in &results {
        for d in end_to_end() {
            let xs: Vec<f64> = outs
                .iter()
                .filter_map(|o| o.metrics.get(&d.name).copied())
                .collect();
            let (q1, q3) = quartiles(&xs).unwrap_or((f64::NAN, f64::NAN));
            let s = spread(&xs).unwrap_or(f64::NAN);
            let bound = d.bound.unwrap_or(f64::NAN);
            let m = median(&xs);
            all_within &= s <= bound;
            println!(
                "{} {w} {} {} {} {m:?} {q1:?} {q3:?} {s:.4} {bound} {} runs {xs:?}",
                set + 1,
                d.name,
                d.unit,
                d.better.as_str(),
                flag(s, bound)
            );
            medians.insert((*set, w.as_str(), d.name.clone()), m);
        }
        for (i, o) in outs.iter().enumerate() {
            if !o.validity.is_empty() {
                println!(
                    "{} {w} run {} validity {}",
                    set + 1,
                    i + 1,
                    o.validity.join(", ")
                );
            }
        }
    }
    if sets > 1 {
        println!(
            "compare workload metric unit better median_set1 median_setN set worsening bound flag"
        );
        for w in workloads {
            for d in end_to_end() {
                let bound = d.bound.unwrap_or(f64::NAN);
                let m1 = medians[&(0, *w, d.name.clone())];
                for set in 1..sets {
                    let mk = medians[&(set, *w, d.name.clone())];
                    let worse = worsening(m1, mk, d.better == Better::Lower);
                    all_within &= worse <= bound;
                    println!(
                        "compare {w} {} {} {} {m1:?} {mk:?} {} {worse:.4} {bound} {}",
                        d.name,
                        d.unit,
                        d.better.as_str(),
                        set + 1,
                        flag(worse, bound)
                    );
                }
            }
        }
    }
    Ok(all_within)
}

/// How a spread or a worsening `x` sits against its bound.
fn flag(x: f64, bound: f64) -> &'static str {
    if x.is_nan() || x > bound {
        "WIDER-THAN-BOUND"
    } else if x > bound / 3.0 {
        "above-third"
    } else {
        "ok"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_own_output() {
        let text = "header {\"host_cpus\":2,\"cpu_features\":\"avx2\",\"profile\":\"release\",\"commit\":\"x\",\"seed\":3,\"workload\":\"w\",\"store_fs\":\"ext4\",\"seconds\":5,\"clients\":2,\"trace\":false}\nvalidity route_retries 2\nmetric setup_s 1.5 s lower\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}";
        let out = parse(text).unwrap();
        assert_eq!(out.metrics["setup_s"], 1.5);
        assert_eq!(out.validity, vec!["route_retries 2"]);
        let h = header_of(&out.header).unwrap();
        assert_eq!((h.host_cpus, h.seed, h.profile), (2, 3, "release"));
        assert!(parse("{\"correct\":false}").is_err());
    }

    #[test]
    fn flags_against_the_bound() {
        assert_eq!(flag(0.05, 0.25), "ok");
        assert_eq!(flag(0.1, 0.25), "above-third");
        assert_eq!(flag(0.3, 0.25), "WIDER-THAN-BOUND");
        assert_eq!(flag(f64::NAN, 0.25), "WIDER-THAN-BOUND");
    }
}
