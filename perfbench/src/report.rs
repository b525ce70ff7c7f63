//! Metric names, units and directions, the run header, and the result
//! line the benchmark prints.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes).
    Lower,
    /// Larger is better (throughputs, accuracies).
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json` and in the output.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's declaration: name, unit, direction and, for end-to-end
/// metrics, the share of the parent's median it may worsen by.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics every workload reports, untraced.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("ingest_mb_s", "Mbase/s", Higher, Some(0.25)),
        def("fetch_mb_s", "Mbase/s", Higher, Some(0.25)),
        def("bits_per_base", "bits", Lower, Some(0.1)),
        def("peak_rss_mb", "MiB", Lower, Some(0.2)),
    ]
}

/// Slug of an algorithm family name: lower case, every run of other
/// characters folded to one `_`, none at either end ("CTW+LZ" →
/// "ctw_lz", "DNAPack-lite" → "dnapack_lite").
pub fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// Slugs of every registered compressor family, in registry order.
pub fn family_slugs() -> Vec<String> {
    dnacomp_algos::all_algorithms()
        .iter()
        .map(|c| slug(c.name()))
        .collect()
}

/// The per-layer metrics every workload reports when traced. A layer
/// the workload does not touch reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        def("seq.gen_s", "s", Lower, None),
        def("codec.suffix_array_s", "s", Lower, None),
        def("algos.compress_p50_ms", "ms", Lower, None),
        def("algos.compress_p99_ms", "ms", Lower, None),
        def("algos.decompress_p50_ms", "ms", Lower, None),
        def("algos.decompress_p99_ms", "ms", Lower, None),
        def("algos.pool_inline_ratio", "fraction", Higher, None),
        def("algos.blocks_per_job", "count", Higher, None),
    ];
    for f in family_slugs() {
        v.push(def(&format!("algos.{f}.compress_s"), "s", Lower, None));
        v.push(def(&format!("algos.{f}.decompress_s"), "s", Lower, None));
    }
    v.extend([
        def("core.decide_us", "us", Lower, None),
        def("core.measure_s", "s", Lower, None),
        def("core.rows_s", "s", Lower, None),
        def("ml.train_cart_s", "s", Lower, None),
        def("ml.train_chaid_s", "s", Lower, None),
        def("ml.evaluate_s", "s", Lower, None),
        def("ml.cart_rules", "count", Lower, None),
        def("ml.selector_accuracy", "fraction", Higher, None),
        def("cloud.exchange_s", "s", Lower, None),
        def("cloud.sim_total_ms", "ms", Lower, None),
        def("cloud.sim_regret", "ratio", Lower, None),
        def("server.service.job_p50_ms", "ms", Lower, None),
        def("server.service.job_p99_ms", "ms", Lower, None),
        def("server.service.residual_ms", "ms", Lower, None),
        def(
            "server.service.decision_cache_hit_rate",
            "fraction",
            Higher,
            None,
        ),
        def("server.service.peak_queue_depth", "count", Lower, None),
        def("server.service.rejected_full", "count", Lower, None),
        def("server.net.overhead_ms", "ms", Lower, None),
        def("server.net.frames_per_op", "count", Lower, None),
        def("server.net.bytes_per_base", "B/base", Lower, None),
        def("server.router.write_p50_ms", "ms", Lower, None),
        def("server.router.write_p99_ms", "ms", Lower, None),
        def("server.router.read_p50_ms", "ms", Lower, None),
        def("server.router.read_p99_ms", "ms", Lower, None),
        def("server.router.overhead_ms", "ms", Lower, None),
        def("server.router.write_amplification", "ratio", Lower, None),
        def("server.router.route_retries", "count", Lower, None),
        def("server.router.read_repairs", "count", Lower, None),
        def("server.router.quorum_failures", "count", Lower, None),
        def("server.router.shard_ejections", "count", Lower, None),
        def("store.put_p50_ms", "ms", Lower, None),
        def("store.put_p99_ms", "ms", Lower, None),
        def("store.get_p50_ms", "ms", Lower, None),
        def("store.get_p99_ms", "ms", Lower, None),
        def("store.wal_appends_per_batch", "ratio", Higher, None),
        def("store.block_cache_hit_rate", "fraction", Higher, None),
        def("store.bloom_negatives", "count", Higher, None),
        def("store.compactions", "count", Lower, None),
        def("store.runs", "count", Lower, None),
        def("store.bytes_on_disk_per_base", "B/base", Lower, None),
        def("client.ingest_p50_ms", "ms", Lower, None),
        def("client.ingest_p90_ms", "ms", Lower, None),
        def("client.fetch_p50_ms", "ms", Lower, None),
        def("client.fetch_p90_ms", "ms", Lower, None),
        def("trace.overhead_pct", "%", Lower, None),
    ]);
    v
}

/// Whether `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A JSON number that keeps every digit Rust prints; non-finite values
/// (which JSON cannot hold) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run header: what a result can only be compared under.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    /// Logical CPUs available to the process.
    pub host_cpus: usize,
    /// SIMD dispatch summary from the `dnacomp_seq` probe.
    pub cpu_features: String,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
    /// Commit of the checkout, or "unknown" outside a git work tree.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// Workload name.
    pub workload: String,
    /// Filesystem type the store directories live on.
    pub store_fs: String,
    /// Timed-phase length, seconds.
    pub seconds: u64,
    /// Client connections (or client threads) driving the load.
    pub clients: usize,
    /// Whether spans were recorded.
    pub trace: bool,
}

impl Header {
    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host_cpus\":{},\"cpu_features\":{},\"profile\":{},\"commit\":{},\"seed\":{},\"workload\":{},\"store_fs\":{},\"seconds\":{},\"clients\":{},\"trace\":{}}}",
            self.host_cpus,
            json_str(&self.cpu_features),
            json_str(self.profile),
            json_str(&self.commit),
            self.seed,
            json_str(&self.workload),
            json_str(&self.store_fs),
            self.seconds,
            self.clients,
            self.trace
        )
    }

    /// Why two runs may not be compared, or `None` when they may: the
    /// host's CPU count, its SIMD features and the build profile must
    /// all agree.
    pub fn incompatible(&self, other: &Header) -> Option<String> {
        let mut why = Vec::new();
        if self.host_cpus != other.host_cpus {
            why.push(format!(
                "host_cpus {} vs {}",
                self.host_cpus, other.host_cpus
            ));
        }
        if self.cpu_features != other.cpu_features {
            why.push(format!(
                "cpu_features {} vs {}",
                self.cpu_features, other.cpu_features
            ));
        }
        if self.profile != other.profile {
            why.push(format!("profile {} vs {}", self.profile, other.profile));
        }
        (!why.is_empty()).then(|| why.join(", "))
    }
}

/// The last output line: `correct`, `attempted`, `failed` and the
/// metrics as `{"name": {"value": v, "unit": u}}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&d.name),
                json_num(*v),
                json_str(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// The human-readable metric line printed before the result line:
/// `metric <name> <value> <unit> <better>`.
pub fn metric_line(d: &MetricDef, value: f64) -> String {
    format!(
        "metric {} {} {} {}",
        d.name,
        json_num(value),
        d.unit,
        d.better.as_str()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_slug_into_valid_metric_names() {
        assert_eq!(slug("CTW+LZ"), "ctw_lz");
        assert_eq!(slug("DNAPack-lite"), "dnapack_lite");
        assert_eq!(slug("XM-lite"), "xm_lite");
        assert_eq!(slug("  Gzip "), "gzip");
        assert_eq!(slug("a + b"), "a_b");
        let slugs = family_slugs();
        assert_eq!(slugs.len(), dnacomp_algos::all_algorithms().len());
        for s in &slugs {
            assert!(valid_name(&format!("algos.{s}.compress_s")), "{s}");
        }
        let mut dedup = slugs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), slugs.len(), "two families share a slug");
    }

    #[test]
    fn name_and_unit_validation() {
        assert!(valid_name("setup_s"));
        assert!(valid_name("server.router.write_p50_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ctw+lz"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("Mbase/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("bits per base"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_declared_metric_is_valid_and_unique() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(all.len() <= 16 + 128);
        assert!(per_layer().len() <= 128);
        for d in &all {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for d in end_to_end() {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = &end_to_end()[0];
        assert_eq!((setup.name.as_str(), setup.unit), ("setup_s", "s"));
        assert_eq!(setup.better, Better::Lower);
        let largest = end_to_end()
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn output_carries_unit_and_direction() {
        let d = def("fetch_mb_s", "Mbase/s", Better::Higher, Some(0.1));
        assert_eq!(metric_line(&d, 1.5), "metric fetch_mb_s 1.5 Mbase/s higher");
        let line = result_line(true, 10, 0, &[(d, 2.25)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"fetch_mb_s\":{\"value\":2.25,\"unit\":\"Mbase/s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this program prints, with the same units, directions and
    /// bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squash: String = text.split_whitespace().collect();
        let section = |key: &str| -> String {
            let start = squash.find(&format!("\"{key}\":[")).expect(key) + key.len() + 4;
            let end = start + squash[start..].find(']').expect("closing bracket");
            squash[start..end].to_owned()
        };
        let render = |defs: Vec<MetricDef>| -> String {
            defs.iter()
                .map(|d| match d.bound {
                    Some(b) => format!(
                        "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                        d.name,
                        d.unit,
                        d.better.as_str(),
                        json_num(b)
                    ),
                    None => format!(
                        "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                        d.name,
                        d.unit,
                        d.better.as_str()
                    ),
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        assert_eq!(section("end_to_end"), render(end_to_end()));
        assert_eq!(section("per_layer"), render(per_layer()));
    }

    #[test]
    fn headers_refuse_cross_host_comparison() {
        let a = Header {
            host_cpus: 2,
            cpu_features: "avx2+ssse3+sse2".into(),
            profile: "release",
            commit: "abc".into(),
            seed: 1,
            workload: "bulk-exchange".into(),
            store_fs: "ext4".into(),
            seconds: 20,
            clients: 2,
            trace: false,
        };
        // Seed, commit and workload may differ between compared runs.
        let b = Header {
            seed: 2,
            commit: "def".into(),
            ..a.clone()
        };
        assert_eq!(a.incompatible(&b), None);
        let c = Header {
            cpu_features: "scalar(forced)".into(),
            ..a.clone()
        };
        assert!(a.incompatible(&c).unwrap().contains("cpu_features"));
        let d = Header {
            host_cpus: 4,
            profile: "debug",
            ..a.clone()
        };
        let why = a.incompatible(&d).unwrap();
        assert!(why.contains("host_cpus") && why.contains("profile"));
        assert!(a.to_json().starts_with("{\"host_cpus\":2,"));
    }
}
