//! Helpers the workloads share: seeded inputs, scratch directories,
//! host facts for the run header, and the client-side fetch check.

use dnacomp_algos::{compressor_for, CompressedBlob};
use dnacomp_seq::gen::GenomeModel;
use dnacomp_seq::PackedSeq;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// SplitMix64 finaliser: the benchmark's only source of derived seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a hash.
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Generate `len` bases of the default genome model from `seed`.
pub fn genome(len: usize, seed: u64) -> PackedSeq {
    GenomeModel::default().generate(len, seed)
}

/// A distinct sequence derived from `base`: its first eight packed
/// bytes are XORed with a hash of `id`. The content key changes while
/// the compression work stays that of `base`.
pub fn variant(base: &PackedSeq, id: u64) -> PackedSeq {
    let mut words = base.as_words().to_vec();
    let salt = mix(id, 0x5EED).to_le_bytes();
    for (w, s) in words.iter_mut().zip(salt) {
        *w ^= s;
    }
    PackedSeq::from_words(words, base.len()).expect("same length as the base")
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch {
    path: PathBuf,
}

/// Parent of every scratch directory, relative to the checkout root.
pub const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// Where traced runs write their spans, relative to the checkout root.
pub const OUT_DIR: &str = ".perfbench_out";

impl Scratch {
    /// Create a fresh, empty directory named after `tag`.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A subdirectory path (not created).
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the shared parent only once the last run is done.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `dir` (from `/proc/mounts`).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(dir) else {
        return "unknown".to_owned();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point).then(|| (point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// Commit of the checkout from `.git` files, or "unknown" when the
/// checkout is not a git work tree.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(r) {
        return id.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Decode a fetched flat container through `dnacomp_algos` and compare
/// it base for base with what was uploaded. `Err` names the mismatch.
pub fn decode_and_verify(bytes: &[u8], expected: &PackedSeq) -> Result<(), String> {
    let blob = CompressedBlob::from_bytes(bytes).map_err(|e| format!("container: {e}"))?;
    let decoded = compressor_for(blob.algorithm)
        .decompress(&blob)
        .map_err(|e| format!("decode: {e}"))?;
    if &decoded != expected {
        return Err(format!(
            "decoded {} bases differ from the {} uploaded",
            decoded.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// One finished operation of a timed phase: start and end, seconds
/// since the phase began, and the bases it moved.
pub type Op = (f64, f64, u64);

/// The span of an operation that started at `t0`, ended now, and moved
/// `bases`, on the clock of a phase that began at `phase`.
pub fn op(phase: Instant, t0: Instant, bases: usize) -> Op {
    let at = |t: Instant| t.duration_since(phase).as_secs_f64();
    (at(t0), phase.elapsed().as_secs_f64(), bases as u64)
}

/// Rates over consecutive `window`-second windows of a timed phase
/// lasting `wall` seconds. Each operation's bases are spread over the
/// windows in proportion to the part of its span inside each, so a rate
/// is not quantised by which operations happened to finish in a window.
/// Only whole windows count.
pub fn window_rates(ops: &[Op], wall: f64, window: f64) -> Vec<f64> {
    let n = (wall / window).floor() as usize;
    let mut sums = vec![0.0f64; n];
    for &(t0, t1, bases) in ops {
        let len = t1 - t0;
        let first = (t0 / window) as usize;
        let last = ((t1 / window) as usize).min(n.saturating_sub(1));
        for (w, sum) in sums.iter_mut().enumerate().take(last + 1).skip(first) {
            let (ws, we) = (w as f64 * window, (w + 1) as f64 * window);
            let share = if len > 0.0 {
                (t1.min(we) - t0.max(ws)).max(0.0) / len
            } else {
                1.0
            };
            *sum += bases as f64 * share;
        }
    }
    sums.into_iter().map(|s| s / window).collect()
}

/// Whether a traced run records spans at `t` seconds into its timed
/// phase: in even windows yes, in odd ones no, so the two halves of the
/// phase interleave and see the same host.
pub fn traced_window(t: f64, window: f64) -> bool {
    ((t / window) as u64).is_multiple_of(2)
}

/// Tracing overhead of a traced run, from the combined rates of its
/// traced (even) and untraced (odd) windows: seconds per Mbase of each.
pub fn window_overhead(out: &mut crate::Outcome, ops: &[Op], wall: f64, window: f64) {
    let rates = window_rates(ops, wall, window);
    let half = |traced: bool| -> Vec<f64> {
        rates
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 0) == traced)
            .map(|(_, r)| *r)
            .collect()
    };
    let cost = |traced: bool| 1e6 / crate::stats::median(&half(traced));
    crate::cluster::trace_overhead(out, "s_per_mbase", cost(true), cost(false));
}

/// Median of [`window_rates`].
pub fn median_rate(ops: &[Op], wall: f64, window: f64) -> f64 {
    crate::stats::median(&window_rates(ops, wall, window))
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinct_and_keep_length() {
        let base = genome(1000, 3);
        let a = variant(&base, 1);
        let b = variant(&base, 2);
        assert_eq!(a.len(), base.len());
        assert_ne!(a, base);
        assert_ne!(a, b);
        assert_eq!(variant(&base, 1), a);
        // Only the first 32 bases change.
        assert_eq!(a.slice(32, 1000), base.slice(32, 1000));
    }

    #[test]
    fn window_rates_spread_operations_over_their_span() {
        // 2.5 s of phase in 1-s windows: two whole windows, the rest
        // left out. An instant op lands whole in its window; a 1-s op
        // straddling the boundary splits evenly; the op inside the
        // partial third window is dropped.
        let ops = [
            (0.2, 0.2, 10),
            (0.5, 1.5, 40),
            (1.2, 1.7, 10),
            (2.1, 2.4, 99),
        ];
        assert_eq!(window_rates(&ops, 2.5, 1.0), vec![30.0, 30.0]);
        assert_eq!(median_rate(&ops, 2.5, 1.0), 30.0);
        // An op over the phase end counts only its share inside.
        assert_eq!(window_rates(&[(0.5, 2.5, 20)], 2.0, 1.0), vec![5.0, 10.0]);
        assert!(window_rates(&ops, 0.5, 1.0).is_empty());
        assert!(traced_window(0.5, 1.0) && !traced_window(1.5, 1.0));
        assert!(traced_window(2.0, 1.0));
    }

    #[test]
    fn seeded_inputs_repeat() {
        assert_eq!(genome(500, 9), genome(500, 9));
        assert_ne!(genome(500, 9), genome(500, 10));
        assert!((0.0..1.0).contains(&unit(mix(1, 2))));
    }
}
