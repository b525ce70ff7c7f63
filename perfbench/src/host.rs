//! Host-speed probe. The benchmark's host is a few vCPUs of a shared
//! machine whose speed for the same single-threaded work drifts by up
//! to 2× in spells that last from seconds to minutes, longer than one
//! run. A fixed piece of work of the benchmark's own, which no change
//! to the program under test touches, is timed at regular moments
//! through a phase; the program's time over that phase is then scaled
//! to the host speed at which one probe takes [`REF_PROBE_S`]. Closed
//! loops of client threads take their probes in [`Pauses`].

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Probe time that defines the reference host speed: about what one
/// probe takes on an idle 2.1 GHz x86-64 vCPU.
pub const REF_PROBE_S: f64 = 0.010;

/// Probes are taken at most this often (and as soon as due).
const EVERY: Duration = Duration::from_millis(250);

/// Probe samples taken through one phase of a run.
pub struct HostProbe {
    last: Instant,
    samples: Vec<f64>,
    spent: f64,
}

impl HostProbe {
    /// A probe that takes its first sample now.
    pub fn new() -> HostProbe {
        let mut p = HostProbe {
            last: Instant::now(),
            samples: Vec::new(),
            spent: 0.0,
        };
        p.sample();
        p
    }

    /// Take a sample if one is due. Call between units of program work
    /// so that the samples spread evenly over the phase.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// Take the phase's closing sample.
    pub fn finish(&mut self) {
        self.sample();
    }

    /// Take a sample now.
    pub fn sample(&mut self) {
        let t = Instant::now();
        self.samples.push(probe());
        self.last = Instant::now();
        self.spent += (self.last - t).as_secs_f64();
    }

    /// Wall time spent probing so far, to take out of a time that
    /// spans probes.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Samples taken so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// `t` seconds of program work in the sampled phase, scaled to the
    /// reference host speed: `t × REF_PROBE_S / mean probe time`.
    pub fn at_ref_speed(&self, t: f64) -> f64 {
        t * REF_PROBE_S / crate::stats::mean(&self.samples)
    }
}

/// Quiet pauses for a closed loop of client threads: at every multiple
/// of a period from the phase's start, each client stops between its
/// operations; when all have stopped, one takes a probe while no request
/// is in flight, so that the probe does not compete with the program's
/// own threads, and then all resume.
pub struct Pauses {
    start: Instant,
    deadline: Instant,
    every: Duration,
    barrier: Barrier,
    probe: Mutex<HostProbe>,
    spent_before: f64,
}

impl Pauses {
    /// Take a first probe, then start a phase of `length` now with
    /// pauses for `clients` threads every `every`; [`Pauses::phase`]
    /// gives its start and deadline.
    pub fn start(clients: usize, length: Duration, every: Duration) -> Pauses {
        let probe = HostProbe::new();
        let start = Instant::now();
        Pauses {
            start,
            deadline: start + length,
            every,
            barrier: Barrier::new(clients),
            spent_before: probe.spent(),
            probe: Mutex::new(probe),
        }
    }

    /// The phase's start and deadline.
    pub fn phase(&self) -> (Instant, Instant) {
        (self.start, self.deadline)
    }

    /// Take, in order, every pause that is due; `taken` counts the
    /// caller's pauses so far. Every client calls this between
    /// operations and before it checks the deadline, so that each takes
    /// every pause and none waits alone.
    pub fn take_due(&self, taken: &mut u32) {
        loop {
            let at = self.start + self.every * (*taken + 1);
            if at >= self.deadline || Instant::now() < at {
                return;
            }
            if self.barrier.wait().is_leader() {
                self.probe.lock().expect("probe lock").sample();
            }
            self.barrier.wait();
            *taken += 1;
        }
    }

    /// The probe, closed by a last sample, and the wall time spent in
    /// the pauses' probes.
    pub fn finish(self) -> (HostProbe, f64) {
        let mut probe = self.probe.into_inner().expect("probe lock");
        let paused = probe.spent() - self.spent_before;
        probe.finish();
        (probe, paused)
    }
}

/// Time one probe, in seconds: unpredictable branches over a shift
/// register, then hashing, ordered-map updates, sorting and float
/// formatting from the standard library — a mix of the kinds of code the
/// codecs and the selector run, so that the host slows it as it slows
/// them.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..400_000 {
        let v = next();
        acc = match v & 7 {
            0 => acc.wrapping_add(v),
            1 => acc ^ (v >> 3),
            2 => acc.rotate_left(5),
            3 => acc.wrapping_mul(3),
            4 => acc.wrapping_sub(v >> 9),
            5 => acc | 1,
            6 => acc & !2,
            _ => acc.wrapping_add(1),
        };
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut ordered = std::collections::BTreeMap::<u64, u32>::new();
    let mut keys = Vec::with_capacity(20_000);
    let mut text = String::new();
    for i in 0..20_000u64 {
        let k = next();
        *counts.entry(k & 0x3FFF).or_insert(0) += i;
        *ordered.entry(k & 0xFFF).or_insert(0) += 1;
        keys.push(k);
        if i % 8 == 0 {
            text.clear();
            let _ = write!(text, "{:.3}", (k >> 11) as f64 / 7.0);
        }
    }
    keys.sort_unstable();
    let mut words: Vec<Vec<u8>> = keys
        .iter()
        .take(4_000)
        .map(|k| k.to_string().into_bytes())
        .collect();
    words.sort();
    std::hint::black_box((acc, counts.len(), ordered.len(), text.len(), words.len()));
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_probe() {
        let p = HostProbe {
            last: Instant::now(),
            samples: vec![2.0 * REF_PROBE_S, 2.0 * REF_PROBE_S],
            spent: 0.0,
        };
        // A host that runs the probe at half the reference speed did
        // 4 s of work that takes 2 s at the reference speed.
        assert!((p.at_ref_speed(4.0) - 2.0).abs() < 1e-12);
    }
}
