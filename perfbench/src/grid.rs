//! `selector-grid`: the selector's rebuild cycle, in process, with no
//! server, store or network. The only workload that runs every
//! compressor family (the suffix-array ones included), `core`'s grid,
//! `ml` and `cloud`.

use crate::common::{mix, peak_rss_mb};
use crate::host::HostProbe;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Opts, Outcome, SETUPS};
use dnacomp_algos::{all_algorithms, CompressedBlob, Compressor};
use dnacomp_cloud::{context_grid, CloudSim, MachineSpec, PerfModel};
use dnacomp_codec::suffix::SuffixArray;
use dnacomp_core::{
    build_rows, label_rows, measure_corpus, Context, ContextAwareFramework, WeightVector,
};
use dnacomp_ml::TreeMethod;
use dnacomp_seq::corpus::{FileKind, FileSpec};
use dnacomp_seq::PackedSeq;
use std::time::{Duration, Instant};

/// Corpus files; sizes are log-spaced from 1 kB to 256 kB, straddling
/// the paper's 50 kB split.
const FILES: usize = 12;

/// Every `HELD_OUT`-th file (offset 1) is held out from training: 25 %.
const HELD_OUT: usize = 4;

/// Held-out exchanges run under every `CONTEXT_STRIDE`-th context.
const CONTEXT_STRIDE: usize = 5;

/// A set-up is timed after every `SETUP_EVERY`-th cycle of the timed
/// phase, besides one before it and at least one after it.
const SETUP_EVERY: u64 = 2;

/// The corpus: fixed sizes and model kinds, content from the seed.
fn corpus(seed: u64) -> Vec<FileSpec> {
    let kinds = [
        FileKind::Bacterial,
        FileKind::Repetitive,
        FileKind::LowRepeat,
    ];
    (0..FILES)
        .map(|i| FileSpec {
            name: format!("grid_{i:02}"),
            len: (1024.0 * 256f64.powf(i as f64 / (FILES - 1) as f64)).round() as usize,
            kind: kinds[i % kinds.len()],
            seed: mix(seed, i as u64),
        })
        .collect()
}

fn held_out(i: usize) -> bool {
    i % HELD_OUT == 1
}

/// Deterministic results of one cycle; they must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
struct CycleResult {
    accuracy: f64,
    chaid_accuracy: f64,
    regret: f64,
    sim_total_ms: f64,
    bits_per_base: f64,
    rules: usize,
    round_trips: u64,
}

/// One rebuild cycle: measure → rows → label → train CART and CHAID →
/// evaluate → held-out exchanges with the CART choice. Alongside the
/// results it returns the cycle's work time: the summed wall time of
/// its units, which are one `measure_corpus` call per file and family
/// (their measurements, in order, are those of one call over the whole
/// grid), then rows + labels, training, evaluation and the exchanges.
/// The host is probed between units, outside their times.
fn cycle(
    files: &[FileSpec],
    held: &[(FileSpec, PackedSeq)],
    algos: &[Box<dyn Compressor>],
    tracer: &Tracer,
    req: u64,
    host: &mut HostProbe,
) -> Result<(CycleResult, f64), String> {
    let mut work_s = 0.0;
    let mut timed = |t: Instant| work_s += t.elapsed().as_secs_f64();
    let r = tracer.span("grid.cycle", req, || {
        let ms = tracer.span("core.measure", req, || {
            let mut all = Vec::new();
            for file in files {
                for alg in algos.chunks(1) {
                    let t = Instant::now();
                    let m = measure_corpus(std::slice::from_ref(file), alg)
                        .map_err(|e| format!("measure_corpus {}: {e}", file.name))?;
                    all.extend(m);
                    timed(t);
                    host.tick();
                }
            }
            Ok::<_, String>(all)
        })?;
        let grid = context_grid();
        let t = Instant::now();
        let labeled = tracer.span("core.rows", req, || {
            let rows = build_rows(&ms, &grid, &PerfModel::default(), &MachineSpec::azure_vm());
            (label_rows(&rows, &WeightVector::time_only()), rows)
        });
        timed(t);
        let (labeled, rows) = labeled;
        let is_held = |name: &str| held.iter().any(|(f, _)| f.name == name);
        let (test, train): (Vec<_>, Vec<_>) = labeled.into_iter().partition(|r| is_held(&r.file));
        let t = Instant::now();
        let cart = tracer.span("ml.train_cart", req, || {
            ContextAwareFramework::train(&train, TreeMethod::Cart)
        });
        let chaid = tracer.span("ml.train_chaid", req, || {
            ContextAwareFramework::train(&train, TreeMethod::Chaid)
        });
        timed(t);
        let t = Instant::now();
        let (accuracy, chaid_accuracy) = tracer.span("ml.evaluate", req, || {
            (cart.evaluate(&test), chaid.evaluate(&test))
        });
        timed(t);
        // Held-out exchanges on the simulator with the CART choice; the
        // oracle is each row's cheapest family on the same sim clock.
        let mut sim = CloudSim::default();
        let (mut chosen_ms, mut oracle_ms, mut bytes, mut bases) = (0.0, 0.0, 0u64, 0u64);
        let t = Instant::now();
        tracer.span("cloud.exchange", req, || -> Result<(), String> {
            for (spec, seq) in held {
                for client in grid.iter().step_by(CONTEXT_STRIDE) {
                    let ctx = Context::new(client, seq.len() as u64);
                    let (_, report) = cart
                        .exchange(&mut sim, &ctx, &spec.name, seq)
                        .map_err(|e| format!("exchange {}: {e}", spec.name))?;
                    chosen_ms += report.total_ms();
                    bytes += report.compressed_bytes as u64;
                    bases += report.original_len as u64;
                    oracle_ms += rows
                        .iter()
                        .filter(|r| {
                            r.file == spec.name
                                && r.ram_mb == client.ram_mb
                                && r.cpu_mhz == client.cpu_mhz
                                && r.bandwidth_mbps == client.bandwidth.0
                        })
                        .map(|r| r.total_ms())
                        .fold(f64::INFINITY, f64::min);
                }
            }
            Ok(())
        })?;
        timed(t);
        Ok::<_, String>(CycleResult {
            accuracy,
            chaid_accuracy,
            regret: chosen_ms / oracle_ms,
            sim_total_ms: chosen_ms,
            bits_per_base: 8.0 * bytes as f64 / bases.max(1) as f64,
            rules: cart.rules().len(),
            round_trips: ms.len() as u64,
        })
    })?;
    Ok((r, work_s))
}

struct Env {
    files: Vec<FileSpec>,
    seqs: Vec<PackedSeq>,
    held: Vec<(FileSpec, PackedSeq)>,
    algos: Vec<Box<dyn Compressor>>,
    /// Every file compressed by every family, `blobs[file][family]`:
    /// what the fetch side decodes.
    blobs: Vec<Vec<CompressedBlob>>,
    gen_s: f64,
}

/// Set-up: generate the corpus and compress every file with every
/// family, which also warms every compressor's code and tables. The
/// host is probed between compressions.
fn setup(seed: u64, host: &mut HostProbe) -> Result<Env, String> {
    let files = corpus(seed);
    let t = Instant::now();
    let seqs: Vec<PackedSeq> = files.iter().map(FileSpec::generate).collect();
    let gen_s = t.elapsed().as_secs_f64();
    let held: Vec<(FileSpec, PackedSeq)> = files
        .iter()
        .zip(&seqs)
        .enumerate()
        .filter(|(i, _)| held_out(*i))
        .map(|(_, (f, s))| (f.clone(), s.clone()))
        .collect();
    let algos = all_algorithms();
    let blobs = seqs
        .iter()
        .map(|seq| {
            algos
                .iter()
                .map(|a| {
                    let blob = a
                        .compress(seq)
                        .map_err(|e| format!("{} compress: {e}", a.name()));
                    host.tick();
                    blob
                })
                .collect()
        })
        .collect::<Result<_, String>>()?;
    Ok(Env {
        files,
        seqs,
        held,
        algos,
        blobs,
        gen_s,
    })
}

/// The fetch side of the grid: decode every stored container and
/// compare it base for base with its file. Returns the mismatches and
/// the summed wall time of the decodes; the host is probed between
/// them.
fn decode_all(env: &Env, host: &mut HostProbe) -> (Vec<String>, f64) {
    let mut bad = Vec::new();
    let mut work_s = 0.0;
    for ((spec, seq), blobs) in env.files.iter().zip(&env.seqs).zip(&env.blobs) {
        for (alg, blob) in env.algos.iter().zip(blobs) {
            let t = Instant::now();
            let back = alg.decompress(blob);
            work_s += t.elapsed().as_secs_f64();
            host.tick();
            match back {
                Ok(back) if back == *seq => {}
                Ok(_) => bad.push(format!("{} decodes {} differently", alg.name(), spec.name)),
                Err(e) => bad.push(format!("{} decode of {}: {e}", alg.name(), spec.name)),
            }
        }
    }
    (bad, work_s)
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome {
        store_fs: "none".to_owned(),
        ..Outcome::default()
    };
    // Set-up is one single-threaded CPU-bound stretch of a few seconds.
    // Set-ups are spread over the whole run: one before the timed
    // phase, one after every `SETUP_EVERY` cycles, and the rest after
    // it. Each is timed without its probes and scaled by them.
    let timed = |out: &mut Vec<f64>| -> Result<Env, String> {
        let mut host = HostProbe::new();
        let t = Instant::now();
        let e = setup(opts.seed, &mut host)?;
        let work_s = t.elapsed().as_secs_f64() - host.spent();
        host.finish();
        out.push(host.at_ref_speed(work_s));
        Ok(e)
    };
    let mut setup_s = Vec::new();
    let env = timed(&mut setup_s)?;
    let cells = env.files.len() as u64 * env.algos.len() as u64;
    let bases_per_cycle: u64 =
        env.files.iter().map(|f| f.len as u64).sum::<u64>() * env.algos.len() as u64;

    // Timed phase: rebuild cycles, each followed by a decode of every
    // stored container, with the host probed between their units. The
    // rates are over the summed work time of all cycles (resp. decode
    // passes), scaled by the probes of the whole phase. In a traced run
    // every other cycle is traced, so the traced and untraced cycle
    // times give the tracing overhead.
    let start = Instant::now();
    let deadline = start + Duration::from_secs(opts.seconds);
    let tracer = Tracer::new(opts.trace, start);
    let mut host = HostProbe::new();
    let mut first: Option<CycleResult> = None;
    let mut cycles = 0u64;
    let (mut cycle_s, mut decode_s) = (Vec::new(), Vec::new());
    while Instant::now() < deadline {
        cycles += 1;
        tracer.set_enabled(cycles % 2 == 1);
        out.attempted += cells;
        match cycle(
            &env.files, &env.held, &env.algos, &tracer, cycles, &mut host,
        ) {
            // Every cycle must repeat the first one's results exactly.
            Ok((r, work_s)) => {
                cycle_s.push(work_s);
                match &first {
                    None => first = Some(r),
                    Some(f) if *f == r => {}
                    Some(f) => out.fail(Some(format!(
                        "cycle {cycles} gave {r:?}, cycle 1 gave {f:?}"
                    ))),
                }
            }
            Err(e) => out.fail(Some(e)),
        }
        out.attempted += cells;
        let (bad, work_s) = tracer.span("algos.decode_all", cycles, || decode_all(&env, &mut host));
        for m in bad {
            out.fail(Some(m));
        }
        decode_s.push(work_s);
        if cycles.is_multiple_of(SETUP_EVERY) && Instant::now() < deadline {
            timed(&mut setup_s)?;
        }
    }
    host.finish();
    let wall = start.elapsed().as_secs_f64();
    let r = first.ok_or("no cycle completed")?;
    for _ in 0..SETUPS.saturating_sub(setup_s.len()).max(1) {
        timed(&mut setup_s)?;
    }

    out.e2e.insert("setup_s", median(&setup_s));
    // Ingest is the rebuild cycle (each cell compresses, decodes and
    // checks its file); fetch is the decode of every stored container.
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    let rate = |work: &[f64]| {
        bases_per_cycle as f64 * work.len() as f64 / host.at_ref_speed(sum(work)) / 1e6
    };
    out.e2e.insert("ingest_mb_s", rate(&cycle_s));
    out.e2e.insert("fetch_mb_s", rate(&decode_s));
    out.e2e.insert("bits_per_base", r.bits_per_base);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.info.push(format!("setup_s_each {setup_s:?}"));
    out.info.push(format!(
        "host probes {} mean_s {:?} reference_s {:?}",
        host.samples().len(),
        crate::stats::mean(host.samples()),
        crate::host::REF_PROBE_S
    ));
    out.info.push(format!(
        "timed wall_s {wall:?} cycles {cycles} cycle_s {cycle_s:?} decode_s {decode_s:?} bases_per_cycle {bases_per_cycle} families {}",
        env.algos.len()
    ));
    out.info.push(format!(
        "deterministic selector_accuracy {:?} chaid_accuracy {:?} sim_regret {:?} sim_total_ms {:?} bits_per_base {:?} cart_rules {}",
        r.accuracy, r.chaid_accuracy, r.regret, r.sim_total_ms, r.bits_per_base, r.rules
    ));

    let layers = &mut out.layers;
    layers.set("seq.gen_s", env.gen_s);
    layers.set("ml.cart_rules", r.rules as f64);
    layers.set("ml.selector_accuracy", r.accuracy);
    layers.set("cloud.sim_total_ms", r.sim_total_ms);
    layers.set("cloud.sim_regret", r.regret);
    if opts.trace {
        let spans = tracer.take();
        let (totals, _) = crate::trace::aggregate(&spans);
        let per_cycle = |name: &str| {
            totals
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, t)| {
                    t.total_ns as f64 / 1e9 / t.count.max(1) as f64
                })
        };
        for (metric, span) in [
            ("core.measure_s", "core.measure"),
            ("core.rows_s", "core.rows"),
            ("ml.train_cart_s", "ml.train_cart"),
            ("ml.train_chaid_s", "ml.train_chaid"),
            ("ml.evaluate_s", "ml.evaluate"),
            ("cloud.exchange_s", "cloud.exchange"),
        ] {
            let v = per_cycle(span);
            out.layers.set(metric, v);
        }
        crate::cluster::span_layers(&mut out, &spans)?;
        // Odd cycles were traced, even ones not.
        let pick = |xs: &[f64], odd: bool| -> Vec<f64> {
            xs.iter()
                .enumerate()
                .filter(|(i, _)| (i % 2 == 0) == odd)
                .map(|(_, x)| *x)
                .collect()
        };
        let loop_s: Vec<f64> = cycle_s.iter().zip(&decode_s).map(|(c, d)| c + d).collect();
        crate::cluster::trace_overhead(
            &mut out,
            "cycle_s",
            median(&pick(&loop_s, true)),
            median(&pick(&loop_s, false)),
        );
        replay(&env, &mut out)?;
    }
    Ok(out)
}

/// Per-family replay of the grid's cells, and suffix-array builds over
/// the corpus.
fn replay(env: &Env, out: &mut Outcome) -> Result<(), String> {
    let mut compress_ms = Vec::new();
    let mut decompress_ms = Vec::new();
    for alg in &env.algos {
        let (mut c, mut d) = (0.0, 0.0);
        for seq in &env.seqs {
            let t = Instant::now();
            let blob = alg
                .compress(seq)
                .map_err(|e| format!("{} compress: {e}", alg.name()))?;
            let ct = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let back = alg
                .decompress(&blob)
                .map_err(|e| format!("{} decompress: {e}", alg.name()))?;
            let dt = t.elapsed().as_secs_f64();
            if &back != seq {
                out.fail(Some(format!("{} replay round trip differs", alg.name())));
            }
            c += ct;
            d += dt;
            compress_ms.push(ct * 1e3);
            decompress_ms.push(dt * 1e3);
        }
        let slug = crate::report::slug(alg.name());
        out.layers.set(&format!("algos.{slug}.compress_s"), c);
        out.layers.set(&format!("algos.{slug}.decompress_s"), d);
    }
    let (c50, c99) = crate::cluster::p50_p99(&compress_ms);
    let (d50, d99) = crate::cluster::p50_p99(&decompress_ms);
    out.layers.set("algos.compress_p50_ms", c50);
    out.layers.set("algos.compress_p99_ms", c99);
    out.layers.set("algos.decompress_p50_ms", d50);
    out.layers.set("algos.decompress_p99_ms", d99);
    let t = Instant::now();
    for seq in &env.seqs {
        std::hint::black_box(SuffixArray::build(&seq.unpack()));
    }
    out.layers
        .set("codec.suffix_array_s", t.elapsed().as_secs_f64());
    out.info.push(format!("replay cells {}", compress_ms.len()));
    Ok(())
}
