//! `bulk-exchange`: multi-megabase uploads and fetches against one
//! shard (service with the framed path on, LSM store, TCP front-end),
//! no router. Compression dominates: `algos`, `codec` and the block
//! pool do most of the work.

use crate::cluster::{check_ack, connect, replay, ReplayInput, ReplayTargets, Shard};
use crate::common::{
    decode_and_verify, filesystem_of, genome, mix, ms_since, op, peak_rss_mb, traced_window,
    variant, window_overhead, Op, Scratch,
};
use crate::host::Pauses;
use crate::stats::{highest_reportable, nearest_rank, reportable, samples_beyond, sorted};
use crate::trace::{Span, Tracer};
use crate::{Opts, Outcome, CLIENTS, SETUPS};
use dnacomp_cloud::context_grid;
use dnacomp_core::Context;
use dnacomp_seq::PackedSeq;
use dnacomp_server::net::STREAM_THRESHOLD_BASES;
use dnacomp_server::NetClient;
use dnacomp_server::Priority;
use dnacomp_store::{ContentKey, StoreConfig};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upload sizes, cycled: two below and two above the streaming
/// threshold (2^20 bases), so both the one-shot `Compress` frame and
/// the streamed `CompressBegin/Chunk/End` path run.
const SIZES: [usize; 4] = [640_000, 896_000, 1_216_000, 1_536_000];

/// Block size of the framed compress path, bases.
const BLOCK: usize = 1 << 18;

/// Uploads whose stored size defines `bits_per_base`: the first ids,
/// which every run uploads, so the figure repeats exactly per seed.
const BPB_IDS: u64 = 8;

/// Window, seconds, of the printed per-window rates and of the traced
/// runs' alternation of tracing.
const WINDOW_S: f64 = 2.5;

/// Period of the quiet pauses in which the host is probed. Each pause
/// waits for the other client's upload or fetch in flight (~0.1–0.3 s),
/// so pauses are rare.
const PAUSE_EVERY: Duration = Duration::from_millis(2500);

/// Variant id of the warm-up upload (never reused by the timed phase).
const WARM_ID: u64 = u64::MAX;

struct Env {
    bases: Vec<PackedSeq>,
    shard: Shard,
    scratch: Scratch,
    gen_s: f64,
    warm: (ContentKey, PackedSeq),
}

fn upload_seq(bases: &[PackedSeq], id: u64) -> PackedSeq {
    variant(&bases[(id % bases.len() as u64) as usize], id)
}

fn context(id: u64, len: usize) -> Context {
    let grid = context_grid();
    Context::new(&grid[(id % grid.len() as u64) as usize], len as u64)
}

fn setup(seed: u64) -> Result<Env, String> {
    let t = Instant::now();
    let bases: Vec<PackedSeq> = SIZES
        .iter()
        .enumerate()
        .map(|(i, &n)| genome(n, mix(seed, i as u64)))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    let scratch = Scratch::new("bulk").map_err(|e| format!("scratch dir: {e}"))?;
    let shard = Shard::start(
        &scratch,
        "shard",
        CLIENTS,
        Some(BLOCK),
        StoreConfig::default(),
    )?;
    // Warm-up: one upload and fetch through every layer.
    let seq = upload_seq(&bases, WARM_ID);
    let mut client = connect(shard.addr())?;
    let resp = client
        .compress("warm", &seq, Priority::Normal, context(0, seq.len()))
        .map_err(|e| format!("warm-up upload: {e}"))?;
    let key = check_ack(&resp, &seq)?;
    let bytes = client.get(key).map_err(|e| format!("warm-up fetch: {e}"))?;
    decode_and_verify(&bytes, &seq)?;
    client.bye().map_err(|e| format!("warm-up bye: {e}"))?;
    Ok(Env {
        bases,
        shard,
        scratch,
        gen_s,
        warm: (ContentKey(key), seq),
    })
}

/// What one client thread saw in the timed phase.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    ingested_bases: u64,
    fetched_bases: u64,
    ingest_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    /// Each upload's span and bases.
    ingest_at: Vec<Op>,
    /// Each fetch's span and bases.
    fetch_at: Vec<Op>,
    streamed: u64,
    failures: Vec<(bool, String)>,
    spans: Vec<Span>,
}

fn client_loop(
    env: &Env,
    mut client: NetClient<TcpStream>,
    (next, pauses): (&AtomicU64, &Pauses),
    (start, deadline): (Instant, Instant),
    tracer: &Tracer,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut prev = (env.warm.0 .0, env.warm.1.clone());
    let mut paused = 0;
    loop {
        pauses.take_due(&mut paused);
        if Instant::now() >= deadline {
            break;
        }
        tracer.set_enabled(traced_window(start.elapsed().as_secs_f64(), WINDOW_S));
        let id = next.fetch_add(1, Ordering::Relaxed);
        let seq = upload_seq(&env.bases, id);
        let ctx = context(id, seq.len());
        log.attempted += 1;
        let t = Instant::now();
        let resp = tracer.span("client.ingest", id, || {
            tracer.span("server.net.compress", id, || {
                client.compress(&format!("bulk-{id}"), &seq, Priority::Normal, ctx)
            })
        });
        let ms = ms_since(t);
        match resp
            .map_err(|e| (false, e.to_string()))
            .and_then(|r| check_ack(&r, &seq).map_err(|e| (true, e)))
        {
            Ok(key) => {
                log.ingest_ms.push(ms);
                log.ingest_at.push(op(start, t, seq.len()));
                log.ingested_bases += seq.len() as u64;
                log.streamed += u64::from(seq.len() > STREAM_THRESHOLD_BASES);
                // Fetch the previous acknowledged upload and check it.
                log.attempted += 1;
                let t = Instant::now();
                let got = tracer.span("client.fetch", id, || {
                    let bytes = tracer
                        .span("server.net.get", id, || client.get(prev.0))
                        .map_err(|e| (false, e.to_string()))?;
                    tracer
                        .span("algos.decompress", id, || {
                            decode_and_verify(&bytes, &prev.1)
                        })
                        .map_err(|e| (true, e))
                });
                match got {
                    Ok(()) => {
                        log.fetch_ms.push(ms_since(t));
                        log.fetch_at.push(op(start, t, prev.1.len()));
                        log.fetched_bases += prev.1.len() as u64;
                    }
                    Err(f) => log.failures.push(f),
                }
                prev = (key, seq);
            }
            Err(f) => log.failures.push(f),
        }
    }
    client.bye().map_err(|e| format!("bye: {e}"))?;
    log.spans = tracer.take();
    Ok(log)
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // A set-up lasts a fraction of a second, so the host's second-scale
    // speed swings move each one. Its timings are therefore taken at
    // both ends of the run: the first set-ups before the timed phase
    // (the last of them is the one measured), the rest after the shard
    // has stopped.
    let timed = |setup_s: &mut Vec<f64>| -> Result<Env, String> {
        let t = Instant::now();
        let e = setup(opts.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(e)
    };
    let mut setup_s = Vec::new();
    let mut env = timed(&mut setup_s)?;
    while setup_s.len() < SETUPS.div_ceil(2) {
        env.shard.stop()?;
        env = timed(&mut setup_s)?;
    }
    out.store_fs = filesystem_of(env.scratch.path());
    let store_before = env.shard.store.snapshot();

    // Timed phase: a closed loop over CLIENTS connections, with quiet
    // pauses for the host probe. The connections are made first, so a
    // failed one cannot leave the other client waiting at a pause.
    let clients = (0..CLIENTS)
        .map(|_| connect(env.shard.addr()))
        .collect::<Result<Vec<_>, String>>()?;
    let next = AtomicU64::new(0);
    let pauses = Pauses::start(CLIENTS, Duration::from_secs(opts.seconds), PAUSE_EVERY);
    let (start, deadline) = pauses.phase();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| {
                let (env, next, pauses) = (&env, &next, &pauses);
                s.spawn(move || {
                    client_loop(
                        env,
                        client,
                        (next, pauses),
                        (start, deadline),
                        &Tracer::new(opts.trace, start),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let (host, paused_s) = pauses.finish();
    let mut all = ClientLog::default();
    let mut spans = Vec::new();
    for log in logs {
        let log = log?;
        all.attempted += log.attempted;
        all.ingested_bases += log.ingested_bases;
        all.fetched_bases += log.fetched_bases;
        all.ingest_ms.extend(log.ingest_ms);
        all.fetch_ms.extend(log.fetch_ms);
        all.ingest_at.extend(log.ingest_at);
        all.fetch_at.extend(log.fetch_at);
        all.streamed += log.streamed;
        all.failures.extend(log.failures);
        spans.push(log.spans);
    }
    out.attempted = all.attempted;
    for (name, at) in [("ingest", &all.ingest_at), ("fetch", &all.fetch_at)] {
        let rates: Vec<String> = crate::common::window_rates(at, wall, WINDOW_S)
            .iter()
            .map(|r| format!("{:.2}", r / 1e6))
            .collect();
        out.info
            .push(format!("windows {name}_mb_s {}", rates.join(" ")));
    }
    for (mismatch, msg) in all.failures {
        out.fail(mismatch.then_some(msg));
    }

    // bits_per_base over the first uploads: fetched again, checked, and
    // sized as stored.
    let uploads = next.load(Ordering::Relaxed);
    let mut client = connect(env.shard.addr())?;
    let (mut stored, mut bases) = (0u64, 0u64);
    for id in 0..BPB_IDS.min(uploads) {
        let seq = upload_seq(&env.bases, id);
        let bytes = client
            .get(ContentKey::of_sequence(&seq).0)
            .map_err(|e| format!("fetching upload {id}: {e}"))?;
        if let Err(m) = decode_and_verify(&bytes, &seq) {
            out.fail(Some(m));
        }
        stored += bytes.len() as u64;
        bases += seq.len() as u64;
    }
    client.bye().map_err(|e| format!("bye: {e}"))?;

    let snap = env.shard.service.metrics().snapshot();
    let pool = env.shard.service.block_pool_stats();
    let store = env.shard.store.snapshot();
    if snap.rejected_full > 0 {
        out.validity
            .push(format!("rejected_full {}", snap.rejected_full));
    }

    // Rates over the phase's wall time less its pauses, scaled by the
    // host probe.
    let busy_s = host.at_ref_speed(wall - paused_s);
    out.e2e
        .insert("ingest_mb_s", all.ingested_bases as f64 / busy_s / 1e6);
    out.e2e
        .insert("fetch_mb_s", all.fetched_bases as f64 / busy_s / 1e6);
    out.e2e
        .insert("bits_per_base", 8.0 * stored as f64 / bases.max(1) as f64);

    let info = &mut out.info;
    info.push(format!(
        "timed wall_s {wall:?} uploads {} fetches {} streamed_uploads {}",
        all.ingest_ms.len(),
        all.fetch_ms.len(),
        all.streamed
    ));
    info.push(format!(
        "host probes {} mean_s {:?} reference_s {:?} paused_s {paused_s:?}",
        host.samples().len(),
        crate::stats::mean(host.samples()),
        crate::host::REF_PROBE_S
    ));
    let ingest = sorted(all.ingest_ms);
    let fetch = sorted(all.fetch_ms);
    for (name, xs) in [("ingest", &ingest), ("fetch", &fetch)] {
        for p in [50.0, 90.0] {
            let v = nearest_rank(xs, p).unwrap_or(0.0);
            info.push(format!(
                "latency client.{name}_p{p}_ms {v:?} samples {} beyond {}",
                xs.len(),
                samples_beyond(xs.len(), p)
            ));
            out.layers.set(&format!("client.{name}_p{p}_ms"), v);
        }
        let top = highest_reportable(xs.len(), &[50.0, 90.0, 99.0]);
        info.push(format!(
            "latency client.{name} highest_reportable_percentile {top:?}"
        ));
        if !reportable(xs.len(), 90.0) {
            out.validity.push(format!(
                "client.{name}_p90_ms has under 10 samples beyond it"
            ));
        }
    }
    let layers = &mut out.layers;
    layers.set("seq.gen_s", env.gen_s);
    layers.ratio(
        info,
        "algos.pool_inline_ratio",
        pool.tasks_run_inline as f64,
        (pool.tasks_run_inline + pool.tasks_run_by_pool) as f64,
    );
    layers.ratio(
        info,
        "algos.blocks_per_job",
        snap.blocks_compressed as f64,
        snap.block_parallel_jobs as f64,
    );
    layers.ratio(
        info,
        "server.service.decision_cache_hit_rate",
        snap.cache_hits as f64,
        (snap.cache_hits + snap.cache_misses) as f64,
    );
    layers.set(
        "server.service.peak_queue_depth",
        snap.peak_queue_depth as f64,
    );
    layers.set("server.service.rejected_full", snap.rejected_full as f64);
    // Client operations on this shard: warm-up upload and fetch, the
    // timed phase, and the bits_per_base fetches.
    let ops = 2 + all.attempted + BPB_IDS.min(uploads);
    layers.ratio(
        info,
        "server.net.frames_per_op",
        (snap.frames_rx + snap.frames_tx) as f64,
        ops as f64,
    );
    layers.ratio(
        info,
        "server.net.bytes_per_base",
        (snap.net_bytes_rx + snap.net_bytes_tx) as f64,
        (all.ingested_bases + all.fetched_bases + bases + 2 * env.warm.1.len() as u64) as f64,
    );
    crate::cluster::store_layers(
        layers,
        info,
        (&[store_before], &[store]),
        all.ingested_bases as f64,
    );

    if opts.trace {
        let spans: Vec<Span> = crate::trace::merge(spans);
        crate::cluster::span_layers(&mut out, &spans)?;
        let ops: Vec<Op> = all.ingest_at.iter().chain(&all.fetch_at).copied().collect();
        window_overhead(&mut out, &ops, wall, WINDOW_S);
        let inputs: Vec<ReplayInput> = (0..8u64)
            .map(|k| {
                let seq = upload_seq(&env.bases, 7_000_000 + k);
                ReplayInput {
                    ctx: context(k, seq.len()),
                    seq,
                }
            })
            .collect();
        let targets = ReplayTargets {
            shard: &env.shard,
            router: None,
            block_size: Some(BLOCK),
            store_config: StoreConfig::default(),
        };
        replay(
            &inputs,
            &targets,
            &env.scratch,
            &mut out.layers,
            &mut out.info,
        )?;
    }
    env.shard.stop()?;
    while setup_s.len() < SETUPS {
        timed(&mut setup_s)?.shard.stop()?;
    }
    out.e2e.insert("setup_s", crate::stats::median(&setup_s));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.info.push(format!("setup_s_each {setup_s:?}"));
    Ok(out)
}
