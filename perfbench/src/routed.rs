//! `small-routed`: many small requests through a replicating router
//! (R=3, W=2) in front of three one-worker shards. Per-request
//! overhead dominates: router fan-out and quorum wait, framing, queue
//! hand-off, the decision cache, WAL group commit, blooms and the block
//! cache.

use crate::cluster::{
    check_ack, connect, p50_p99, replay, store_layers, ReplayInput, ReplayTargets, Shard,
};
use crate::common::{
    decode_and_verify, filesystem_of, genome, median_rate, mix, ms_since, op, peak_rss_mb,
    traced_window, unit, variant, window_overhead, Op, Scratch,
};
use crate::trace::{merge, Span, Tracer};
use crate::{Opts, Outcome, CLIENTS, SETUPS};
use dnacomp_cloud::context_grid;
use dnacomp_core::Context;
use dnacomp_seq::PackedSeq;
use dnacomp_server::{
    MetricsSnapshot, Priority, Ring, RouterConfig, RouterServer, ShardSpec, DEFAULT_RING_SEED,
    DEFAULT_VNODES,
};
use dnacomp_store::{ContentKey, StoreConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Preloaded keys; fetches draw from these.
const KEYS: usize = 512;

/// Shards behind the router.
const SHARDS: usize = 3;

/// One write for every `MIX` operations; the rest are fetches.
const MIX: u64 = 4;

/// Throughput window, seconds: each holds hundreds of operations, and
/// the reported throughput is the median window's, so a few seconds of
/// host interference move it little.
const WINDOW_S: f64 = 1.0;

/// Every `DEDUP_EVERY`-th write re-sends stored content.
const DEDUP_EVERY: u64 = 8;

/// Sequence length of preloaded key `i`: log-uniform over 1–16 Kbase on
/// a fixed low-discrepancy schedule, so every seed has the same sizes.
fn key_len(i: usize) -> usize {
    let frac = (i as f64 * 0.618_033_988_749_895).fract();
    (1024.0 * 16f64.powf(frac)) as usize
}

/// Store settings: small segments so preloaded records land in sorted
/// runs (blooms, block cache), and a block cache smaller than the
/// keyspace so skewed fetches both hit and miss.
fn store_config() -> StoreConfig {
    StoreConfig {
        segment_target_bytes: 64 << 10,
        cache_bytes: 256 << 10,
        sync: false,
        ..StoreConfig::default()
    }
}

fn service_snapshots(env: &Env) -> Vec<MetricsSnapshot> {
    env.shards
        .iter()
        .map(|s| s.service.metrics().snapshot())
        .collect()
}

fn context(i: u64, len: usize) -> Context {
    let grid = context_grid();
    Context::new(&grid[(i % grid.len() as u64) as usize], len as u64)
}

struct Env {
    keys: Vec<(ContentKey, PackedSeq)>,
    shards: Vec<Shard>,
    router: RouterServer,
    scratch: Scratch,
    gen_s: f64,
}

impl Env {
    fn stop(self) -> Result<dnacomp_server::RouterMetricsSnapshot, String> {
        let snap = self.router.shutdown();
        for s in self.shards {
            s.stop()?;
        }
        Ok(snap)
    }
}

fn setup(seed: u64) -> Result<Env, String> {
    let t = Instant::now();
    let seqs: Vec<PackedSeq> = (0..KEYS)
        .map(|i| genome(key_len(i), mix(seed, i as u64)))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    let scratch = Scratch::new("routed").map_err(|e| format!("scratch dir: {e}"))?;
    let shards = (0..SHARDS)
        .map(|i| Shard::start(&scratch, &format!("shard{i}"), 1, None, store_config()))
        .collect::<Result<Vec<_>, _>>()?;
    let specs = shards
        .iter()
        .enumerate()
        .map(|(i, s)| ShardSpec {
            id: i as u32 + 1,
            addr: s.addr().to_string(),
        })
        .collect();
    let ring = Ring::new(specs, DEFAULT_VNODES, DEFAULT_RING_SEED)?;
    let router = RouterServer::start("127.0.0.1:0", ring, RouterConfig::default())
        .map_err(|e| format!("binding router: {e}"))?;
    let addr = router.local_addr();
    // Preload the keyspace through the router, CLIENTS connections wide.
    let keys: Vec<Result<ContentKey, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let seqs = &seqs;
                s.spawn(move || -> Result<Vec<(usize, ContentKey)>, String> {
                    let mut client = connect(addr)?;
                    let mut got = Vec::new();
                    for i in (c..KEYS).step_by(CLIENTS) {
                        let seq = &seqs[i];
                        let resp = client
                            .compress(
                                &format!("key-{i}"),
                                seq,
                                Priority::Normal,
                                context(i as u64, seq.len()),
                            )
                            .map_err(|e| format!("preload {i}: {e}"))?;
                        got.push((i, ContentKey(check_ack(&resp, seq)?)));
                    }
                    client.bye().map_err(|e| format!("preload bye: {e}"))?;
                    Ok(got)
                })
            })
            .collect();
        let mut keys = vec![Err("not preloaded".to_owned()); KEYS];
        for h in handles {
            match h
                .join()
                .unwrap_or_else(|_| Err("preload thread panicked".to_owned()))
            {
                Ok(got) => {
                    for (i, k) in got {
                        keys[i] = Ok(k);
                    }
                }
                Err(e) => keys[0] = Err(e),
            }
        }
        keys
    });
    let keys = keys
        .into_iter()
        .zip(seqs)
        .map(|(k, s)| k.map(|k| (k, s)))
        .collect::<Result<Vec<_>, _>>()?;
    for s in &shards {
        s.store
            .compact()
            .map_err(|e| format!("compacting preload: {e}"))?;
    }
    // Warm-up: a pass of fetches over a slice of the keyspace.
    let mut client = connect(addr)?;
    for (key, seq) in keys.iter().step_by(16) {
        let bytes = client
            .get(key.0)
            .map_err(|e| format!("warm-up fetch: {e}"))?;
        decode_and_verify(&bytes, seq)?;
    }
    client.bye().map_err(|e| format!("warm-up bye: {e}"))?;
    Ok(Env {
        keys,
        shards,
        router,
        scratch,
        gen_s,
    })
}

#[derive(Default)]
struct ClientLog {
    attempted: u64,
    ingested_bases: u64,
    fetched_bases: u64,
    dedup_writes: u64,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// Each write's span and bases.
    ingest_at: Vec<Op>,
    /// Each fetch's span and bases.
    fetch_at: Vec<Op>,
    failures: Vec<(bool, String)>,
    spans: Vec<Span>,
}

fn client_loop(
    env: &Env,
    c: usize,
    seed: u64,
    writes: &AtomicU64,
    (start, deadline): (Instant, Instant),
    tracer: &Tracer,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut client = connect(env.router.local_addr())?;
    let mut n = 0u64;
    while Instant::now() < deadline {
        tracer.set_enabled(traced_window(start.elapsed().as_secs_f64(), WINDOW_S));
        let req = ((c as u64) << 40) | n;
        log.attempted += 1;
        if n.is_multiple_of(MIX) {
            let w = writes.fetch_add(1, Ordering::Relaxed);
            let base = &env.keys[(mix(seed, w) % KEYS as u64) as usize].1;
            let dedup = w % DEDUP_EVERY == DEDUP_EVERY - 1;
            let seq = if dedup {
                base.clone()
            } else {
                variant(base, w)
            };
            let t = Instant::now();
            let resp = tracer.span("client.ingest", req, || {
                tracer.span("server.router.compress", req, || {
                    client.compress(
                        &format!("w-{w}"),
                        &seq,
                        Priority::Normal,
                        context(w, seq.len()),
                    )
                })
            });
            let ms = ms_since(t);
            match resp
                .map_err(|e| (false, e.to_string()))
                .and_then(|r| check_ack(&r, &seq).map_err(|e| (true, e)))
            {
                Ok(_) => {
                    log.write_ms.push(ms);
                    log.ingest_at.push(op(start, t, seq.len()));
                    log.ingested_bases += seq.len() as u64;
                    log.dedup_writes += u64::from(dedup);
                }
                Err(f) => log.failures.push(f),
            }
        } else {
            // Skewed popularity: low indices are hot.
            let u = unit(mix(seed ^ 0xF37C, req));
            let (key, seq) = &env.keys[(u * u * KEYS as f64) as usize];
            let t = Instant::now();
            let got = tracer.span("client.fetch", req, || {
                let bytes = tracer
                    .span("server.router.get", req, || client.get(key.0))
                    .map_err(|e| (false, e.to_string()))?;
                tracer
                    .span("algos.decompress", req, || decode_and_verify(&bytes, seq))
                    .map_err(|e| (true, e))
            });
            match got {
                Ok(()) => {
                    log.read_ms.push(ms_since(t));
                    log.fetch_at.push(op(start, t, seq.len()));
                    log.fetched_bases += seq.len() as u64;
                }
                Err(f) => log.failures.push(f),
            }
        }
        n += 1;
    }
    client.bye().map_err(|e| format!("bye: {e}"))?;
    log.spans = tracer.take();
    Ok(log)
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut env = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let e = setup(opts.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            e.stop()?;
        } else {
            env = Some(e);
        }
    }
    let env = env.expect("at least one set-up");
    out.store_fs = filesystem_of(env.scratch.path());
    let before = env.router.metrics_snapshot();
    let snaps_before = service_snapshots(&env);
    let stores_before: Vec<_> = env.shards.iter().map(|s| s.store.snapshot()).collect();

    let writes = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(opts.seconds);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (env, writes) = (&env, &writes);
                s.spawn(move || {
                    client_loop(
                        env,
                        c,
                        opts.seed,
                        writes,
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
    let after = env.router.metrics_snapshot();
    let mut all = ClientLog::default();
    let mut spans = Vec::new();
    for log in logs {
        let log = log?;
        all.attempted += log.attempted;
        all.ingested_bases += log.ingested_bases;
        all.fetched_bases += log.fetched_bases;
        all.dedup_writes += log.dedup_writes;
        all.write_ms.extend(log.write_ms);
        all.read_ms.extend(log.read_ms);
        all.ingest_at.extend(log.ingest_at);
        all.fetch_at.extend(log.fetch_at);
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
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let quorum_failures = d(after.quorum_failures, before.quorum_failures);
    let retries = d(after.route_retries, before.route_retries);
    let ejections = d(after.shard_ejections, before.shard_ejections);
    for (what, n) in [
        ("shard_ejections", ejections),
        ("route_retries", retries),
        ("quorum_failures", quorum_failures),
    ] {
        if n > 0 {
            out.validity.push(format!("{what} {n}"));
        }
    }

    // bits_per_base over the preloaded keyspace, as stored on shard 1.
    let (mut stored, mut bases) = (0u64, 0u64);
    for (key, seq) in &env.keys {
        let blob = env.shards[0]
            .store
            .get(key)
            .map_err(|e| format!("reading preloaded key: {e}"))?;
        stored += blob.total_bytes() as u64;
        bases += seq.len() as u64;
    }

    out.e2e.insert("setup_s", crate::stats::median(&setup_s));
    out.e2e.insert(
        "ingest_mb_s",
        median_rate(&all.ingest_at, wall, WINDOW_S) / 1e6,
    );
    out.e2e.insert(
        "fetch_mb_s",
        median_rate(&all.fetch_at, wall, WINDOW_S) / 1e6,
    );
    out.e2e
        .insert("bits_per_base", 8.0 * stored as f64 / bases.max(1) as f64);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    let snaps = service_snapshots(&env);
    let stores: Vec<_> = env.shards.iter().map(|s| s.store.snapshot()).collect();
    // Service counters over the timed phase.
    let sum = |f: fn(&MetricsSnapshot) -> u64| {
        let total = |v: &[MetricsSnapshot]| v.iter().map(f).sum::<u64>();
        total(&snaps).saturating_sub(total(&snaps_before)) as f64
    };
    let rejected = sum(|s| s.rejected_full) as u64;
    if rejected > 0 {
        out.validity.push(format!("rejected_full {rejected}"));
    }
    let info = &mut out.info;
    info.push(format!("setup_s_each {setup_s:?}"));
    info.push(format!(
        "timed wall_s {wall:?} writes {} dedup_writes {} reads {}",
        all.write_ms.len(),
        all.dedup_writes,
        all.read_ms.len()
    ));
    let layers = &mut out.layers;
    let (w50, w99) = p50_p99(&all.write_ms);
    let (r50, r99) = p50_p99(&all.read_ms);
    layers.set("server.router.write_p50_ms", w50);
    layers.set("server.router.write_p99_ms", w99);
    layers.set("server.router.read_p50_ms", r50);
    layers.set("server.router.read_p99_ms", r99);
    info.push(format!(
        "latency router write_samples {} read_samples {}",
        all.write_ms.len(),
        all.read_ms.len()
    ));
    layers.set("seq.gen_s", env.gen_s);
    layers.ratio(
        info,
        "server.router.write_amplification",
        d(after.replica_writes, before.replica_writes) as f64,
        all.write_ms.len() as f64,
    );
    layers.set("server.router.route_retries", retries as f64);
    layers.set(
        "server.router.read_repairs",
        d(after.read_repairs, before.read_repairs) as f64,
    );
    layers.set("server.router.quorum_failures", quorum_failures as f64);
    layers.set("server.router.shard_ejections", ejections as f64);
    layers.ratio(
        info,
        "server.service.decision_cache_hit_rate",
        sum(|s| s.cache_hits),
        sum(|s| s.cache_hits + s.cache_misses),
    );
    layers.set(
        "server.service.peak_queue_depth",
        snaps.iter().map(|s| s.peak_queue_depth).max().unwrap_or(0) as f64,
    );
    layers.set("server.service.rejected_full", rejected as f64);
    layers.ratio(
        info,
        "server.net.frames_per_op",
        sum(|s| s.frames_rx + s.frames_tx),
        d(after.route_forwards, before.route_forwards) as f64,
    );
    layers.ratio(
        info,
        "server.net.bytes_per_base",
        sum(|s| s.net_bytes_rx + s.net_bytes_tx),
        (all.ingested_bases + all.fetched_bases) as f64,
    );
    let preload_bases = bases as f64 * 3.0;
    store_layers(
        layers,
        info,
        (&stores_before, &stores),
        preload_bases + all.ingested_bases as f64 * 3.0,
    );

    if opts.trace {
        let spans = merge(spans);
        crate::cluster::span_layers(&mut out, &spans)?;
        let ops: Vec<Op> = all.ingest_at.iter().chain(&all.fetch_at).copied().collect();
        window_overhead(&mut out, &ops, wall, WINDOW_S);
        let inputs: Vec<ReplayInput> = (0..200u64)
            .map(|k| {
                let seq = variant(&env.keys[k as usize % KEYS].1, 8_000_000 + k);
                ReplayInput {
                    ctx: context(k, seq.len()),
                    seq,
                }
            })
            .collect();
        let targets = ReplayTargets {
            shard: &env.shards[0],
            router: Some(env.router.local_addr()),
            block_size: None,
            store_config: store_config(),
        };
        replay(
            &inputs,
            &targets,
            &env.scratch,
            &mut out.layers,
            &mut out.info,
        )?;
    }
    env.stop()?;
    Ok(out)
}
