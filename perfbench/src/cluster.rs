//! In-process shards (service + store + TCP front-end) and the
//! layer-by-layer replay the traced run of both service workloads uses.

use crate::common::{decode_and_verify, ms_since, variant, Scratch};
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::{aggregate, write_jsonl, Span};
use crate::Layers;
use dnacomp_algos::{compressor_for, ParallelCompressor, TaskPool};
use dnacomp_core::{Context, FrameworkHandle};
use dnacomp_seq::PackedSeq;
use dnacomp_server::{
    synthetic_framework, CompressRequest, CompressionService, NetClient, NetConfig, NetServer,
    Priority, Response, ServiceConfig,
};
use dnacomp_store::{ContentKey, SequenceStore, StoreConfig, StoreSnapshot};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client timeout for every call the benchmark makes.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The selector every shard serves with. Trained on a fixed synthetic
/// grid, so the workload seed reaches the program only as inputs.
pub fn framework() -> FrameworkHandle {
    synthetic_framework(0)
}

/// One shard: a compression service with its own store, served over
/// loopback TCP.
pub struct Shard {
    /// The service (shared with the front-end).
    pub service: Arc<CompressionService>,
    /// The front-end.
    pub server: NetServer,
    /// The shard's store.
    pub store: Arc<SequenceStore>,
}

impl Shard {
    /// Open a store under `dir` and start a service and front-end on it.
    pub fn start(
        dir: &Scratch,
        name: &str,
        workers: usize,
        block_size: Option<usize>,
        store_config: StoreConfig,
    ) -> Result<Shard, String> {
        let store = Arc::new(
            SequenceStore::open(dir.join(name), store_config)
                .map_err(|e| format!("opening store {name}: {e}"))?,
        );
        let service = Arc::new(CompressionService::start(
            framework(),
            ServiceConfig {
                workers,
                block_size,
                store: Some(Arc::clone(&store)),
                ..ServiceConfig::default()
            },
        ));
        let server = NetServer::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            NetConfig {
                store: Some(Arc::clone(&store)),
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("binding shard {name}: {e}"))?;
        Ok(Shard {
            service,
            server,
            store,
        })
    }

    /// The front-end's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop the front-end, then drain and join the service.
    pub fn stop(self) -> Result<(), String> {
        self.server.shutdown();
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| "service still referenced after the front-end stopped".to_owned())?;
        service.shutdown();
        Ok(())
    }
}

/// Connect a client.
pub fn connect(addr: SocketAddr) -> Result<NetClient<TcpStream>, String> {
    NetClient::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))
}

/// Why an upload's reply is not the acknowledgement of `seq`, if it is
/// not: the reply must be `CompressOk` carrying the client-computed
/// content key and the uploaded length.
pub fn check_ack(resp: &Response, seq: &PackedSeq) -> Result<[u8; 16], String> {
    match resp {
        Response::CompressOk {
            key: Some(key),
            original_len,
            ..
        } => {
            if *original_len != seq.len() as u64 {
                return Err(format!("ack for {original_len} bases, sent {}", seq.len()));
            }
            if *key != ContentKey::of_sequence(seq).0 {
                return Err("ack key differs from the client-computed content key".to_owned());
            }
            Ok(*key)
        }
        Response::CompressOk { key: None, .. } => Err("ack without a content key".to_owned()),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// p50 and p99 (nearest rank) of a sample, ms.
pub fn p50_p99(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    (
        nearest_rank(&s, 50.0).unwrap_or(0.0),
        nearest_rank(&s, 99.0).unwrap_or(0.0),
    )
}

/// Inputs for one replay: fresh sequences (never uploaded before, so
/// no step is answered by dedup) with the contexts they are sent under.
pub struct ReplayInput {
    /// Sequence to push through every layer.
    pub seq: PackedSeq,
    /// Context it is sent under.
    pub ctx: Context,
}

/// Where the outermost replay steps send their requests.
pub struct ReplayTargets<'a> {
    /// The shard whose service and front-end are timed directly.
    pub shard: &'a Shard,
    /// The router in front of the shards, when the workload has one.
    pub router: Option<SocketAddr>,
    /// Settings of the shards' stores, used for the scratch store too.
    pub store_config: StoreConfig,
    /// Block size of the framed path (`None`: flat blobs only).
    pub block_size: Option<usize>,
}

/// Replay `inputs` through each layer in turn, from the innermost call
/// outwards, and record each layer's timing and its residual: the time
/// the layer adds over the calls nested inside it.
///
/// 1. `FrameworkHandle::decide`
/// 2. `ParallelCompressor::compress` (framed) or `compressor_for(..).compress`
/// 3. `SequenceStore::put` on a scratch store
/// 4. `CompressionService::submit` + `JobTicket::wait`, no TCP
/// 5. `NetClient` directly to the shard
/// 6. `NetClient` through the router
/// 7. the fetch side: `get`, then decompress
pub fn replay(
    inputs: &[ReplayInput],
    targets: &ReplayTargets<'_>,
    scratch: &Scratch,
    layers: &mut Layers,
    info: &mut Vec<String>,
) -> Result<(), String> {
    let fw = framework();
    let n = inputs.len().max(1) as f64;

    // 1. decide, repeated so one call's sub-microsecond cost resolves.
    let reps = 1000;
    let t = Instant::now();
    let mut algs = Vec::with_capacity(inputs.len());
    for _ in 0..reps {
        algs.clear();
        algs.extend(
            inputs
                .iter()
                .map(|i| fw.decide(std::hint::black_box(&i.ctx))),
        );
    }
    let decide_ms = ms_since(t) / (reps as f64 * n);
    layers.set("core.decide_us", decide_ms * 1e3);

    // 2. compress as the worker would, plus the flat recompress the
    // store path performs on framed jobs.
    let pool = Arc::new(TaskPool::new(
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    ));
    let mut compress_ms = Vec::new();
    let mut flat_ms = Vec::new();
    let mut decompress_ms = Vec::new();
    let mut blobs = Vec::new();
    for (i, alg) in inputs.iter().zip(&algs) {
        let framed = targets.block_size.filter(|&b| i.seq.len() > b);
        let t = Instant::now();
        match framed {
            Some(b) => {
                ParallelCompressor::new(*alg, b, Arc::clone(&pool))
                    .compress(&i.seq)
                    .map_err(|e| format!("framed compress: {e}"))?;
            }
            None => {
                compressor_for(*alg)
                    .compress(&i.seq)
                    .map_err(|e| format!("compress: {e}"))?;
            }
        }
        compress_ms.push(ms_since(t));
        let t = Instant::now();
        let blob = compressor_for(*alg)
            .compress(&i.seq)
            .map_err(|e| format!("flat compress: {e}"))?;
        // The store path recompresses flat only after a framed compress.
        flat_ms.push(if framed.is_some() { ms_since(t) } else { 0.0 });
        let t = Instant::now();
        let back = compressor_for(*alg)
            .decompress(&blob)
            .map_err(|e| format!("decompress: {e}"))?;
        decompress_ms.push(ms_since(t));
        if back != i.seq {
            return Err("replay decompress differs from its input".to_owned());
        }
        blobs.push(blob);
    }
    let (c50, c99) = p50_p99(&compress_ms);
    let (d50, d99) = p50_p99(&decompress_ms);
    layers.set("algos.compress_p50_ms", c50);
    layers.set("algos.compress_p99_ms", c99);
    layers.set("algos.decompress_p50_ms", d50);
    layers.set("algos.decompress_p99_ms", d99);
    if targets.block_size.is_some() {
        info.push(format!(
            "replay flat_recompress_p50_ms {:?} (store path of framed jobs)",
            p50_p99(&flat_ms).0
        ));
    }

    // 3. store put/get on a scratch store with the shard's settings.
    let store = SequenceStore::open(scratch.join("replay-store"), targets.store_config)
        .map_err(|e| format!("opening replay store: {e}"))?;
    let mut put_ms = Vec::new();
    let mut get_ms = Vec::new();
    for (i, blob) in inputs.iter().zip(&blobs) {
        let t = Instant::now();
        let out = store
            .put(&i.seq, blob)
            .map_err(|e| format!("store put: {e}"))?;
        put_ms.push(ms_since(t));
        let t = Instant::now();
        let got = store.get(&out.key).map_err(|e| format!("store get: {e}"))?;
        get_ms.push(ms_since(t));
        if &got != blob {
            return Err("store returned a different blob".to_owned());
        }
    }
    let (p50, p99) = p50_p99(&put_ms);
    layers.set("store.put_p50_ms", p50);
    layers.set("store.put_p99_ms", p99);
    let (g50, g99) = p50_p99(&get_ms);
    layers.set("store.get_p50_ms", g50);
    layers.set("store.get_p99_ms", g99);

    // 4. the service without TCP; fresh content so nothing dedups.
    let mut job_ms = Vec::new();
    for (k, i) in inputs.iter().enumerate() {
        let seq = variant(&i.seq, 4_000_000 + k as u64);
        let mut req = CompressRequest::new(format!("replay-job-{k}"), seq.clone(), i.ctx.clone());
        req.priority = Priority::Normal;
        let t = Instant::now();
        let ticket = targets
            .shard
            .service
            .submit(req)
            .map_err(|e| format!("submit: {e}"))?;
        let resp = ticket.wait().map_err(|e| format!("job: {e}"))?;
        job_ms.push(ms_since(t));
        if resp.original_len != seq.len() {
            return Err("job answered for a different length".to_owned());
        }
    }
    let (j50, j99) = p50_p99(&job_ms);
    layers.set("server.service.job_p50_ms", j50);
    layers.set("server.service.job_p99_ms", j99);
    // Residuals pair each input with itself across the levels, so they
    // do not mix the costs of different input sizes.
    let paired = |f: &dyn Fn(usize) -> f64| median(&(0..inputs.len()).map(f).collect::<Vec<_>>());
    let inner = |k: usize| decide_ms + compress_ms[k] + put_ms[k];
    layers.set(
        "server.service.residual_ms",
        paired(&|k| job_ms[k] - inner(k)),
    );
    info.push(format!(
        "replay service_residual_after_flat_recompress_ms {:?}",
        paired(&|k| job_ms[k] - inner(k) - flat_ms[k])
    ));

    // 5–7. over TCP: direct to the shard, then through the router.
    let mut hops = vec![("direct", targets.shard.addr(), 5_000_000u64)];
    if let Some(r) = targets.router {
        hops.push(("router", r, 6_000_000));
    }
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for (hop, addr, salt) in hops {
        let mut client = connect(addr)?;
        let mut w = Vec::new();
        let mut r = Vec::new();
        for (k, i) in inputs.iter().enumerate() {
            let seq = variant(&i.seq, salt + k as u64);
            let t = Instant::now();
            let resp = client
                .compress(
                    &format!("replay-{hop}-{k}"),
                    &seq,
                    Priority::Normal,
                    i.ctx.clone(),
                )
                .map_err(|e| format!("{hop} compress: {e}"))?;
            w.push(ms_since(t));
            let key = check_ack(&resp, &seq)?;
            let t = Instant::now();
            let bytes = client.get(key).map_err(|e| format!("{hop} get: {e}"))?;
            decode_and_verify(&bytes, &seq)?;
            r.push(ms_since(t));
        }
        client.bye().map_err(|e| format!("{hop} bye: {e}"))?;
        info.push(format!(
            "replay {hop} write_p50_ms {:?} read_p50_ms {:?}",
            p50_p99(&w).0,
            p50_p99(&r).0
        ));
        writes.push(w);
        reads.push(r);
    }
    layers.set(
        "server.net.overhead_ms",
        paired(&|k| writes[0][k] - job_ms[k]),
    );
    if writes.len() == 2 {
        layers.set(
            "server.router.overhead_ms",
            paired(&|k| writes[1][k] - writes[0][k]),
        );
        info.push(format!(
            "replay router_read_overhead_ms {:?}",
            paired(&|k| reads[1][k] - reads[0][k])
        ));
    }
    info.push(format!("replay inputs {}", inputs.len()));
    Ok(())
}

/// Store-layer figures summed over the shards' stores: counters over the
/// timed phase (`after` − `before`), state (runs, bytes on disk) at its
/// end. `bases_written` is the number of bases the stores were asked to
/// hold since they opened (replicas counted).
pub fn store_layers(
    layers: &mut Layers,
    info: &mut Vec<String>,
    (before, after): (&[StoreSnapshot], &[StoreSnapshot]),
    bases_written: f64,
) {
    let now = |f: fn(&StoreSnapshot) -> u64| after.iter().map(f).sum::<u64>() as f64;
    let delta = |f: fn(&StoreSnapshot) -> u64| now(f) - before.iter().map(f).sum::<u64>() as f64;
    layers.ratio(
        info,
        "store.wal_appends_per_batch",
        delta(|s| s.wal_appends),
        delta(|s| s.wal_batches),
    );
    layers.ratio(
        info,
        "store.block_cache_hit_rate",
        delta(|s| s.cache_hits),
        delta(|s| s.cache_hits + s.cache_misses),
    );
    layers.set("store.bloom_negatives", delta(|s| s.bloom_negatives));
    layers.set("store.compactions", delta(|s| s.seals + s.merges));
    layers.set("store.runs", now(|s| s.runs));
    layers.ratio(
        info,
        "store.bytes_on_disk_per_base",
        now(|s| s.bytes_on_disk),
        bases_written,
    );
}

/// Largest accounting error a traced run accepts, ns: a span's self
/// time plus its children's durations must equal its duration. The
/// benchmark's spans nest sequentially on one thread, so this can only
/// fail if a child outlives its parent or two siblings overlap.
pub const ACCOUNTING_TOLERANCE_NS: u64 = 0;

/// Per-layer diagnostics from the timed phase's spans: each span name's
/// count, total and self time, and the accounting check. Spans are also
/// written to `.perfbench_out/`.
pub fn span_layers(out: &mut crate::Outcome, spans: &[Span]) -> Result<(), String> {
    let (totals, worst_ns) = aggregate(spans);
    for (name, t) in &totals {
        out.info.push(format!(
            "span {name} count {} total_ms {:?} self_ms {:?}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out.info.push(format!(
        "trace spans {} accounting_error_ns {worst_ns} tolerance_ns {ACCOUNTING_TOLERANCE_NS}",
        spans.len()
    ));
    if worst_ns > ACCOUNTING_TOLERANCE_NS {
        return Err(format!(
            "span accounting off by {worst_ns} ns (tolerance {ACCOUNTING_TOLERANCE_NS} ns)"
        ));
    }
    std::fs::create_dir_all(crate::common::OUT_DIR)
        .map_err(|e| format!("creating output dir: {e}"))?;
    let path = std::path::Path::new(crate::common::OUT_DIR)
        .join(format!("spans-{}.jsonl", std::process::id()));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    write_jsonl(std::io::BufWriter::new(file), spans).map_err(|e| format!("writing spans: {e}"))?;
    out.info.push(format!("trace written {}", path.display()));
    Ok(())
}

/// Tracing overhead, %: how much more a unit of work cost in the traced
/// parts of the timed phase than in the untraced parts interleaved with
/// them. `traced` and `untraced` are costs of the same unit (seconds
/// per cycle, seconds per Mbase).
pub fn trace_overhead(out: &mut crate::Outcome, unit: &str, traced: f64, untraced: f64) {
    let pct = (traced / untraced - 1.0) * 100.0;
    out.info.push(format!(
        "trace overhead traced_{unit} {traced:?} untraced_{unit} {untraced:?} overhead_pct {pct:?}"
    ));
    out.layers.set("trace.overhead_pct", pct);
}
