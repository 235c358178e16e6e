//! The traced run (`--trace 1`): per-layer numbers from spans the
//! benchmark records around its own calls into each layer's public
//! functions.
//!
//! Every traced run prints every per-layer metric. The workload's own
//! target (server or fleet) carries its traffic twice, untraced and
//! traced; the other kind of target carries a short phase of the same
//! traffic for its counters. The request path is replayed in process on
//! the workload's bodies, layer by layer; the other path (batch for the
//! single-request workloads, single for `batch-zipf`) is replayed on the
//! same jobs for the metrics that only it produces. Engine stages are
//! replayed on the `serve-cold` cycle drawn from the same seed, whatever
//! the workload, since that is where they carry the work.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use sysunc::evidence::{propagate_model, DsStructure, Interval};
use sysunc::pce::{ChaosExpansion, PceInput};
use sysunc::prob::dist::{Beta, Continuous, Exponential, Normal, Uniform};
use sysunc::prob::json::{self, FromJson, Json};
use sysunc::prob::rng::{SeedableRng, StdRng};
use sysunc::prob::stats::SortedSample;
use sysunc::sampling::{Design, LatinHypercubeDesign, RandomDesign, SoaMatrix, SobolDesign};
use sysunc::{
    dedup_by_key, fnv1a64, propagate_chunked, CanonicalRequest, ChunkOptions, EvidentialEngine,
    SpectralEngine, UncertainInput, WireRequest, CHUNK_WIDTH,
};
use sysunc_serve::http::{HttpConn, Limits};
use sysunc_serve::router::{decode_batch_body, decode_propagate_body, run_batch_jobs, CancelToken};
use sysunc_serve::{HttpClient, Response, ResponseCache, ServerConfig, ServerMetrics};

use crate::check::{Digest, Reference};
use crate::drive::{self, median, quantile, Loop};
use crate::gen;
use crate::target::{cold_starts, Kind, Probe, Target};
use crate::trace::Tracer;
use crate::workload::{Traffic, Workload};
use crate::{metric, peak_rss_mib, result_line, setup_starts, sys, Args, Metric};

/// Seconds the other kind of target carries the workload's traffic.
const SIDE_SECONDS: f64 = 2.0;

/// Fleet cold starts in a traced run (each spawns two processes).
const TRACE_FLEET_STARTS: usize = 3;

pub fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let reference = Reference::new()?;
    let probe = Probe::new(&reference)?;
    let mut out: Vec<Metric> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut correct = true;

    // Set-up, both kinds, stage by stage.
    let (server, serve_setups) = cold_starts(Kind::Serve, &probe, setup_starts(Kind::Serve))?;
    let (fleet, fleet_setups) = cold_starts(Kind::Fleet, &probe, TRACE_FLEET_STARTS)?;
    let med = |v: Vec<Duration>| median(&v.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    out.push(metric(
        "serve.setup.registry_us",
        med(serve_setups.iter().map(|s| s.registry).collect()) * 1e6,
        "us",
    ));
    out.push(metric(
        "serve.setup.start_us",
        med(serve_setups.iter().map(|s| s.start).collect()) * 1e6,
        "us",
    ));
    out.push(metric(
        "fleet.supervisor.spawn_s",
        med(fleet_setups.iter().map(|s| s.spawn).collect()),
        "s",
    ));

    let (own, other) = match workload.kind() {
        Kind::Serve => (&server, &fleet),
        Kind::Fleet => (&fleet, &server),
    };
    let traffic = Traffic::prepare(workload, args.seed, &reference, own.addr())?;

    // The workload's own target: untraced, then traced, same traffic.
    let next = AtomicU64::new(0);
    let half = Args {
        seconds: args.seconds.div_ceil(2),
        ..*args
    };
    crate::warm_up(&half, &traffic, own)?;
    let own_before = Counters::read(own)?;
    let ctx_before = ctx_switches(own);
    let mut plain = crate::measure(&half, &traffic, own, &next, false)?;
    let ctx = ctx_switches(own).saturating_sub(ctx_before);
    let own_after = Counters::read(own)?;
    let mut traced = crate::measure(&half, &traffic, own, &next, true)?;
    for run in [&mut plain, &mut traced] {
        traffic.verify(run, &reference)?;
        attempted += run.jobs_attempted;
        failed += run.jobs_failed;
        correct &= run.mismatches == 0;
    }
    let done_jobs = plain.windows.jobs.iter().sum::<u64>().max(1);
    out.push(metric(
        "proc.ctx_switches_per_job",
        ctx as f64 / done_jobs as f64,
        "count",
    ));

    // The other kind of target: the same traffic, for its counters.
    let side_next = AtomicU64::new(1 << 36);
    let other_before = Counters::read(other)?;
    let side = drive::run(&Loop {
        addr: other.addr(),
        traffic: &traffic,
        next: &side_next,
        seconds: SIDE_SECONDS,
        limit: workload.limit(),
        seed: args.seed ^ 0x51DE,
        trace: false,
    })?;
    let other_after = Counters::read(other)?;
    let side_jobs = side.windows.jobs.iter().sum::<u64>().max(1);
    let (serve_delta, serve_jobs, fleet_delta, fleet_jobs) = match workload.kind() {
        Kind::Serve => (
            own_after.minus(&own_before),
            done_jobs,
            other_after.minus(&other_before),
            side_jobs,
        ),
        Kind::Fleet => (
            other_after.minus(&other_before),
            side_jobs,
            own_after.minus(&own_before),
            done_jobs,
        ),
    };
    out.push(metric(
        "serve.cache.hit_ratio",
        serve_delta.hit_ratio(),
        "ratio",
    ));
    out.push(metric(
        "serve.cache.evictions_per_job",
        serve_delta.evictions as f64 / serve_jobs as f64,
        "count",
    ));
    out.push(metric(
        "fleet.cache_hit_ratio",
        fleet_delta.hit_ratio(),
        "ratio",
    ));
    out.push(metric(
        "fleet.evictions_per_job",
        fleet_delta.evictions as f64 / fleet_jobs as f64,
        "count",
    ));
    let routed_total: u64 = fleet_delta.routed.iter().sum();
    let routed_max = fleet_delta.routed.iter().copied().max().unwrap_or(0);
    out.push(metric(
        "fleet.routed_max_share",
        routed_max as f64 / routed_total.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "fleet.forward_retries",
        fleet_delta.retries as f64,
        "count",
    ));
    out.push(metric(
        "fleet.router.hop_us",
        hop_us(&fleet, &traffic, workload)?,
        "us",
    ));
    let rss = peak_rss_mib();
    server.shutdown();
    fleet.shutdown();

    // In-process replays: the workload's path, then the other path.
    let registry = reference.registry();
    let mut path = Tracer::new(Instant::now());
    let mut aux = Tracer::new(Instant::now());
    let mut batch_stats = BatchStats::default();
    match &traffic {
        Traffic::Batch(batch) => {
            let cache = replay_cache();
            for i in 0..BATCH_WARM {
                let ranks = batch.ranks(WARM_INDEX + i);
                replay_batch(
                    registry,
                    &cache,
                    &batch.body(&ranks),
                    i,
                    &mut Tracer::new(Instant::now()),
                    &mut BatchStats::default(),
                )?;
            }
            for i in 0..BATCH_REPLAYS {
                let body = batch.body(&batch.ranks(i));
                replay_batch(registry, &cache, &body, i, &mut path, &mut batch_stats)?;
            }
            let single = replay_cache();
            for i in 0..SINGLE_AUX_BATCHES {
                for r in batch.ranks(i) {
                    let body = json::to_string(&batch.universe[r]);
                    replay_single(registry, &single, &body, i, &mut aux)?;
                }
            }
        }
        _ => {
            let cache = replay_cache();
            if let Traffic::Hot(hot) = &traffic {
                for wire in &hot.wires {
                    let canonical = CanonicalRequest::from_wire(wire).map_err(|e| e.to_string())?;
                    let body = reference.body(wire)?;
                    cache.insert(
                        canonical.content_hash(),
                        canonical.bytes().to_string(),
                        body.into(),
                    );
                }
            }
            let n = if matches!(traffic, Traffic::Cold { .. }) {
                COLD_REPLAYS
            } else {
                HOT_REPLAYS
            };
            for i in 0..n {
                replay_single(registry, &cache, &traffic.op(i).body, i, &mut path)?;
            }
            if let Traffic::Cold { .. } = &traffic {
                // The cold path never hits; the same bodies again do.
                for i in 0..n {
                    replay_single(registry, &cache, &traffic.op(i).body, i, &mut aux)?;
                }
            }
            let batches = replay_cache();
            for b in 0..BATCH_AUX {
                let bodies: Vec<String> = (0..gen::BATCH_JOBS as u64)
                    .map(|j| traffic.op(b * 1000 + j).body.into_owned())
                    .collect();
                let body = format!("{{\"jobs\":[{}]}}", bodies.join(","));
                replay_batch(registry, &batches, &body, b, &mut aux, &mut batch_stats)?;
            }
        }
    }
    let own_path = path.self_times();
    let other_path = aux.self_times();
    let layer = |name: &str| own_path.get(name).or_else(|| other_path.get(name));
    let p50_us = |name: &str| layer(name).map_or(0.0, |v| p50(v) / 1e3);
    for (metric_name, span) in [
        ("serve.http.read_us", "serve.http.read"),
        ("serve.http.write_us", "serve.http.write"),
        ("serve.router.decode_us", "serve.router.decode"),
        ("core.wire.canonicalize_us", "core.wire.canonicalize"),
        ("prob.json.parse_us", "prob.json.parse"),
        ("prob.json.encode_report_us", "prob.json.encode_report"),
        ("serve.cache.get_hit_us", "serve.cache.get_hit"),
        ("serve.cache.insert_us", "serve.cache.insert"),
    ] {
        out.push(metric(metric_name, p50_us(span), "us"));
    }
    out.push(metric(
        "serve.router.decode_batch_us_per_job",
        batch_stats.decode_ns as f64 / batch_stats.jobs.max(1) as f64 / 1e3,
        "us",
    ));
    out.push(metric(
        "core.propagator.dedup_ratio",
        batch_stats.jobs as f64 / batch_stats.uniques.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "core.propagator.run_batch_efficiency",
        batch_stats.serial_ns as f64
            / (batch_stats.threads as f64 * batch_stats.wall_ns.max(1) as f64),
        "ratio",
    ));

    // Engines and their stages, on the serve-cold cycle.
    let mut engines = Tracer::new(Instant::now());
    let stages = replay_engines(&reference, args.seed, &mut engines)?;
    correct &= stages.reconciled;
    out.extend(stages.metrics);

    // Residual: the traced request p50 that no layer self time explains.
    let client = traced
        .tracers
        .iter()
        .fold(BTreeMap::<&str, Vec<u64>>::new(), |mut acc, t| {
            for (k, v) in t.self_times() {
                acc.entry(k).or_default().extend(v);
            }
            acc
        });
    let traced_p50 = quantile(&traced.kept_latencies(), 0.5) / 1e3;
    let plain_p50 = quantile(&plain.kept_latencies(), 0.5) / 1e3;
    let request_layers = per_request_sums(&path);
    let mut explained = 0.0;
    let mut parts = Vec::new();
    for (name, v) in &request_layers {
        let us = p50(v) / 1e3;
        explained += us;
        parts.push(format!("{name} {us:.2}"));
    }
    for name in ["client.request", "client.encode", "client.check"] {
        let us = client.get(name).map_or(0.0, |v| p50(v) / 1e3);
        explained += us;
        parts.push(format!("{name} {us:.2}"));
    }
    let residual = traced_p50 - explained;
    eprintln!(
        "{}: traced p50 {traced_p50:.2} us = {} + residual {residual:.2} us; untraced p50 {plain_p50:.2} us",
        workload.name(),
        parts.join(" + ")
    );
    out.push(metric("serve.residual_us", residual, "us"));
    out.push(metric("trace.overhead_us", traced_p50 - plain_p50, "us"));
    eprintln!(
        "{}: peak rss {rss:.1} MiB, host steal {:.4}",
        workload.name(),
        plain.steal
    );

    let file = write_spans(
        args,
        &[("path", &path), ("aux", &aux), ("engines", &engines)],
        &traced.tracers,
    )?;
    eprintln!("{}: spans written to {file}", workload.name());
    out.sort_by(|a, b| a.name.cmp(&b.name));
    result_line(correct, attempted, failed, &out)
}

/// Replayed operations per path.
const COLD_REPLAYS: u64 = 120;
const HOT_REPLAYS: u64 = 4096;
const BATCH_REPLAYS: u64 = 128;
const BATCH_WARM: u64 = 256;
const WARM_INDEX: u64 = 1 << 40;
/// Batches of the workload's own jobs replayed on the single-request
/// workloads, and batches whose jobs `batch-zipf` replays singly.
const BATCH_AUX: u64 = 2;
const SINGLE_AUX_BATCHES: u64 = 16;

fn p50(v: &[u64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    quantile(&s, 0.5)
}

/// A cache like the server's own (default capacity and shard count).
fn replay_cache() -> ResponseCache {
    let config = ServerConfig::default();
    ResponseCache::new(config.cache_capacity, config.cache_shards)
}

/// The request as `HttpClient` puts it on the wire.
fn wire_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: sysunc\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn read_request(
    tracer: &mut Tracer,
    req: u64,
    bytes: &[u8],
) -> Result<sysunc_serve::Request, String> {
    let mut conn = HttpConn::new(bytes);
    tracer
        .time(req, None, "serve.http.read", || {
            conn.read_request(&Limits::default(), &mut || true)
        })
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "replayed request was empty".to_string())
}

fn write_response(tracer: &mut Tracer, req: u64, response: &Response) -> Result<(), String> {
    let mut sink: Vec<u8> = Vec::with_capacity(response.body.len() + 256);
    tracer
        .time(req, None, "serve.http.write", || {
            response.write_to(&mut sink, true)
        })
        .map_err(|e| e.to_string())
}

/// Replays one `POST /v1/propagate` the way a server connection and
/// worker handle it.
fn replay_single(
    registry: &sysunc::ModelRegistry,
    cache: &ResponseCache,
    body: &str,
    req: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let request = read_request(tracer, req, &wire_bytes("/v1/propagate", body))?;
    let decode = tracer.begin(req, None, "serve.router.decode");
    let decoded = decode_propagate_body(registry, &request.body);
    tracer.end(decode);
    let (wire, canonical) = decoded.map_err(|r| r.body_text())?;
    // What decode does inside, timed on its own and booked as its child.
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    tracer
        .time(req, Some(decode), "prob.json.parse", || json::parse(text))
        .map_err(|e| e.to_string())?;
    tracer
        .time(req, Some(decode), "core.wire.canonicalize", || {
            CanonicalRequest::from_wire(&wire)
        })
        .map_err(|e| e.to_string())?;
    let get = tracer.begin(req, None, "serve.cache.get");
    let hit = cache.get(canonical.content_hash(), canonical.bytes());
    tracer.end(get);
    let response = match hit {
        Some(cached) => {
            rename(tracer, get, "serve.cache.get_hit");
            Response::new(200)
                .with_json(cached.as_str().to_string())
                .with_header("X-Sysunc-Cache", "hit")
        }
        None => {
            rename(tracer, get, "serve.cache.get_miss");
            let model = registry.get(&wire.model).ok_or("unknown model")?;
            let engine = wire.resolve_engine().map_err(|e| e.to_string())?;
            let request = wire.to_request(model).map_err(|e| e.to_string())?;
            let report = tracer
                .time(req, None, "core.propagator.propagate", || {
                    engine.propagate(&request)
                })
                .map_err(|e| e.to_string())?;
            let body = tracer.time(req, None, "prob.json.encode_report", || {
                json::to_string(&report)
            });
            tracer.time(req, None, "serve.cache.insert", || {
                cache.insert(
                    canonical.content_hash(),
                    canonical.bytes().to_string(),
                    body.clone().into(),
                )
            });
            Response::new(200)
                .with_json(body)
                .with_header("X-Sysunc-Cache", "miss")
        }
    };
    write_response(tracer, req, &response)
}

fn rename(tracer: &mut Tracer, id: u32, layer: &'static str) {
    if let Some(span) = tracer.spans.get_mut(id as usize) {
        span.layer = layer;
    }
}

/// Batch-path counts gathered across replayed batches.
#[derive(Default)]
struct BatchStats {
    jobs: u64,
    uniques: u64,
    decode_ns: u64,
    serial_ns: u64,
    wall_ns: u64,
    threads: u64,
}

/// Replays one `POST /v1/propagate/batch` the way the server handles it.
fn replay_batch(
    registry: &sysunc::ModelRegistry,
    cache: &ResponseCache,
    body: &str,
    req: u64,
    tracer: &mut Tracer,
    stats: &mut BatchStats,
) -> Result<(), String> {
    let request = read_request(tracer, req, &wire_bytes("/v1/propagate/batch", body))?;
    let started = Instant::now();
    let decode = tracer.begin(req, None, "serve.router.decode_batch");
    let jobs = decode_batch_body(registry, &request.body).map_err(|r| r.body_text())?;
    tracer.end(decode);
    stats.decode_ns += started.elapsed().as_nanos() as u64;
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    let doc = tracer
        .time(req, Some(decode), "prob.json.parse", || json::parse(text))
        .map_err(|e| e.to_string())?;
    for job in doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]) {
        let wire = WireRequest::from_json(job).map_err(|e| e.to_string())?;
        tracer
            .time(req, Some(decode), "core.wire.canonicalize", || {
                CanonicalRequest::from_wire(&wire)
            })
            .map_err(|e| e.to_string())?;
    }
    let keys: Vec<&str> = jobs.iter().map(|(_, c)| c.bytes()).collect();
    let (uniques, assignment) =
        tracer.time(req, None, "core.propagator.dedup", || dedup_by_key(&keys));
    stats.jobs += jobs.len() as u64;
    stats.uniques += uniques.len() as u64;
    let mut bodies: Vec<Option<std::sync::Arc<String>>> = Vec::with_capacity(uniques.len());
    for &j in &uniques {
        let canonical = &jobs[j].1;
        let get = tracer.begin(req, None, "serve.cache.get");
        let hit = cache.get(canonical.content_hash(), canonical.bytes());
        tracer.end(get);
        rename(
            tracer,
            get,
            if hit.is_some() {
                "serve.cache.get_hit"
            } else {
                "serve.cache.get_miss"
            },
        );
        bodies.push(hit);
    }
    let missing: Vec<usize> = (0..uniques.len())
        .filter(|&u| bodies[u].is_none())
        .collect();
    if !missing.is_empty() {
        let wires: Vec<WireRequest> = missing
            .iter()
            .map(|&u| jobs[uniques[u]].0.clone())
            .collect();
        let threads = ServerConfig::default().workers;
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(60));
        let metrics = ServerMetrics::new();
        let wall = Instant::now();
        let results = tracer
            .time(req, None, "core.propagator.run_batch", || {
                run_batch_jobs(registry, &wires, &token, &metrics, threads)
            })
            .map_err(|(i, e)| format!("batch job {i}: {e}"))?;
        stats.wall_ns += wall.elapsed().as_nanos() as u64;
        stats.threads = threads as u64;
        // The same jobs one at a time, off the request path: the serial
        // time run_batch's threads divide.
        for wire in &wires {
            let model = registry.get(&wire.model).ok_or("unknown model")?;
            let request = wire.to_request(model).map_err(|e| e.to_string())?;
            let engine = wire.resolve_engine().map_err(|e| e.to_string())?;
            let t = Instant::now();
            engine.propagate(&request).map_err(|e| e.to_string())?;
            stats.serial_ns += t.elapsed().as_nanos() as u64;
        }
        for (&u, outcome) in missing.iter().zip(results) {
            let report = outcome.map_err(|e| e.to_string())?;
            let body =
                std::sync::Arc::new(tracer.time(req, None, "prob.json.encode_report", || {
                    json::to_string(&report)
                }));
            let canonical = &jobs[uniques[u]].1;
            tracer.time(req, None, "serve.cache.insert", || {
                cache.insert(
                    canonical.content_hash(),
                    canonical.bytes().to_string(),
                    std::sync::Arc::clone(&body),
                )
            });
            bodies[u] = Some(body);
        }
    }
    let out = tracer.time(req, None, "serve.router.batch_assemble", || {
        let parts: Vec<&str> = assignment
            .iter()
            .filter_map(|&u| bodies[u].as_deref().map(String::as_str))
            .collect();
        format!("[{}]", parts.join(","))
    });
    write_response(tracer, req, &Response::new(200).with_json(out))
}

/// Self time per request and layer, summed within a request, with a
/// zero for every request that never entered the layer (a cache hit
/// runs no engine), so each layer's p50 is over the same requests.
fn per_request_sums(tracer: &Tracer) -> BTreeMap<&'static str, Vec<u64>> {
    let mut child_ns = vec![0u64; tracer.spans.len()];
    for span in &tracer.spans {
        if let Some(c) = span.parent.and_then(|p| child_ns.get_mut(p as usize)) {
            *c += span.end_ns - span.start_ns;
        }
    }
    let mut by: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut requests = std::collections::BTreeSet::new();
    for (span, children) in tracer.spans.iter().zip(child_ns) {
        requests.insert(span.req);
        *by.entry(span.layer)
            .or_default()
            .entry(span.req)
            .or_default() += (span.end_ns - span.start_ns).saturating_sub(children);
    }
    by.into_iter()
        .map(|(layer, per_req)| {
            (
                layer,
                requests
                    .iter()
                    .map(|r| per_req.get(r).copied().unwrap_or(0))
                    .collect(),
            )
        })
        .collect()
}

/// Cache and fleet counters of a target.
#[derive(Debug, Default, Clone)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    routed: Vec<u64>,
    retries: u64,
}

impl Counters {
    fn read(target: &Target) -> Result<Self, String> {
        match target {
            Target::Serve(server) => {
                let m = server.metrics();
                Ok(Self {
                    hits: m.cache_hit_count(),
                    misses: m.cache_miss_count(),
                    evictions: m.cache_eviction_count(),
                    ..Self::default()
                })
            }
            Target::Fleet(fleet) => {
                let mut client = HttpClient::connect(fleet.addr()).map_err(|e| e.to_string())?;
                let text = client.scrape_metrics().map_err(|e| e.to_string())?;
                let value = |name: &str| {
                    text.lines()
                        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
                        .unwrap_or(0)
                };
                let m = fleet.metrics();
                Ok(Self {
                    hits: value("sysunc_cache_hits_total"),
                    misses: value("sysunc_cache_misses_total"),
                    evictions: value("sysunc_cache_evictions_total"),
                    routed: (0..fleet.shards()).map(|s| m.routed_count(s)).collect(),
                    retries: m.forward_retry_count(),
                })
            }
        }
    }

    fn minus(&self, before: &Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            routed: self
                .routed
                .iter()
                .zip(before.routed.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a - b)
                .collect(),
            retries: self.retries - before.retries,
        }
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Context switches of this process, plus the fleet's children.
fn ctx_switches(target: &Target) -> u64 {
    let children: u64 = match target {
        Target::Fleet(_) => sys::child_pids()
            .into_iter()
            .map(sys::process_ctx_switches)
            .sum(),
        Target::Serve(_) => 0,
    };
    sys::ctx_switches() + children
}

/// Distinct operations the hop measurement uses.
const HOP_OPS: u64 = 128;

/// The fleet front's extra cost: p50 through the front minus p50 sent
/// straight to the shard that owns the request, both answered from
/// cache after one warming pass.
fn hop_us(fleet: &Target, traffic: &Traffic, workload: Workload) -> Result<f64, String> {
    let Target::Fleet(handle) = fleet else {
        return Err("hop needs a fleet".into());
    };
    let shards = handle.shard_addrs();
    let mut front = HttpClient::connect(handle.addr()).map_err(|e| e.to_string())?;
    let mut direct: BTreeMap<SocketAddr, HttpClient> = BTreeMap::new();
    let ops: Vec<_> = (0..HOP_OPS).map(|i| traffic.op((1 << 38) + i)).collect();
    let mut owners = Vec::with_capacity(ops.len());
    for op in &ops {
        let hash = placement(op.path, &op.body)?;
        let addr = shards[(hash % shards.len() as u64) as usize].ok_or("shard has no address")?;
        if let std::collections::btree_map::Entry::Vacant(slot) = direct.entry(addr) {
            slot.insert(HttpClient::connect(addr).map_err(|e| e.to_string())?);
        }
        owners.push(addr);
        front
            .request("POST", op.path, Some(&op.body))
            .map_err(|e| e.to_string())?;
    }
    let mut via_front = Vec::new();
    let mut via_shard = Vec::new();
    for _round in 0..4 {
        for (op, addr) in ops.iter().zip(&owners) {
            let t = Instant::now();
            let a = front
                .request("POST", op.path, Some(&op.body))
                .map_err(|e| e.to_string())?;
            via_front.push(t.elapsed().as_nanos() as u64);
            let client = direct.get_mut(addr).ok_or("no shard client")?;
            let t = Instant::now();
            let b = client
                .request("POST", op.path, Some(&op.body))
                .map_err(|e| e.to_string())?;
            via_shard.push(t.elapsed().as_nanos() as u64);
            if a.status != 200 || Digest::of(&a.body) != Digest::of(&b.body) {
                return Err(format!(
                    "{}: the front and the owning shard answered differently",
                    workload.name()
                ));
            }
        }
    }
    Ok((p50(&via_front) - p50(&via_shard)) / 1e3)
}

/// The fleet front's placement hash of a body: the canonical content
/// hash, or for a batch every job's canonical bytes folded together.
fn placement(path: &str, body: &str) -> Result<u64, String> {
    if path.ends_with("/batch") {
        let doc = json::parse(body).map_err(|e| e.to_string())?;
        let mut folded = String::new();
        for job in doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]) {
            let wire = WireRequest::from_json(job).map_err(|e| e.to_string())?;
            folded.push_str(
                CanonicalRequest::from_wire(&wire)
                    .map_err(|e| e.to_string())?
                    .bytes(),
            );
            folded.push('\n');
        }
        Ok(fnv1a64(folded.as_bytes()))
    } else {
        let wire: WireRequest = json::from_str(body).map_err(|e| e.to_string())?;
        Ok(CanonicalRequest::from_wire(&wire)
            .map_err(|e| e.to_string())?
            .content_hash())
    }
}

struct Stages {
    metrics: Vec<Metric>,
    /// The replayed stages reproduce the engine's quantiles exactly.
    reconciled: bool,
}

fn continuous(input: &UncertainInput) -> Result<(Box<dyn Continuous>, &'static str), String> {
    let (dist, name): (Result<Box<dyn Continuous>, _>, _) = match *input {
        UncertainInput::Normal { mu, sigma } => {
            (Normal::new(mu, sigma).map(|d| Box::new(d) as _), "normal")
        }
        UncertainInput::Uniform { a, b } => {
            (Uniform::new(a, b).map(|d| Box::new(d) as _), "uniform")
        }
        UncertainInput::Exponential { rate } => (
            Exponential::new(rate).map(|d| Box::new(d) as _),
            "exponential",
        ),
        UncertainInput::Beta { alpha, beta } => {
            (Beta::new(alpha, beta).map(|d| Box::new(d) as _), "beta")
        }
        UncertainInput::Interval { .. } => return Err("interval input has no distribution".into()),
    };
    Ok((dist.map_err(|e| e.to_string())?, name))
}

fn pce_input(input: &UncertainInput) -> Result<PceInput, String> {
    Ok(match *input {
        UncertainInput::Normal { mu, sigma } => PceInput::Normal { mu, sigma },
        UncertainInput::Uniform { a, b } => PceInput::Uniform { a, b },
        UncertainInput::Exponential { rate } => PceInput::Exponential { rate },
        UncertainInput::Beta { alpha, beta } => PceInput::Beta { alpha, beta },
        UncertainInput::Interval { .. } => return Err("interval input has no germ".into()),
    })
}

/// Sums of (nanoseconds, units of work) per named stage.
#[derive(Default)]
struct Tally(BTreeMap<String, (u64, u64)>);

impl Tally {
    fn add(&mut self, name: impl Into<String>, ns: u64, units: u64) {
        let e = self.0.entry(name.into()).or_default();
        e.0 += ns;
        e.1 += units;
    }

    fn per_unit(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |&(ns, units)| ns as f64 / units.max(1) as f64)
    }
}

/// Replays the `serve-cold` cycle through every engine whole, and
/// through the stages of each chunked engine one at a time.
fn replay_engines(reference: &Reference, seed: u64, tracer: &mut Tracer) -> Result<Stages, String> {
    let registry = reference.registry();
    let mut tally = Tally::default();
    let mut reconciled = true;
    let mut stage_ns = 0u64;
    let mut whole_ns = 0u64;
    for i in 0..gen::COLD_CYCLE as u64 {
        let wire = gen::cold_job(seed, i);
        let model = registry.get(&wire.model).ok_or("unknown model")?;
        let request = wire.to_request(model).map_err(|e| e.to_string())?;
        let engine = wire.resolve_engine().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let report = tracer
            .time(i, None, "core.propagator.propagate", || {
                engine.propagate(&request)
            })
            .map_err(|e| e.to_string())?;
        let ns = t.elapsed().as_nanos() as u64;
        tally.add(format!("engine.{}", wire.engine), ns, 1);
        tally.add(
            format!("evals.{}", wire.engine),
            report.evaluations as u64,
            1,
        );
        let n = wire.budget;
        match wire.engine.as_str() {
            "monte-carlo" | "latin-hypercube" | "sobol-qmc" => {
                let (design, tag): (Box<dyn Design>, &str) = match wire.engine.as_str() {
                    "monte-carlo" => (Box::new(RandomDesign), "mc"),
                    "latin-hypercube" => (Box::new(LatinHypercubeDesign), "lhs"),
                    _ => (Box::new(SobolDesign::default()), "sobol"),
                };
                let dists: Vec<(Box<dyn Continuous>, &str)> = wire
                    .inputs
                    .iter()
                    .map(continuous)
                    .collect::<Result<_, _>>()?;
                let dim = dists.len();
                let root = tracer.begin(i, None, "stages");
                let mut rng = StdRng::seed_from_u64(wire.seed);
                let mut u = SoaMatrix::zeroed(dim, n);
                let t = Instant::now();
                tracer
                    .time(i, Some(root), "sampling.design.generate_into", || {
                        design.generate_into(n, dim, &mut rng, &mut u)
                    })
                    .map_err(|e| e.to_string())?;
                tally.add(
                    format!("design.{tag}"),
                    t.elapsed().as_nanos() as u64,
                    (n * dim) as u64,
                );
                let mut x = SoaMatrix::zeroed(dim, n);
                for (j, (dist, name)) in dists.iter().enumerate() {
                    let col = u.col_mut(j);
                    for v in col.iter_mut() {
                        *v = v.clamp(1e-15, 1.0 - 1e-15);
                    }
                    let t = Instant::now();
                    tracer.time(i, Some(root), "prob.dist.quantile_fill", || {
                        dist.quantile_fill(col, x.col_mut(j))
                    });
                    tally.add(
                        format!("dist.{name}"),
                        t.elapsed().as_nanos() as u64,
                        n as u64,
                    );
                }
                let mut outputs = vec![0.0; n];
                let t = Instant::now();
                tracer.time(i, Some(root), "model.eval_batch", || {
                    for (c, out) in outputs.chunks_mut(CHUNK_WIDTH).enumerate() {
                        let lo = c * CHUNK_WIDTH;
                        let cols = x.chunk(lo, lo + out.len());
                        model.eval_batch(&cols, out);
                    }
                });
                tally.add(
                    format!("model.{}", wire.model),
                    t.elapsed().as_nanos() as u64,
                    n as u64,
                );
                let t = Instant::now();
                let sorted = tracer
                    .time(i, Some(root), "prob.stats.sort", || {
                        SortedSample::from_slice(&outputs)
                    })
                    .map_err(|e| e.to_string())?;
                tally.add("sort", t.elapsed().as_nanos() as u64, n as u64);
                tracer.end(root);
                stage_ns +=
                    tracer.spans[root as usize].end_ns - tracer.spans[root as usize].start_ns;
                whole_ns += ns;
                for (p, iv) in &report.quantiles {
                    if sorted.interpolated(*p).to_bits() != iv.lo().to_bits() {
                        eprintln!("stage replay of job {i} disagrees with the engine at level {p}");
                        reconciled = false;
                    }
                }
                let refs: Vec<&dyn Continuous> = dists.iter().map(|(d, _)| d.as_ref()).collect();
                let mut rng = StdRng::seed_from_u64(wire.seed);
                let t = Instant::now();
                tracer
                    .time(i, None, "core.propagator.propagate_chunked", || {
                        propagate_chunked(
                            &refs,
                            design.as_ref(),
                            model,
                            n,
                            ChunkOptions::auto(n),
                            &mut rng,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                tally.add("chunked", t.elapsed().as_nanos() as u64, n as u64);
            }
            "pce-spectral" => {
                let inputs: Vec<PceInput> = wire
                    .inputs
                    .iter()
                    .map(pce_input)
                    .collect::<Result<_, _>>()?;
                let degree = SpectralEngine::default().degree;
                let t = Instant::now();
                let pce = tracer
                    .time(i, None, "pce.fit_projection", || {
                        ChaosExpansion::fit_projection(&inputs, degree, |x| model.eval(x))
                    })
                    .map_err(|e| e.to_string())?;
                tally.add("pce.fit", t.elapsed().as_nanos() as u64, 1);
                let points = n.max(1024);
                let mut rng = StdRng::seed_from_u64(wire.seed);
                let grid = LatinHypercubeDesign
                    .generate(points, inputs.len(), &mut rng)
                    .map_err(|e| e.to_string())?;
                let t = Instant::now();
                let sum: f64 = tracer.time(i, None, "pce.eval_u", || {
                    grid.iter().map(|u| pce.eval_u(u)).sum()
                });
                tally.add("pce.eval_u", t.elapsed().as_nanos() as u64, points as u64);
                std::hint::black_box(sum);
            }
            _ => {
                let cells = EvidentialEngine::default().cells;
                let ds: Vec<DsStructure> = wire
                    .inputs
                    .iter()
                    .map(|input| match *input {
                        UncertainInput::Interval { lo, hi } => Interval::new(lo, hi)
                            .map(DsStructure::from_interval)
                            .map_err(|e| e.to_string()),
                        other => {
                            let (dist, _) = continuous(&other)?;
                            DsStructure::from_distribution(dist.as_ref(), cells)
                                .map_err(|e| e.to_string())
                        }
                    })
                    .collect::<Result<_, _>>()?;
                let t = Instant::now();
                tracer
                    .time(i, None, "evidence.propagate_model", || {
                        propagate_model(&ds, |x| model.eval(x), n)
                    })
                    .map_err(|e| e.to_string())?;
                tally.add("evidence", t.elapsed().as_nanos() as u64, 1);
            }
        }
    }
    eprintln!(
        "engine stages: design + quantile + eval_batch + sort = {:.1} ms against {:.1} ms of whole \
         propagate on the same jobs (budgets from 4096 run their chunks on several threads)",
        stage_ns as f64 / 1e6,
        whole_ns as f64 / 1e6
    );
    let mut metrics = Vec::new();
    for engine in sysunc::ENGINE_NAMES {
        metrics.push(metric(
            format!("core.propagator.{engine}.us_per_job"),
            tally.per_unit(&format!("engine.{engine}")) / 1e3,
            "us",
        ));
        metrics.push(metric(
            format!("core.propagator.{engine}.evals_per_job"),
            tally.per_unit(&format!("evals.{engine}")),
            "count",
        ));
    }
    // Nanoseconds per sample read as microseconds per thousand samples.
    metrics.push(metric(
        "core.propagator.chunked_us_per_ksample",
        tally.per_unit("chunked"),
        "us",
    ));
    for design in ["mc", "lhs", "sobol"] {
        metrics.push(metric(
            format!("sampling.design.{design}.ns_per_value"),
            tally.per_unit(&format!("design.{design}")),
            "ns",
        ));
    }
    for dist in ["normal", "uniform", "exponential", "beta"] {
        metrics.push(metric(
            format!("prob.dist.{dist}.quantile_ns"),
            tally.per_unit(&format!("dist.{dist}")),
            "ns",
        ));
    }
    for (model, name) in [
        ("sum", "core.wire.sum"),
        ("orbital-period", "orbital.period"),
        ("missed-hazard", "perception.missed_hazard"),
    ] {
        metrics.push(metric(
            format!("{name}.eval_batch_ns"),
            tally.per_unit(&format!("model.{model}")),
            "ns",
        ));
    }
    metrics.push(metric(
        "prob.stats.sort_ns_per_sample",
        tally.per_unit("sort"),
        "ns",
    ));
    metrics.push(metric("pce.fit_us", tally.per_unit("pce.fit") / 1e3, "us"));
    metrics.push(metric("pce.eval_u_ns", tally.per_unit("pce.eval_u"), "ns"));
    metrics.push(metric(
        "evidence.propagate_model_us",
        tally.per_unit("evidence") / 1e3,
        "us",
    ));
    Ok(Stages {
        metrics,
        reconciled,
    })
}

/// Writes every span to `.bench_trace/<workload>-seed<seed>.tsv` under
/// the working directory and returns the path.
fn write_spans(
    args: &Args,
    tracers: &[(&str, &Tracer)],
    clients: &[Tracer],
) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "log\treq\tspan\tparent\tlayer\tstart_ns\tend_ns").map_err(io)?;
    for (name, tracer) in tracers {
        tracer.write_to(name, &mut out).map_err(io)?;
    }
    for (c, tracer) in clients.iter().enumerate() {
        tracer
            .write_to(&format!("client{c}"), &mut out)
            .map_err(io)?;
    }
    out.flush().map_err(io)?;
    Ok(path.display().to_string())
}
