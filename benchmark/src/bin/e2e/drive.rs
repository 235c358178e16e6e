//! The closed loop: two client threads, each on its own keep-alive
//! connection, each sending its next request only when the previous
//! answer is in — the way `HttpClient` callers use the service.

use std::borrow::Cow;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use sysunc_serve::HttpClient;

use crate::check::{judge, Digest, Outcome, Windows};
use crate::gen::SplitMix;
use crate::trace::Tracer;
use crate::workload::Traffic;

/// Client threads, one keep-alive connection each (one per core of the
/// 2-vCPU host the benchmark was tuned on).
pub const CLIENTS: usize = 2;

/// Equal sub-intervals a run is cut into.
pub const WINDOWS: usize = 10;

/// Windows a run's figures come from: the half in which the host stole
/// the least CPU time from this machine.
pub const KEPT: usize = WINDOWS / 2;

/// Latencies kept per client (uniform reservoir sample), so memory does
/// not grow with throughput and `peak_rss_mib` stays comparable.
const RESERVOIR: usize = 1 << 16;

/// Digests kept per client for verification after the run.
const RECORD_CAP: usize = 8192;

/// One operation of a stream: a request body and what it is worth.
pub struct Op<'a> {
    pub path: &'static str,
    pub body: Cow<'a, str>,
    /// Jobs the operation carries (32 for a batch, else 1).
    pub jobs: u64,
    /// Requested budget samples across those jobs.
    pub samples: u64,
    /// The digest the body must have, when known before sending.
    pub expect: Option<Digest>,
    /// Keep the digest for verification after the run.
    pub record: bool,
}

/// A served answer kept for verification after the run.
#[derive(Debug, Clone)]
pub struct Record {
    pub i: u64,
    pub got: Digest,
    pub window: Option<usize>,
    pub jobs: u64,
    pub samples: u64,
    pub good: bool,
}

/// Everything one closed-loop run measured.
#[derive(Default)]
pub struct RunResult {
    pub windows: Windows,
    pub seconds: f64,
    /// Latency sample: nanoseconds and the window the operation finished
    /// in (`None` after the measured interval), uniform over operations.
    pub latencies: Vec<(u64, Option<usize>)>,
    /// Operations whose latency was observed.
    pub latency_count: u64,
    pub ops: u64,
    pub jobs_attempted: u64,
    pub jobs_failed: u64,
    pub mismatches: u64,
    pub records: Vec<Record>,
    pub tracers: Vec<Tracer>,
    /// Share of host CPU time stolen by the hypervisor during the run
    /// (a diagnostic: it tells a noisy host from a noisy program).
    pub steal: f64,
    /// The same share per window.
    pub window_steal: Vec<f64>,
}

impl RunResult {
    /// Which windows the figures come from: the [`KEPT`] windows with
    /// the least host steal, ties broken by position. While the
    /// hypervisor runs other guests on this machine's CPUs, every layer
    /// slows at once; those windows measure the host, not the program.
    pub fn kept(&self) -> Vec<bool> {
        let steal = |w: usize| self.window_steal.get(w).copied().unwrap_or(0.0);
        let mut order: Vec<usize> = (0..WINDOWS).collect();
        order.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)).then(a.cmp(&b)));
        let mut keep = vec![false; WINDOWS];
        for &w in order.iter().take(KEPT) {
            keep[w] = true;
        }
        keep
    }

    /// Per-second rate of per-window `counts` over the kept windows.
    pub fn rate(&self, counts: &[u64]) -> f64 {
        let window_s = self.seconds / WINDOWS as f64;
        let kept = self.kept();
        let total: u64 = counts
            .iter()
            .zip(&kept)
            .filter(|(_, &k)| k)
            .map(|(c, _)| c)
            .sum();
        total as f64 / (KEPT as f64 * window_s)
    }

    /// Sorted latencies (ns) of operations that finished in kept windows.
    pub fn kept_latencies(&self) -> Vec<u64> {
        let kept = self.kept();
        let mut v: Vec<u64> = self
            .latencies
            .iter()
            .filter(|(_, w)| w.is_some_and(|w| kept.get(w).copied().unwrap_or(false)))
            .map(|&(ns, _)| ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Marks a recorded operation that failed verification.
    pub fn reject(&mut self, record: &Record) {
        self.windows
            .unbook(record.window, record.jobs, record.samples, record.good);
        self.jobs_failed += record.jobs;
        self.mismatches += 1;
    }
}

struct Reservoir {
    kept: Vec<(u64, Option<usize>)>,
    seen: u64,
    rng: SplitMix,
}

impl Reservoir {
    fn push(&mut self, v: (u64, Option<usize>)) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(v);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.kept.get_mut(j as usize) {
                *slot = v;
            }
        }
    }
}

/// Settings of one run.
pub struct Loop<'a> {
    pub addr: SocketAddr,
    pub traffic: &'a Traffic,
    /// Operation index the run starts at; returned advanced.
    pub next: &'a AtomicU64,
    pub seconds: f64,
    /// Latency limit for goodput.
    pub limit: Duration,
    pub seed: u64,
    /// Record spans (the traced run).
    pub trace: bool,
}

/// Runs the closed loop for `seconds` and returns what it measured.
pub fn run(cfg: &Loop<'_>) -> Result<RunResult, String> {
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(connect(cfg.addr)?);
    }
    let t0 = Instant::now();
    let window_ns = (cfg.seconds * 1e9 / WINDOWS as f64) as u128;
    let end = t0 + Duration::from_secs_f64(cfg.seconds);
    let mut steal = Vec::with_capacity(WINDOWS);
    let parts: Vec<Result<RunResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || client_loop(cfg, client, c as u64, t0, end, window_ns))
            })
            .collect();
        // Host steal per window, read at each window boundary.
        let mut marks = vec![crate::sys::cpu_jiffies()];
        for w in 1..=WINDOWS {
            let at = t0 + Duration::from_nanos((window_ns * w as u128) as u64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            marks.push(crate::sys::cpu_jiffies());
        }
        steal.extend(
            marks
                .windows(2)
                .map(|m| crate::sys::steal_share(m[0], m[1])),
        );
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = RunResult {
        windows: Windows::new(WINDOWS),
        seconds: cfg.seconds,
        ..Default::default()
    };
    for part in parts {
        let part = part?;
        total.windows.merge(&part.windows);
        total.latencies.extend(part.latencies);
        total.latency_count += part.latency_count;
        total.ops += part.ops;
        total.jobs_attempted += part.jobs_attempted;
        total.jobs_failed += part.jobs_failed;
        total.mismatches += part.mismatches;
        total.records.extend(part.records);
        total.tracers.extend(part.tracers);
    }
    total.records.sort_by_key(|r| r.i);
    total.steal = steal.iter().sum::<f64>() / steal.len().max(1) as f64;
    total.window_steal = steal;
    Ok(total)
}

fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    HttpClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

fn client_loop(
    cfg: &Loop<'_>,
    mut client: HttpClient,
    c: u64,
    t0: Instant,
    end: Instant,
    window_ns: u128,
) -> Result<RunResult, String> {
    let mut out = RunResult {
        windows: Windows::new(WINDOWS),
        ..Default::default()
    };
    let mut lat = Reservoir {
        kept: Vec::with_capacity(RESERVOIR),
        seen: 0,
        rng: SplitMix::for_item(cfg.seed ^ 0x1A7, c),
    };
    let mut tracer = cfg.trace.then(|| Tracer::new(t0));
    while Instant::now() < end {
        let i = cfg.next.fetch_add(1, Ordering::Relaxed);
        let root = begin(&mut tracer, i, None, "client.request");
        let started = Instant::now();
        let encode = begin(&mut tracer, i, root, "client.encode");
        let op = cfg.traffic.op(i);
        finish(&mut tracer, encode);
        let sent = Instant::now();
        let trip = begin(&mut tracer, i, root, "client.roundtrip");
        let response = client.request("POST", op.path, Some(&op.body));
        let done = Instant::now();
        finish(&mut tracer, trip);
        let check = begin(&mut tracer, i, root, "client.check");
        let (status, got) = match &response {
            Ok(r) => (Some(r.status), Some(Digest::of(&r.body))),
            Err(_) => (None, None),
        };
        let outcome = judge(status, got, op.expect);
        finish(&mut tracer, check);
        let finished = Instant::now();
        finish(&mut tracer, root);
        // The traced run reports the whole traced operation; the
        // untraced run reports the HTTP round trip alone.
        let latency = if cfg.trace {
            finished - started
        } else {
            done - sent
        };
        let window = if done < end {
            Some((done.duration_since(t0).as_nanos() / window_ns.max(1)) as usize)
        } else {
            None
        };
        lat.push((latency.as_nanos() as u64, window));
        let good = latency <= cfg.limit;
        out.windows.book(window, outcome, op.jobs, op.samples, good);
        out.ops += 1;
        out.jobs_attempted += op.jobs;
        match outcome {
            Outcome::Ok => {
                if let (true, Some(got)) = (op.record, got) {
                    if out.records.len() < RECORD_CAP {
                        out.records.push(Record {
                            i,
                            got,
                            window,
                            jobs: op.jobs,
                            samples: op.samples,
                            good,
                        });
                    }
                }
            }
            Outcome::Mismatch => {
                out.mismatches += 1;
                out.jobs_failed += op.jobs;
            }
            Outcome::Failed => {
                out.jobs_failed += op.jobs;
                if let Ok(r) = &response {
                    eprintln!("request {i} failed with {}: {}", r.status, r.body_text());
                }
            }
        }
        if response.is_err() {
            // The connection state is unknown after a transport error.
            client = connect(cfg.addr)?;
        }
    }
    out.latency_count = lat.seen;
    out.latencies = lat.kept;
    out.tracers.extend(tracer);
    Ok(out)
}

/// Opens a span when the run is traced.
fn begin(
    tracer: &mut Option<Tracer>,
    req: u64,
    parent: Option<u32>,
    layer: &'static str,
) -> Option<u32> {
    tracer.as_mut().map(|t| t.begin(req, parent, layer))
}

fn finish(tracer: &mut Option<Tracer>, span: Option<u32>) {
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        t.end(id);
    }
}

/// The `q`-quantile (nearest rank) of a sample, in the sample's unit.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of a float sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn figures_come_from_the_least_stolen_half_of_the_windows() {
        let mut run = RunResult {
            seconds: WINDOWS as f64,
            ..RunResult::default()
        };
        run.window_steal = (0..WINDOWS)
            .map(|w| if w % 2 == 0 { 0.2 } else { 0.01 })
            .collect();
        run.window_steal[3] = 0.0;
        let kept = run.kept();
        assert_eq!(kept.iter().filter(|&&k| k).count(), KEPT);
        assert!((0..WINDOWS).all(|w| kept[w] == (w % 2 == 1)), "{kept:?}");
        let counts: Vec<u64> = (0..WINDOWS as u64)
            .map(|w| if w % 2 == 1 { 100 } else { 10 })
            .collect();
        assert_eq!(run.rate(&counts), 100.0);
        run.latencies = vec![(5, Some(1)), (7, Some(0)), (3, Some(3)), (9, None)];
        assert_eq!(run.kept_latencies(), vec![3, 5]);
    }
}
