//! The four workloads: what each sends, how it warms up, and how its
//! answers are checked.

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;
use sysunc::prob::json;
use sysunc::WireRequest;
use sysunc_fleet::FleetConfig;
use sysunc_serve::{HttpClient, ServerConfig};

use crate::check::{Digest, Reference};
use crate::drive::{Op, RunResult};
use crate::gen::{self, SplitMix, Zipf};
use crate::target::Kind;

const PROPAGATE: &str = "/v1/propagate";
const BATCH: &str = "/v1/propagate/batch";

/// Every `COLD_SAMPLE`-th cold answer is recomputed in process after
/// the run (recomputing all would take as long as the run itself).
const COLD_SAMPLE: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeHot,
    BatchZipf,
    FleetHot,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::BatchZipf,
        Workload::FleetHot,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
            Workload::BatchZipf => "batch-zipf",
            Workload::FleetHot => "fleet-hot",
        }
    }

    pub fn kind(self) -> Kind {
        match self {
            Workload::FleetHot => Kind::Fleet,
            _ => Kind::Serve,
        }
    }

    /// The latency limit of `goodput_jobs_per_s`, per HTTP request (per
    /// batch on `batch-zipf`). Each sits well above the workload's p99
    /// on an idle 2-vCPU host, so goodput falls only when the program
    /// stalls or fails.
    pub fn limit(self) -> Duration {
        Duration::from_millis(match self {
            Workload::ServeCold => 500,
            Workload::ServeHot => 20,
            Workload::BatchZipf => 250,
            Workload::FleetHot => 50,
        })
    }
}

/// A workload's prepared traffic.
pub enum Traffic {
    Cold { seed: u64 },
    Hot(Hot),
    Batch(Batch),
}

/// A set of distinct canonical requests, each in every JSON spelling,
/// with the digest of the first (cold) answer to each.
pub struct Hot {
    seed: u64,
    pub wires: Vec<WireRequest>,
    /// `bodies[k * SPELLINGS + v]`: spelling `v` of request `k`.
    bodies: Vec<String>,
    want: Vec<Digest>,
}

/// The Zipf-popular batch universe.
pub struct Batch {
    seed: u64,
    pub universe: Vec<WireRequest>,
    encoded: Vec<std::sync::Arc<str>>,
    zipf: Zipf,
}

impl Batch {
    pub fn ranks(&self, i: u64) -> Vec<usize> {
        gen::zipf_batch(self.seed, i, &self.zipf)
    }

    pub fn body(&self, ranks: &[usize]) -> String {
        gen::batch_body(&self.encoded, ranks)
    }
}

impl Traffic {
    /// Builds the workload's traffic. Hot sets are sent once, cold, to
    /// `addr`, and each first answer must equal the in-process report.
    pub fn prepare(
        workload: Workload,
        seed: u64,
        reference: &Reference,
        addr: SocketAddr,
    ) -> Result<Self, String> {
        match workload {
            Workload::ServeCold => Ok(Traffic::Cold { seed }),
            Workload::ServeHot => {
                Hot::warm(seed, 256, &[128, 256, 512], reference, addr).map(Traffic::Hot)
            }
            Workload::FleetHot => {
                // 1.5x one child's cache and within the fleet's total:
                // content-hash placement promises every answer from cache.
                let n = FleetConfig::default().child_cache_capacity * 3 / 2;
                Hot::warm(seed, n, &[128, 256, 512], reference, addr).map(Traffic::Hot)
            }
            Workload::BatchZipf => {
                let universe = gen::zipf_universe(seed);
                debug_assert_eq!(universe.len(), 4 * ServerConfig::default().cache_capacity);
                let encoded = universe.iter().map(|w| json::to_string(w).into()).collect();
                Ok(Traffic::Batch(Batch {
                    seed,
                    universe,
                    encoded,
                    zipf: Zipf::new(gen::ZIPF_UNIVERSE),
                }))
            }
        }
    }

    /// Checks every recorded answer against the in-process reference and
    /// takes failures back out of the run's counts.
    pub fn verify(&self, run: &mut RunResult, reference: &Reference) -> Result<usize, String> {
        let records = std::mem::take(&mut run.records);
        let mut memo: HashMap<usize, String> = HashMap::new();
        for record in &records {
            let want = match self {
                Traffic::Cold { seed } => {
                    Digest::of(reference.body(&gen::cold_job(*seed, record.i))?.as_bytes())
                }
                Traffic::Batch(batch) => {
                    let ranks = batch.ranks(record.i);
                    for &r in &ranks {
                        if let std::collections::hash_map::Entry::Vacant(slot) = memo.entry(r) {
                            slot.insert(reference.body(&batch.universe[r])?);
                        }
                    }
                    let parts: Vec<&str> = ranks.iter().map(|r| memo[r].as_str()).collect();
                    Digest::of(Reference::batch_body(&parts).as_bytes())
                }
                Traffic::Hot(_) => continue,
            };
            if record.got != want {
                eprintln!(
                    "operation {} answered a body that differs from the reference",
                    record.i
                );
                run.reject(record);
            }
        }
        Ok(records.len())
    }
}

impl Hot {
    fn warm(
        seed: u64,
        n: usize,
        budgets: &[usize],
        reference: &Reference,
        addr: SocketAddr,
    ) -> Result<Self, String> {
        let wires = gen::hot_set(seed, n, budgets);
        let bodies = wires
            .iter()
            .flat_map(|w| (0..gen::SPELLINGS).map(move |v| gen::spell(w, v)))
            .collect();
        let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut want = Vec::with_capacity(n);
        for wire in &wires {
            let response = client
                .request("POST", PROPAGATE, Some(&json::to_string(wire)))
                .map_err(|e| format!("warm-up request: {e}"))?;
            let expected = reference.body(wire)?;
            if response.status != 200 || response.body != expected.as_bytes() {
                return Err(format!(
                    "first answer to a hot request differs from the in-process report: {} {}",
                    response.status,
                    response.body_text()
                ));
            }
            want.push(Digest::of(&response.body));
        }
        Ok(Self {
            seed,
            wires,
            bodies,
            want,
        })
    }
}

impl Traffic {
    /// Operation `i` of the workload's stream.
    pub fn op(&self, i: u64) -> Op<'_> {
        match self {
            Traffic::Cold { seed } => {
                let wire = gen::cold_job(*seed, i);
                Op {
                    path: PROPAGATE,
                    body: Cow::Owned(json::to_string(&wire)),
                    jobs: 1,
                    samples: wire.budget as u64,
                    expect: None,
                    record: i.is_multiple_of(COLD_SAMPLE),
                }
            }
            Traffic::Hot(hot) => {
                let pick = SplitMix::for_item(hot.seed ^ 0x407D, i).below(hot.bodies.len());
                let k = pick / gen::SPELLINGS;
                Op {
                    path: PROPAGATE,
                    body: Cow::Borrowed(&hot.bodies[pick]),
                    jobs: 1,
                    samples: hot.wires[k].budget as u64,
                    expect: Some(hot.want[k]),
                    record: false,
                }
            }
            Traffic::Batch(batch) => {
                let ranks = batch.ranks(i);
                Op {
                    path: BATCH,
                    samples: ranks.iter().map(|&r| batch.universe[r].budget as u64).sum(),
                    body: Cow::Owned(batch.body(&ranks)),
                    jobs: ranks.len() as u64,
                    expect: None,
                    record: true,
                }
            }
        }
    }
}
