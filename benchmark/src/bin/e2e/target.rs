//! The system under test, started exactly as a user would start it:
//! `Server::start` with the default `ServerConfig`, or `Fleet::start`
//! with the default `FleetConfig` (both bind an ephemeral port by
//! default, so nothing is tuned).

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use sysunc::{ModelRegistry, UncertainInput, WireRequest};
use sysunc_fleet::{Fleet, FleetConfig, FleetHandle};
use sysunc_serve::{HttpClient, Server, ServerConfig, ServerHandle};

use crate::check::{judge, Digest, Outcome, Reference};

/// A running server or fleet.
pub enum Target {
    Serve(ServerHandle),
    Fleet(FleetHandle),
}

impl Target {
    pub fn addr(&self) -> SocketAddr {
        match self {
            Target::Serve(s) => s.addr(),
            Target::Fleet(f) => f.addr(),
        }
    }

    pub fn shutdown(self) {
        match self {
            Target::Serve(s) => s.shutdown(),
            Target::Fleet(f) => f.shutdown(),
        }
    }
}

/// Which kind of target a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Serve,
    Fleet,
}

/// The fixed small cold request that ends every cold start.
pub struct Probe {
    body: String,
    want: Digest,
}

impl Probe {
    pub fn new(reference: &Reference) -> Result<Self, String> {
        let mut wire = WireRequest::new(
            "monte-carlo",
            "sum",
            vec![
                UncertainInput::Normal {
                    mu: 0.0,
                    sigma: 1.0,
                },
                UncertainInput::Uniform { a: 0.0, b: 1.0 },
            ],
        );
        wire.budget = 1024;
        wire.seed = 1;
        let want = Digest::of(reference.body(&wire)?.as_bytes());
        Ok(Self {
            body: sysunc::prob::json::to_string(&wire),
            want,
        })
    }
}

/// Where one cold start spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Nothing to the first correct answer.
    pub total: Duration,
    /// `ModelRegistry::standard()` (serve only).
    pub registry: Duration,
    /// `Server::start` (serve only).
    pub start: Duration,
    /// `Fleet::start` alone (fleet only): spawning the shard children.
    pub spawn: Duration,
}

/// Starts a target from nothing and waits for one correct answer.
pub fn cold_start(kind: Kind, probe: &Probe) -> Result<(Target, Setup), String> {
    let t0 = Instant::now();
    let mut setup = Setup::default();
    let target = match kind {
        Kind::Serve => {
            let registry = ModelRegistry::standard().map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let server = Server::start(ServerConfig::default(), registry)
                .map_err(|e| format!("server start: {e}"))?;
            setup.registry = t1 - t0;
            setup.start = t1.elapsed();
            Target::Serve(server)
        }
        Kind::Fleet => {
            let config = FleetConfig::default();
            let shards = config.shards;
            let fleet = Fleet::start(config).map_err(|e| format!("fleet start: {e}"))?;
            setup.spawn = t0.elapsed();
            if !fleet.await_healthy(shards, Duration::from_secs(10)) {
                return Err("fleet shards did not become healthy".into());
            }
            Target::Fleet(fleet)
        }
    };
    let mut client = HttpClient::connect(target.addr()).map_err(|e| format!("connect: {e}"))?;
    let response = client.request("POST", "/v1/propagate", Some(&probe.body));
    setup.total = t0.elapsed();
    drop(client);
    let (status, got) = match &response {
        Ok(r) => (Some(r.status), Some(Digest::of(&r.body))),
        Err(_) => (None, None),
    };
    if judge(status, got, Some(probe.want)) != Outcome::Ok {
        target.shutdown();
        return Err(format!(
            "first answer after a cold start was wrong: {response:?}"
        ));
    }
    Ok((target, setup))
}

/// Cold starts repeated `n` times; every target but the last is shut
/// down, and the last is returned to serve the workload.
pub fn cold_starts(kind: Kind, probe: &Probe, n: usize) -> Result<(Target, Vec<Setup>), String> {
    let mut setups = Vec::with_capacity(n);
    let mut live = None;
    for _ in 0..n.max(1) {
        if let Some(previous) = live.take() {
            Target::shutdown(previous);
        }
        let (target, setup) = cold_start(kind, probe)?;
        setups.push(setup);
        live = Some(target);
    }
    let target = live.ok_or("no cold start ran")?;
    Ok((target, setups))
}
