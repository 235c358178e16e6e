//! The correctness gate: served bodies against in-process reports, and
//! the accounting that turns every failure into a missed job.

use sysunc::prob::json;
use sysunc::{ModelRegistry, WireRequest};

/// Length plus FNV-1a/64 of a body. Two bodies of equal length that
/// differ in one byte always get different digests (each FNV step is a
/// bijection of the state), so comparing digests is byte equality for
/// the failure the gate exists to catch, without keeping every body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub fnv: u64,
}

impl Digest {
    pub fn of(bytes: &[u8]) -> Self {
        Self {
            len: bytes.len(),
            fnv: sysunc::fnv1a64(bytes),
        }
    }
}

/// The in-process side of the gate: what `Propagator::propagate` plus
/// `json::to_string` produce for a wire request.
pub struct Reference {
    registry: ModelRegistry,
}

impl Reference {
    pub fn new() -> Result<Self, String> {
        Ok(Self {
            registry: ModelRegistry::standard().map_err(|e| e.to_string())?,
        })
    }

    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The report body single-request serving must return for `wire`.
    pub fn body(&self, wire: &WireRequest) -> Result<String, String> {
        let model = self
            .registry
            .get(&wire.model)
            .ok_or_else(|| format!("unknown model '{}'", wire.model))?;
        let engine = wire.resolve_engine().map_err(|e| e.to_string())?;
        let request = wire.to_request(model).map_err(|e| e.to_string())?;
        let report = engine.propagate(&request).map_err(|e| e.to_string())?;
        Ok(json::to_string(&report))
    }

    /// The body a batch of single-request bodies must come back as.
    pub fn batch_body(parts: &[&str]) -> String {
        format!("[{}]", parts.join(","))
    }
}

/// What became of one operation (a request, or a batch of jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 200 and, where checked, byte-equal to the reference.
    Ok,
    /// 200 but the body differs from the reference.
    Mismatch,
    /// A 4xx/5xx status, a transport error or a client timeout.
    Failed,
}

/// Judges one served answer: `status` is `None` when no response came.
pub fn judge(status: Option<u16>, got: Option<Digest>, want: Option<Digest>) -> Outcome {
    match (status, got, want) {
        (Some(200), Some(got), Some(want)) if got != want => Outcome::Mismatch,
        (Some(200), Some(_), _) => Outcome::Ok,
        _ => Outcome::Failed,
    }
}

/// Per-window job counts of one closed-loop run.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    pub jobs: Vec<u64>,
    pub good: Vec<u64>,
    pub samples: Vec<u64>,
}

impl Windows {
    pub fn new(n: usize) -> Self {
        Self {
            jobs: vec![0; n],
            good: vec![0; n],
            samples: vec![0; n],
        }
    }

    /// Books one finished operation into window `w` (`None` when it
    /// finished after the measured interval). Only `Ok` jobs count as
    /// completed; only those that were also `good` (within the latency
    /// limit) count as goodput.
    pub fn book(
        &mut self,
        w: Option<usize>,
        outcome: Outcome,
        jobs: u64,
        samples: u64,
        good: bool,
    ) {
        let Some(w) = w.filter(|&w| w < self.jobs.len()) else {
            return;
        };
        if outcome == Outcome::Ok {
            self.jobs[w] += jobs;
            self.samples[w] += samples;
            if good {
                self.good[w] += jobs;
            }
        }
    }

    /// Takes back a booking whose later verification failed.
    pub fn unbook(&mut self, w: Option<usize>, jobs: u64, samples: u64, good: bool) {
        let Some(w) = w.filter(|&w| w < self.jobs.len()) else {
            return;
        };
        self.jobs[w] = self.jobs[w].saturating_sub(jobs);
        self.samples[w] = self.samples[w].saturating_sub(samples);
        if good {
            self.good[w] = self.good[w].saturating_sub(jobs);
        }
    }

    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in [
            (&mut self.jobs, &other.jobs),
            (&mut self.good, &other.good),
            (&mut self.samples, &other.samples),
        ] {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc::UncertainInput;

    fn wire() -> WireRequest {
        let mut w = WireRequest::new(
            "monte-carlo",
            "sum",
            vec![UncertainInput::Normal {
                mu: 0.0,
                sigma: 1.0,
            }],
        );
        w.budget = 1024;
        w
    }

    #[test]
    fn a_report_differing_by_one_byte_is_rejected() {
        let reference = Reference::new().expect("registry");
        let body = reference.body(&wire()).expect("runs");
        let want = Digest::of(body.as_bytes());
        assert_eq!(
            judge(Some(200), Some(Digest::of(body.as_bytes())), Some(want)),
            Outcome::Ok
        );
        for at in 0..body.len() {
            let mut bytes = body.clone().into_bytes();
            bytes[at] ^= 0x01;
            let got = Digest::of(&bytes);
            assert_eq!(
                judge(Some(200), Some(got), Some(want)),
                Outcome::Mismatch,
                "byte {at}"
            );
        }
        let longer = format!("{body} ");
        assert_eq!(
            judge(Some(200), Some(Digest::of(longer.as_bytes())), Some(want)),
            Outcome::Mismatch
        );
    }

    #[test]
    fn a_failed_request_counts_against_goodput_and_the_failed_count() {
        let mut windows = Windows::new(2);
        let mut failed = 0u64;
        for (status, w) in [(Some(200), 0), (Some(503), 0), (None, 1), (Some(200), 1)] {
            let got = status.map(|_| Digest::of(b"{}"));
            let outcome = judge(status, got, None);
            if outcome != Outcome::Ok {
                failed += 1;
            }
            windows.book(Some(w), outcome, 1, 100, true);
        }
        assert_eq!(failed, 2);
        assert_eq!(windows.jobs, vec![1, 1]);
        assert_eq!(windows.good, vec![1, 1], "failures are not goodput");
        assert_eq!(windows.samples, vec![100, 100]);
        // A late verification failure takes the job back out.
        windows.unbook(Some(1), 1, 100, true);
        assert_eq!(windows.good, vec![1, 0]);
    }

    #[test]
    fn a_slow_success_is_a_job_but_not_goodput() {
        let mut windows = Windows::new(1);
        windows.book(Some(0), Outcome::Ok, 32, 3200, false);
        assert_eq!((windows.jobs[0], windows.good[0]), (32, 0));
    }

    #[test]
    fn batch_reference_joins_single_bodies() {
        assert_eq!(
            Reference::batch_body(&["{\"a\":1}", "{}"]),
            "[{\"a\":1},{}]"
        );
    }
}
