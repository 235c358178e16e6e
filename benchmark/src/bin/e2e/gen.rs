//! Seeded generation of every workload's traffic. The program under test
//! only ever sees the request bodies built here; the same `--seed`
//! always yields the same bodies.

use std::sync::Arc;
use sysunc::prob::json;
use sysunc::{UncertainInput, WireRequest, ENGINE_NAMES};

/// The models every served workload exercises.
pub const MODELS: [&str; 3] = ["sum", "orbital-period", "missed-hazard"];

/// SplitMix64: a tiny, fully specified generator, so the streams do
/// not depend on the program's own RNG implementation.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The generator for item `i` of a stream seeded with `seed`.
    pub fn for_item(seed: u64, i: u64) -> Self {
        let mut outer = Self(seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Self(outer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to four decimals so bodies stay
    /// short and every float has an exact shortest spelling.
    pub fn param(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 1e4).round() / 1e4
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Input declarations for one (engine, model) pair. Every declaration
/// keeps the model inside its domain (positive masses and distances,
/// probabilities in `[0, 1]`), so no job of any workload fails.
/// Sampling and spectral engines get Normal, Uniform and Exponential
/// inputs, plus one Beta input on `missed-hazard` (its quantile is an
/// iterative inversion, about 15x the cost of the others per sample);
/// the evidential engine gets an Interval input first.
pub fn inputs(engine: &str, model: &str, rng: &mut SplitMix) -> Vec<UncertainInput> {
    let evidential = engine == "evidential";
    let normal = |rng: &mut SplitMix, mu: (f64, f64), sigma: (f64, f64)| UncertainInput::Normal {
        mu: rng.param(mu.0, mu.1),
        sigma: rng.param(sigma.0, sigma.1),
    };
    let uniform = |rng: &mut SplitMix, a: (f64, f64), w: (f64, f64)| {
        let a = rng.param(a.0, a.1);
        UncertainInput::Uniform {
            a,
            b: a + rng.param(w.0, w.1),
        }
    };
    let interval = |rng: &mut SplitMix, lo: (f64, f64), w: (f64, f64)| {
        let lo = rng.param(lo.0, lo.1);
        UncertainInput::Interval {
            lo,
            hi: lo + rng.param(w.0, w.1),
        }
    };
    let beta = |rng: &mut SplitMix, a: (f64, f64), b: (f64, f64)| UncertainInput::Beta {
        alpha: rng.param(a.0, a.1),
        beta: rng.param(b.0, b.1),
    };
    match (model, evidential) {
        ("orbital-period", false) => vec![
            normal(rng, (5.0, 10.0), (0.1, 0.5)),
            UncertainInput::Exponential {
                rate: rng.param(0.5, 2.0),
            },
            uniform(rng, (1.0, 2.0), (0.5, 1.5)),
        ],
        ("orbital-period", true) => vec![
            interval(rng, (5.0, 8.0), (0.5, 2.0)),
            normal(rng, (2.0, 4.0), (0.05, 0.2)),
            uniform(rng, (1.0, 2.0), (0.5, 1.5)),
        ],
        ("missed-hazard", false) => {
            vec![
                beta(rng, (1.5, 4.0), (5.0, 20.0)),
                uniform(rng, (0.01, 0.05), (0.01, 0.05)),
            ]
        }
        ("missed-hazard", true) => {
            vec![
                interval(rng, (0.01, 0.05), (0.01, 0.05)),
                beta(rng, (1.5, 4.0), (5.0, 20.0)),
            ]
        }
        (_, true) => vec![
            interval(rng, (-1.0, 0.0), (0.5, 2.0)),
            normal(rng, (-1.0, 1.0), (0.5, 2.0)),
            uniform(rng, (0.0, 1.0), (0.5, 2.0)),
        ],
        (_, false) => vec![
            normal(rng, (-1.0, 1.0), (0.5, 2.0)),
            uniform(rng, (0.0, 1.0), (0.5, 2.0)),
            UncertainInput::Exponential {
                rate: rng.param(0.5, 2.0),
            },
        ],
    }
}

/// One job: `engine` on `model` at `budget`, inputs and engine seed
/// drawn from `rng`.
pub fn job(engine: &str, model: &str, budget: usize, rng: &mut SplitMix) -> WireRequest {
    let mut wire = WireRequest::new(engine, model, inputs(engine, model, rng));
    wire.budget = budget;
    wire.seed = rng.next_u64() >> 11;
    wire
}

/// The (engine, model) pair of entry `k` of a cycle over every engine
/// and every model.
pub fn pair(k: usize) -> (&'static str, &'static str) {
    let combo = k % (ENGINE_NAMES.len() * MODELS.len());
    (
        ENGINE_NAMES[combo / MODELS.len()],
        MODELS[combo % MODELS.len()],
    )
}

/// Budgets of the `serve-cold` cycle: they straddle the 4096-sample
/// threshold above which one request runs its chunks on several threads.
pub const COLD_BUDGETS: [usize; 4] = [2048, 4096, 8192, 16384];

/// Length of the `serve-cold` cycle: every engine × model × budget.
pub const COLD_CYCLE: usize = 5 * 3 * COLD_BUDGETS.len();

/// Request `i` of the `serve-cold` stream: entry `i % COLD_CYCLE` of the
/// fixed cycle, with inputs and engine seed drawn per request, so no two
/// requests share a canonical form.
pub fn cold_job(seed: u64, i: u64) -> WireRequest {
    let entry = (i % COLD_CYCLE as u64) as usize;
    let (engine, model) = pair(entry);
    let budget = COLD_BUDGETS[entry / 15 % COLD_BUDGETS.len()];
    job(engine, model, budget, &mut SplitMix::for_item(seed, i))
}

/// `n` distinct canonical requests over every engine and model, at
/// small budgets (the hot workloads are served from cache, so budget
/// only sets the warm-up cost).
pub fn hot_set(seed: u64, n: usize, budgets: &[usize]) -> Vec<WireRequest> {
    (0..n)
        .map(|k| {
            let (engine, model) = pair(k);
            let budget = budgets[k / 15 % budgets.len()];
            job(
                engine,
                model,
                budget,
                &mut SplitMix::for_item(seed ^ 0x407, k as u64),
            )
        })
        .collect()
}

/// Number of JSON spellings [`spell`] knows.
pub const SPELLINGS: usize = 4;

/// One of several JSON spellings of the same request: 0 is the client's
/// own encoding, 1 reverses every member order and adds whitespace, 2
/// writes every float in exponent form, 3 omits the members that hold
/// their default value. All decode to the same canonical request.
pub fn spell(wire: &WireRequest, variant: usize) -> String {
    let float = |x: f64| {
        if variant == 2 {
            format!("{x:e}")
        } else {
            format!("{x:?}")
        }
    };
    let floats = |xs: &[f64]| xs.iter().map(|&x| float(x)).collect::<Vec<_>>().join(",");
    let input = |input: &UncertainInput| {
        let (dist, members): (&str, Vec<(&str, f64)>) = match *input {
            UncertainInput::Normal { mu, sigma } => ("normal", vec![("mu", mu), ("sigma", sigma)]),
            UncertainInput::Uniform { a, b } => ("uniform", vec![("a", a), ("b", b)]),
            UncertainInput::Exponential { rate } => ("exponential", vec![("rate", rate)]),
            UncertainInput::Beta { alpha, beta } => {
                ("beta", vec![("alpha", alpha), ("beta", beta)])
            }
            UncertainInput::Interval { lo, hi } => ("interval", vec![("lo", lo), ("hi", hi)]),
        };
        let mut parts = vec![format!("\"dist\":\"{dist}\"")];
        parts.extend(
            members
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", float(*v))),
        );
        if variant == 1 {
            parts.reverse();
            format!("{{ {} }}", parts.join(", "))
        } else {
            format!("{{{}}}", parts.join(","))
        }
    };
    if variant == 0 {
        return json::to_string(wire);
    }
    let defaults = WireRequest::new("", "", Vec::new());
    let inputs: Vec<String> = wire.inputs.iter().map(input).collect();
    let mut members = vec![
        format!("\"engine\":\"{}\"", wire.engine),
        format!("\"model\":\"{}\"", wire.model),
        format!("\"inputs\":[{}]", inputs.join(",")),
    ];
    let omit = variant == 3;
    if !(omit && wire.budget == defaults.budget) {
        members.push(format!("\"budget\":{}", wire.budget));
    }
    if !(omit && wire.seed == defaults.seed) {
        members.push(format!("\"seed\":{}", wire.seed));
    }
    if !(omit && wire.quantile_levels == defaults.quantile_levels) {
        members.push(format!(
            "\"quantile_levels\":[{}]",
            floats(&wire.quantile_levels)
        ));
    }
    match wire.threshold {
        Some(t) => members.push(format!("\"threshold\":{}", float(t))),
        None if !omit => members.push("\"threshold\":null".into()),
        None => {}
    }
    if variant == 1 {
        members.reverse();
        format!("{{ {} }}", members.join(", "))
    } else {
        format!("{{{}}}", members.join(","))
    }
}

/// Zipf(s = 1) sampler over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn draw(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Universe size of `batch-zipf`: four times the default response-cache
/// capacity.
pub const ZIPF_UNIVERSE: usize = 4096;

/// Jobs per `batch-zipf` batch.
pub const BATCH_JOBS: usize = 32;

/// The `batch-zipf` universe: small-budget jobs on the three sampling
/// engines and the evidential engine, over `sum` and `orbital-period`,
/// listed in popularity order (rank 0 is the most popular). Engine,
/// model and budget follow the rank, so every seed puts the same mix at
/// the head of the distribution and only inputs and engine seeds vary.
pub fn zipf_universe(seed: u64) -> Vec<WireRequest> {
    const ENGINES: [&str; 4] = ["monte-carlo", "latin-hypercube", "sobol-qmc", "evidential"];
    const BUDGETS: [usize; 3] = [1024, 2048, 4096];
    (0..ZIPF_UNIVERSE)
        .map(|r| {
            let engine = ENGINES[r % 4];
            let model = MODELS[r / 4 % 2];
            let budget = BUDGETS[r / 8 % 3];
            job(
                engine,
                model,
                budget,
                &mut SplitMix::for_item(seed ^ 0x21BF, r as u64),
            )
        })
        .collect()
}

/// The universe ranks of batch `i`.
pub fn zipf_batch(seed: u64, i: u64, zipf: &Zipf) -> Vec<usize> {
    let mut rng = SplitMix::for_item(seed ^ 0xBA7C, i);
    (0..BATCH_JOBS).map(|_| zipf.draw(&mut rng)).collect()
}

/// A batch body from pre-encoded jobs, exactly as `HttpClient` builds it.
pub fn batch_body(encoded: &[Arc<str>], ranks: &[usize]) -> String {
    let parts: Vec<&str> = ranks.iter().map(|&r| &*encoded[r]).collect();
    format!("{{\"jobs\":[{}]}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc::CanonicalRequest;

    #[test]
    fn every_spelling_canonicalizes_to_the_same_request() {
        for wire in hot_set(7, 30, &[1024, 4096]) {
            let first = CanonicalRequest::from_wire(&wire).expect("canonical");
            for v in 0..SPELLINGS {
                let body = spell(&wire, v);
                let back: WireRequest = json::from_str(&body).expect("decodes");
                let canonical = CanonicalRequest::from_wire(&back).expect("canonical");
                assert_eq!(canonical, first, "spelling {v}: {body}");
            }
        }
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(cold_job(3, 17), cold_job(3, 17));
        assert_ne!(cold_job(3, 17), cold_job(4, 17));
        assert_ne!(
            cold_job(3, 17).seed,
            cold_job(3, 17 + COLD_CYCLE as u64).seed
        );
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(ZIPF_UNIVERSE);
        let mut rng = SplitMix::for_item(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.draw(&mut rng)).collect();
        let head = draws.iter().filter(|&&r| r < 1024).count();
        assert!(head > 7_500 && head < 9_000, "head share {head}");
        assert!(draws.iter().all(|&r| r < ZIPF_UNIVERSE));
    }
}
