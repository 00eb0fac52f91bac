//! Seeded inputs: the paper-scale QoS world, the observed triplet streams,
//! the held-out pairs, and the request bodies every workload sends.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed always yields byte-identical files and request streams.

use qos_dataset::{Attribute, DatasetConfig, QosDataset, QosSample};
use std::fmt::Write as _;

/// Users of the world (WS-DREAM dataset #1 scale).
pub const USERS: usize = 339;
/// Services of the world.
pub const SERVICES: usize = 5_825;
/// Share of the `(user, service)` matrix observed per time slice.
pub const DENSITY: f64 = 0.10;
/// Held-out pairs: never observed in any slice, scored for MRE and NPRE.
pub const HELD_OUT: usize = 4_000;
/// Pairs per `/v1/predict` request.
pub const PREDICT_PAIRS: usize = 8;
/// `k` of every `/v1/rank` request.
pub const RANK_K: usize = 5;
/// Zipf exponent of the users that query the plane.
const ZIPF_S: f64 = 1.0;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream.wrapping_add(0x51ED_270B))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// The SplitMix64 finaliser, also used as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sample seed of the trainer's streams. Training is deterministic, and
/// the trainer's convergence point varies from 1.0M to 4.0M replays
/// between samples of the same world, which would swamp `train_s`; a
/// fixed sample gives every run the same training work.
pub const TRAIN_SAMPLE: u64 = 0x7EA1_2014;
/// Seed of the held-out pairs, fixed so `offline-train`'s models are
/// always scored on pairs its fixed streams never contain.
const HELD_OUT_SEED: u64 = 0x4E1D_0047;

/// One world: the dense ground truth plus the held-out pairs.
///
/// The ground truth is the one fixed paper-scale matrix (the generator's
/// own seed), as the paper evaluates on one dataset, and the held-out
/// pairs are fixed too. The workload seed draws the serving slice's
/// observed sample and arrival order and every request.
pub struct World {
    seed: u64,
    dataset: QosDataset,
    held: Vec<bool>,
    /// Held-out `(user, service)` pairs in generation order.
    pub held_out: Vec<(usize, usize)>,
    zipf_cdf: Vec<f64>,
    zipf_users: Vec<usize>,
}

impl World {
    /// Builds the world of `seed` with `slices` time slices.
    /// `slices` does not change the values of the first slices.
    pub fn new(seed: u64, slices: usize) -> Self {
        let config = DatasetConfig {
            users: USERS,
            services: SERVICES,
            time_slices: slices,
            ..DatasetConfig::paper_scale()
        };
        let dataset = QosDataset::generate(&config);
        let mut rng = Rng::new(HELD_OUT_SEED, 1);
        let mut held = vec![false; USERS * SERVICES];
        let mut held_out = Vec::with_capacity(HELD_OUT);
        while held_out.len() < HELD_OUT {
            let (u, s) = (rng.below(USERS), rng.below(SERVICES));
            if !held[u * SERVICES + s] {
                held[u * SERVICES + s] = true;
                held_out.push((u, s));
            }
        }
        let mut weights: Vec<f64> = (1..=USERS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        let mut zipf_users: Vec<usize> = (0..USERS).collect();
        shuffle(&mut Rng::new(seed, 2), &mut zipf_users);
        Self {
            seed,
            dataset,
            held,
            held_out,
            zipf_cdf: weights,
            zipf_users,
        }
    }

    /// Ground-truth response time of a pair at `slice`.
    pub fn truth(&self, user: usize, service: usize, slice: usize) -> f64 {
        self.dataset
            .value(Attribute::ResponseTime, user, service, slice)
    }

    /// Whether a pair is held out (never observed).
    pub fn is_held_out(&self, user: usize, service: usize) -> bool {
        self.held[user * SERVICES + service]
    }

    /// The observed stream of one slice: about [`DENSITY`] of the pairs
    /// that are not held out, in a shuffled arrival order, with timestamps
    /// spread across the slice interval. `sample` seeds which pairs are
    /// observed and their order.
    pub fn observed_slice(&self, slice: usize, sample: u64) -> Vec<QosSample> {
        let salt = mix(sample ^ mix(0xD0 + slice as u64));
        let mut pairs = Vec::with_capacity((USERS * SERVICES) / 9);
        for u in 0..USERS {
            for s in 0..SERVICES {
                let key = (u * SERVICES + s) as u64;
                let h = (mix(salt ^ key) >> 11) as f64 / (1u64 << 53) as f64;
                if h < DENSITY && !self.is_held_out(u, s) {
                    pairs.push((u, s));
                }
            }
        }
        shuffle(&mut Rng::new(sample, 0x100 + slice as u64), &mut pairs);
        let start = self.dataset.slice_start_time(slice);
        let interval = self.dataset.config().slice_interval_secs;
        let n = pairs.len().max(1) as u64;
        pairs
            .iter()
            .enumerate()
            .map(|(k, &(u, s))| {
                QosSample::new(
                    start + (k as u64 * interval) / n,
                    u,
                    s,
                    self.truth(u, s, slice),
                )
            })
            .collect()
    }

    /// Observed slices `0..slices` of one sample, concatenated in time order.
    pub fn observed_stream(&self, slices: usize, sample: u64) -> Vec<QosSample> {
        (0..slices)
            .flat_map(|t| self.observed_slice(t, sample))
            .collect()
    }

    /// A Zipf-skewed querying user (a few users make most decisions).
    fn zipf_user(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        let rank = self.zipf_cdf.partition_point(|&c| c < x).min(USERS - 1);
        self.zipf_users[rank]
    }

    /// A uniformly drawn pair that is not held out.
    fn observable_pair(&self, rng: &mut Rng) -> (usize, usize) {
        loop {
            let (u, s) = (rng.below(USERS), rng.below(SERVICES));
            if !self.is_held_out(u, s) {
                return (u, s);
            }
        }
    }

    /// Slice start time in seconds.
    pub fn slice_start(&self, slice: usize) -> u64 {
        self.dataset.slice_start_time(slice)
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The three request kinds of the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/predict` with [`PREDICT_PAIRS`] pairs.
    Predict,
    /// `POST /v1/rank` with `k =` [`RANK_K`] over every service.
    Rank,
    /// `POST /v1/observe` with a batch of records.
    Observe,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 3] = [Op::Predict, Op::Rank, Op::Observe];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Op::Predict => "predict",
            Op::Rank => "rank",
            Op::Observe => "observe",
        }
    }

    /// Index into [`Op::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A traffic mix: op shares plus the shape of each op's body.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of predict requests.
    pub predict: f64,
    /// Share of rank requests (observe takes the rest).
    pub rank: f64,
    /// Records per observe request.
    pub observe_records: usize,
    /// Share of observe records naming a never-seen user or service.
    pub churn: f64,
    /// Whether querying users are Zipf-skewed (else uniform).
    pub zipf: bool,
}

impl Mix {
    /// Share of `op` in the mix.
    pub fn share(&self, op: Op) -> f64 {
        match op {
            Op::Predict => self.predict,
            Op::Rank => self.rank,
            Op::Observe => 1.0 - self.predict - self.rank,
        }
    }
}

/// One generated request: its op, the number of body lines, and the
/// complete HTTP/1.1 bytes.
#[derive(Debug, Clone)]
pub struct Request {
    /// What the request asks.
    pub op: Op,
    /// Body lines (pairs or records); 1 for rank.
    pub lines: usize,
    /// Full request bytes, head and body.
    pub bytes: Vec<u8>,
}

impl Request {
    /// The body part of [`Request::bytes`].
    pub fn body(&self) -> &str {
        let text = std::str::from_utf8(&self.bytes).expect("generated requests are ASCII");
        text.split_once("\r\n\r\n").map_or("", |(_, body)| body)
    }
}

/// Frames a body as a `POST` request.
pub fn http_post(path: &str, body: &str, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Generator of one request stream (one lane of one rung).
pub struct RequestStream<'w> {
    world: &'w World,
    mix: Mix,
    rng: Rng,
    close: bool,
    /// Slice whose values observe records report.
    slice: usize,
    /// Counter of never-seen entities introduced by churn.
    fresh: usize,
    /// First fresh entity index of this stream (keeps streams disjoint).
    fresh_base: usize,
    /// Names of the services churn introduced, in order.
    churned: Vec<String>,
}

impl<'w> RequestStream<'w> {
    /// Stream `stream` of a world; `close` asks for one connection per
    /// request. Observe records report values of `slice`.
    pub fn new(world: &'w World, mix: Mix, stream: u64, close: bool, slice: usize) -> Self {
        Self {
            world,
            mix,
            rng: Rng::new(world.seed, 0x1000 + stream),
            close,
            slice,
            fresh: 0,
            fresh_base: stream as usize * 100_000,
            churned: Vec::new(),
        }
    }

    /// Entities introduced by churn so far.
    #[cfg(test)]
    pub fn fresh_entities(&self) -> usize {
        self.fresh
    }

    /// Services introduced by churn so far.
    pub fn churned_services(&self) -> &[String] {
        &self.churned
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        let x = self.rng.unit();
        let op = if x < self.mix.predict {
            Op::Predict
        } else if x < self.mix.predict + self.mix.rank {
            Op::Rank
        } else {
            Op::Observe
        };
        let mut body = String::with_capacity(512);
        let lines = match op {
            Op::Predict => {
                for _ in 0..PREDICT_PAIRS {
                    let u = self.user();
                    let s = self.rng.below(SERVICES);
                    let _ = writeln!(body, "{{\"user\":\"user-{u}\",\"service\":\"svc-{s}\"}}");
                }
                PREDICT_PAIRS
            }
            Op::Rank => {
                let u = self.user();
                let _ = write!(body, "{{\"user\":\"user-{u}\",\"k\":{RANK_K}}}");
                1
            }
            Op::Observe => {
                let start = self.world.slice_start(self.slice);
                for _ in 0..self.mix.observe_records {
                    let (u, s) = self.world.observable_pair(&mut self.rng);
                    let value = self.world.truth(u, s, self.slice);
                    let (user, service) = if self.rng.unit() < self.mix.churn {
                        let id = self.fresh_base + self.fresh;
                        self.fresh += 1;
                        if self.rng.unit() < 0.5 {
                            (format!("user-{}", USERS + id), format!("svc-{s}"))
                        } else {
                            let name = format!("svc-{}", SERVICES + id);
                            self.churned.push(name.clone());
                            (format!("user-{u}"), name)
                        }
                    } else {
                        (format!("user-{u}"), format!("svc-{s}"))
                    };
                    let ts = start + self.rng.below(900) as u64;
                    let _ = writeln!(
                        body,
                        "{{\"user\":\"{user}\",\"service\":\"{service}\",\"timestamp\":{ts},\"value\":{value:.6}}}"
                    );
                }
                self.mix.observe_records
            }
        };
        let path = match op {
            Op::Predict => "/v1/predict",
            Op::Rank => "/v1/rank",
            Op::Observe => "/v1/observe",
        };
        Request {
            op,
            lines,
            bytes: http_post(path, &body, self.close),
        }
    }

    fn user(&mut self) -> usize {
        if self.mix.zipf {
            self.world.zipf_user(&mut self.rng)
        } else {
            self.rng.below(USERS)
        }
    }
}

/// Predict requests over the held-out pairs, [`PREDICT_PAIRS`] per request.
pub fn held_out_requests(world: &World) -> Vec<Request> {
    world
        .held_out
        .chunks(PREDICT_PAIRS)
        .map(|chunk| {
            let mut body = String::new();
            for &(u, s) in chunk {
                let _ = writeln!(body, "{{\"user\":\"user-{u}\",\"service\":\"svc-{s}\"}}");
            }
            Request {
                op: Op::Predict,
                lines: chunk.len(),
                bytes: http_post("/v1/predict", &body, false),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        predict: 0.5,
        rank: 0.2,
        observe_records: 8,
        churn: 0.03,
        zipf: true,
    };

    fn triplet_bytes(world: &World, sample: u64, slices: usize) -> Vec<u8> {
        let mut out = Vec::new();
        qos_dataset::io::write_triplets(&world.observed_stream(slices, sample), &mut out).unwrap();
        out
    }

    fn request_bytes(world: &World, stream: u64) -> Vec<u8> {
        let mut gen = RequestStream::new(world, MIX, stream, false, 1);
        (0..300).flat_map(|_| gen.next_request().bytes).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let (a, b) = (World::new(7, 2), World::new(7, 2));
        assert_eq!(a.held_out, b.held_out);
        assert_eq!(triplet_bytes(&a, 7, 2), triplet_bytes(&b, 7, 2));
        assert_eq!(request_bytes(&a, 3), request_bytes(&b, 3));
        assert_eq!(
            held_out_requests(&a)
                .iter()
                .map(|r| r.bytes.clone())
                .collect::<Vec<_>>(),
            held_out_requests(&b)
                .iter()
                .map(|r| r.bytes.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn other_seed_or_stream_differs() {
        let (a, b) = (World::new(7, 2), World::new(8, 2));
        assert_ne!(triplet_bytes(&a, 7, 1), triplet_bytes(&b, 8, 1));
        assert_ne!(request_bytes(&a, 3), request_bytes(&b, 3));
        assert_ne!(request_bytes(&a, 3), request_bytes(&a, 4));
    }

    #[test]
    fn observed_stream_has_paper_density_and_skips_held_out_pairs() {
        let world = World::new(11, 1);
        let slice = world.observed_slice(0, 11);
        assert_ne!(slice, world.observed_slice(0, TRAIN_SAMPLE));
        let expected = DENSITY * (USERS * SERVICES - HELD_OUT) as f64;
        assert!((slice.len() as f64 - expected).abs() < 0.01 * expected);
        assert!(slice.iter().all(|s| !world.is_held_out(s.user, s.service)));
        assert!(slice.iter().all(|s| s.value.is_finite() && s.value > 0.0));
        assert_eq!(world.held_out.len(), HELD_OUT);
    }

    #[test]
    fn mix_shares_and_churn_are_respected() {
        let world = World::new(5, 2);
        let mut gen = RequestStream::new(&world, MIX, 1, true, 1);
        let reqs: Vec<Request> = (0..4000).map(|_| gen.next_request()).collect();
        let predict = reqs.iter().filter(|r| r.op == Op::Predict).count() as f64 / 4000.0;
        assert!((predict - 0.5).abs() < 0.03, "{predict}");
        let observe_lines: usize = reqs
            .iter()
            .filter(|r| r.op == Op::Observe)
            .map(|r| r.lines)
            .sum();
        let churn = gen.fresh_entities() as f64 / observe_lines as f64;
        assert!((churn - 0.03).abs() < 0.01, "{churn}");
        assert!(reqs[0].body().lines().count() == reqs[0].lines);
        assert!(String::from_utf8_lossy(&reqs[0].bytes).contains("Connection: close"));
    }
}
