//! The traced run's in-process side: spans recorded around calls into the
//! crates' public functions, from the benchmark's own code.
//!
//! Requests are replayed through the entry points the plane's handler
//! uses, in the handler's order (HTTP parse → per-line JSON decode →
//! service call → JSON encode → HTTP render). Nothing inside the program
//! is instrumented. Spans stay in memory and are written when the run
//! ends; a span's self time is its duration minus its children's.

use crate::stats;
use crate::world::{Op, Request};
use amf_core::{AmfModel, Consistency, EngineOptions, ShardedEngine};
use qos_obs::Json;
use qos_serve::http::{self, Parsed};
use qos_service::{QosPredictionService, QosRecord};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `crate-area.call`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or sample) the span belongs to.
    pub request: u64,
    /// Sum of the children's durations, for self time.
    pub child_ns: u64,
}

impl Span {
    /// Duration minus the time its children cover.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// Span recorder. A disabled tracer runs the same calls without timing
/// them, which is how the traced run measures its own overhead.
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes [`Tracer::span`] a plain call.
    pub fn new(enabled: bool) -> Self {
        Self {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
            child_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        let duration = end - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
        out
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64)
            .collect()
    }

    /// Per request: the summed self time of spans whose name starts with
    /// one of `prefixes`, for requests whose root span is `root`.
    pub fn per_request_self(&self, root: &str, prefixes: &[&str]) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == root) {
            sums.insert(s.request, 0.0);
        }
        for s in &self.spans {
            if prefixes.iter().any(|p| s.name.starts_with(p)) {
                if let Some(sum) = sums.get_mut(&s.request) {
                    *sum += s.self_ns() as f64;
                }
            }
        }
        sums.into_values().collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut line = Json::obj();
            line.set("name", Json::Str(s.name.into()))
                .set("start_ns", Json::UInt(s.start_ns))
                .set("end_ns", Json::UInt(s.end_ns))
                .set("self_ns", Json::UInt(s.self_ns()))
                .set("request", Json::UInt(s.request))
                .set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                );
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

/// Root span name of a replayed request of `op`.
pub fn root_name(op: Op) -> &'static str {
    match op {
        Op::Predict => "request.predict",
        Op::Rank => "request.rank",
        Op::Observe => "request.observe",
    }
}

/// Replays `requests` through the handler's public entry points.
pub fn replay(service: &QosPredictionService, requests: &[Request], tracer: &mut Tracer) {
    for (i, req) in requests.iter().enumerate() {
        let id = i as u64;
        tracer.span(root_name(req.op), id, |t| {
            let parsed = t.span("http.parse", id, |_| {
                http::parse_request(&req.bytes, 1024 * 1024)
            });
            let Ok(Parsed::Complete { request, .. }) = parsed else {
                panic!("generated request {i} does not parse");
            };
            let body = request.body_str().expect("generated bodies are UTF-8");
            let answer = t.span("handler", id, |t| match req.op {
                Op::Predict => handle_predict(service, body, t, id),
                Op::Rank => handle_rank(service, body, t, id),
                Op::Observe => handle_observe(service, body, t, id),
            });
            let rendered = t.span("http.render", id, |_| {
                http::render_response_with(
                    200,
                    "application/json",
                    &answer,
                    true,
                    &[
                        ("x-amf-trace-id", "amf-0000000000000001"),
                        (
                            "x-amf-stage-us",
                            "accept=0;parse=0;admission=0;queue=0;execute=0;flush=0",
                        ),
                    ],
                )
            });
            std::hint::black_box(rendered);
        });
    }
}

fn str_field(json: &Json, key: &str) -> Option<String> {
    json.get(key)?.as_str().map(str::to_string)
}

fn handle_predict(service: &QosPredictionService, body: &str, t: &mut Tracer, id: u64) -> String {
    let mut results = Vec::new();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let pair = t.span("json.decode", id, |_| {
            let parsed = Json::parse(line).ok()?;
            Some((str_field(&parsed, "user")?, str_field(&parsed, "service")?))
        });
        let Some((user, svc)) = pair else { continue };
        let prediction = t.span("service.predict", id, |_| {
            service.predict_degraded(&user, &svc)
        });
        t.span("json.encode", id, |_| {
            let mut entry = Json::obj();
            entry
                .set("user", Json::Str(user))
                .set("service", Json::Str(svc))
                .set("value", Json::Num(prediction.value))
                .set("source", Json::Str(prediction.source.label().into()));
            results.push(entry);
        });
    }
    t.span("json.encode", id, |_| {
        let mut out = Json::obj();
        out.set("op", Json::Str("predict".into()))
            .set("results", Json::Arr(results));
        out.to_string_compact()
    })
}

fn handle_rank(service: &QosPredictionService, body: &str, t: &mut Tracer, id: u64) -> String {
    let query = t.span("json.decode", id, |_| {
        let parsed = Json::parse(body.trim()).ok()?;
        let k = parsed.get("k").and_then(Json::as_u64).unwrap_or(5) as usize;
        Some((str_field(&parsed, "user")?, k))
    });
    let Some((user, k)) = query else {
        return String::new();
    };
    let ranked = t.span("service.rank", id, |_| service.rank_candidates(&user, k));
    t.span("json.encode", id, |_| {
        let results = ranked
            .unwrap_or_default()
            .into_iter()
            .map(|(svc, value)| {
                let mut entry = Json::obj();
                entry
                    .set("service", Json::Str(svc))
                    .set("value", Json::Num(value));
                entry
            })
            .collect();
        let mut out = Json::obj();
        out.set("op", Json::Str("rank".into()))
            .set("user", Json::Str(user))
            .set("results", Json::Arr(results));
        out.to_string_compact()
    })
}

/// Parses one observe line the way the handler does.
pub fn decode_record(line: &str) -> Option<QosRecord> {
    let parsed = Json::parse(line).ok()?;
    Some(QosRecord {
        user: str_field(&parsed, "user")?,
        service: str_field(&parsed, "service")?,
        timestamp: parsed.get("timestamp").and_then(Json::as_u64).unwrap_or(0),
        value: parsed.get("value")?.as_f64()?,
    })
}

fn handle_observe(service: &QosPredictionService, body: &str, t: &mut Tracer, id: u64) -> String {
    let (mut queued, mut invalid) = (0u64, 0u64);
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let Some(record) = t.span("json.decode", id, |_| decode_record(line)) else {
            invalid += 1;
            continue;
        };
        if t.span("service.offer", id, |_| service.offer(record)) {
            queued += 1;
        }
    }
    let applied = t.span("service.drain", id, |_| service.drain_inputs()) as u64;
    t.span("json.encode", id, |_| {
        let mut out = Json::obj();
        out.set("op", Json::Str("observe".into()))
            .set("queued", Json::UInt(queued))
            .set("invalid", Json::UInt(invalid))
            .set("applied", Json::UInt(applied));
        out.to_string_compact()
    })
}

/// Parses a `user-N` / `svc-N` name into its dense world id.
pub fn entity_id(name: &str) -> Option<usize> {
    name.rsplit_once('-')?.1.parse().ok()
}

/// Times the engine as `submit_batch` drives it: one engine built per
/// batch with `shards` workers, fed, drained and turned back into the
/// model. Returns `(build ns per batch, feed ns per sample)` medians.
pub fn engine_costs(
    mut model: AmfModel,
    batches: &[Vec<(usize, usize, f64)>],
    shards: usize,
    t: &mut Tracer,
) -> (f64, f64) {
    let options = EngineOptions::with_consistency(shards, Consistency::Parity);
    let (mut build, mut feed) = (Vec::new(), Vec::new());
    for (i, batch) in batches.iter().enumerate() {
        let id = i as u64;
        let started = Instant::now();
        let mut engine = t.span("engine.build", id, |_| {
            ShardedEngine::from_model(model, options).expect("valid engine options")
        });
        let built = Instant::now();
        model = t.span("engine.feed", id, |_| {
            engine.feed_batch(batch.iter().copied());
            engine.drain();
            engine.into_model()
        });
        build.push(built.duration_since(started).as_nanos() as f64);
        feed.push(built.elapsed().as_nanos() as f64 / batch.len().max(1) as f64);
    }
    (
        stats::median(&mut build).unwrap_or(0.0),
        stats::median(&mut feed).unwrap_or(0.0),
    )
}

/// Kernel-level model costs: `(observe ns, predict ns, rank ns)` medians
/// over the given samples, pairs and users.
pub fn model_costs(
    model: &mut AmfModel,
    samples: &[(usize, usize, f64)],
    pairs: &[(usize, usize)],
    users: &[usize],
    k: usize,
    t: &mut Tracer,
) -> (f64, f64, f64) {
    let time = |name: &'static str, id: u64, t: &mut Tracer, f: &mut dyn FnMut()| {
        let started = Instant::now();
        t.span(name, id, |_| f());
        started.elapsed().as_nanos() as f64
    };
    let mut observe: Vec<f64> = samples
        .iter()
        .enumerate()
        .map(|(i, &(u, s, v))| {
            time("model.observe", i as u64, t, &mut || {
                std::hint::black_box(model.observe(u, s, v));
            })
        })
        .collect();
    let mut predict: Vec<f64> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(u, s))| {
            time("model.predict", i as u64, t, &mut || {
                std::hint::black_box(model.predict(u, s));
            })
        })
        .collect();
    let mut rank: Vec<f64> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            time("model.rank", i as u64, t, &mut || {
                std::hint::black_box(model.rank_candidates(u, k));
            })
        })
        .collect();
    (
        stats::median(&mut observe).unwrap_or(0.0),
        stats::median(&mut predict).unwrap_or(0.0),
        stats::median(&mut rank).unwrap_or(0.0),
    )
}

/// Predict p99 (ns) through the service with `submit_batch` running on
/// another thread, divided by the same p99 with nothing else running.
pub fn corun_predict_ratio(
    service: &QosPredictionService,
    pairs: &[(String, String)],
    batches: &[Vec<QosRecord>],
) -> f64 {
    let probe = || {
        let mut ns: Vec<f64> = pairs
            .iter()
            .map(|(u, s)| {
                let started = Instant::now();
                std::hint::black_box(service.predict_degraded(u, s));
                started.elapsed().as_nanos() as f64
            })
            .collect();
        stats::percentile(&mut ns, 99.0).unwrap_or(0.0)
    };
    let alone = probe();
    let stop = AtomicBool::new(false);
    let corun = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut k = 0;
            while !stop.load(Ordering::Relaxed) && !batches.is_empty() {
                service.submit_batch(batches[k % batches.len()].clone());
                k += 1;
            }
        });
        let p99 = probe();
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("co-run writer panicked");
        p99
    });
    if alone > 0.0 {
        corun / alone
    } else {
        0.0
    }
}

/// Bytes the rank kernel streams per query: every service's factor row.
pub fn rank_bytes(services: usize, dimension: usize) -> f64 {
    (services * dimension * std::mem::size_of::<f64>()) as f64
}

/// Floating-point operations of one `sgd_step` at dimension `d`: the dot
/// product (2d), the two factor updates (5d each: gradient scale, weight,
/// regulariser, step, add) and a constant for the sigmoid and weights.
pub fn sgd_flops(dimension: usize) -> f64 {
    (12 * dimension + 10) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = &t.spans[0];
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(outer.child_ns >= 4_000_000);
        assert_eq!(
            outer.self_ns(),
            outer.end_ns - outer.start_ns - outer.child_ns
        );
        assert!(t.per_request_self("outer", &["inner"])[0] >= 4e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn entity_ids_parse() {
        assert_eq!(entity_id("user-12"), Some(12));
        assert_eq!(entity_id("svc-5824"), Some(5824));
        assert_eq!(entity_id("nobody"), None);
    }
}
