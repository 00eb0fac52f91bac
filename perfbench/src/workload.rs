//! The three workloads and the run that measures one of them.
//!
//! Every workload runs the same phases so that every metric is defined on
//! every workload: several cold starts of `amf-qos serve` (set-up time),
//! each serving one segment of the reference rung, with `amf-qos train`
//! runs between them; then the rest of the rate ladder on the last
//! instance (latency, capacity, failures) and the score of the served
//! answers on the held-out pairs. They differ in traffic mix, connection
//! use, rate ladder and training stream, which decides which layers do
//! the work.

use crate::loadgen::{self, ConnMode, Lane, Outcome};
use crate::program::{self, Server};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::world::{self, Mix, Op, Request, RequestStream, World, RANK_K};
use amf_core::AmfConfig;
use qos_metrics::AccuracySummary;
use qos_obs::Json;
use qos_service::{QosPredictionService, QosRecord, ServiceConfig};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// p99 latency limit per op (predict, rank, observe), µs. A rung passes
/// only if every op it sends meets its limit.
pub const P99_LIMIT_US: [f64; 3] = [25_000.0, 25_000.0, 50_000.0];
/// Largest failed ÷ attempted share a passing rung may have.
pub const ERROR_LIMIT: f64 = 0.001;
/// Largest p99 generator lag a passing rung may have, µs: beyond it the
/// client could not keep to the schedule, so the backlog was growing.
pub const LAG_LIMIT_US: f64 = 20_000.0;
/// Fewest samples of every op in a timed window (≥ 10 beyond the p99).
pub const MIN_SAMPLES: usize = 1_000;
/// Most sub-windows a reported p99 is the median over.
const MAX_PARTS: usize = 5;
/// `serve` instances per run, each started cold: `setup_s` is the median
/// of their set-up times, and each instance serves one equal segment of
/// the reference window, so the reference p50s are medians over
/// instances. One instance's latency level holds for its whole life but
/// differs from the next one's by up to a third on a shared host, so a
/// single instance would make every run a draw of one.
const SERVERS: usize = 5;
/// Untimed traffic before each reference segment, at the first rung's
/// rates.
const WARMUP: Duration = Duration::from_millis(300);
/// Request stream of the warm-up traffic.
const WARMUP_STREAM: u64 = 1_000_000;
/// Request stream of the first reference segment (the `i`-th instance's
/// segment uses this plus `i`); rung `r ≥ 1` uses stream `r`.
const REFERENCE_STREAM: u64 = 1_000;
/// Pause between rungs, so one rung's tail does not run into the next.
const RUNG_GAP: Duration = Duration::from_millis(200);
/// Shard count `amf-qos serve` ships (its `--shards` default); the traced
/// run builds its in-process service and engines the same way.
const SERVE_SHARDS: usize = 4;
/// Requests of the reference window replayed in-process by the traced run.
const REPLAY_REQUESTS: usize = 1_500;

/// One stream of load inside a workload.
pub struct LaneSpec {
    /// Lane label.
    pub name: &'static str,
    /// Traffic mix.
    pub mix: Mix,
    /// Connection use.
    pub mode: ConnMode,
    /// Load threads.
    pub threads: usize,
    /// Requests per second at each rung of the ladder.
    pub rates: &'static [f64],
}

/// A workload: lanes, ladder and training stream.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Load lanes; all share the rung index.
    pub lanes: &'static [LaneSpec],
    /// Time slices in the `amf-qos train` stream.
    pub train_slices: usize,
    /// `amf-qos train` runs on that stream (at most [`SERVERS`]), spread
    /// evenly between the serve instances; `train_s` is their median.
    pub train_reps: usize,
}

impl Workload {
    fn rungs(&self) -> usize {
        self.lanes[0].rates.len()
    }
}

const DECISIONS: Mix = Mix {
    predict: 0.75,
    rank: 0.20,
    observe_records: 8,
    churn: 0.0,
    zipf: true,
};

const REPORTS: Mix = Mix {
    predict: 0.0,
    rank: 0.0,
    observe_records: 32,
    churn: 0.03,
    zipf: false,
};

const PROBE: Mix = Mix {
    predict: 0.5,
    rank: 0.5,
    observe_records: 8,
    churn: 0.0,
    zipf: true,
};

/// QoS managers reporting, beside a fixed-rate read probe.
const REPORT_LANES: &[LaneSpec] = &[
    LaneSpec {
        name: "reporters",
        mix: REPORTS,
        mode: ConnMode::PerRequest,
        threads: 1,
        rates: &[100.0, 1_600.0],
    },
    LaneSpec {
        name: "probe",
        mix: PROBE,
        mode: ConnMode::KeepAlive,
        threads: 1,
        rates: &[400.0, 400.0],
    },
];

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "adapt-query",
        why: "adaptation decisions on the critical path: 75% predict, 20% rank, 5% observe, Zipf users, open loop over keep-alive",
        lanes: &[LaneSpec {
            name: "decisions",
            mix: DECISIONS,
            mode: ConnMode::KeepAlive,
            threads: 2,
            rates: &[1_000.0, 30_000.0],
        }],
        train_slices: 1,
        train_reps: 5,
    },
    Workload {
        name: "qos-report",
        why: "QoS managers report 32-record batches, one connection each, 3% churn, beside a fixed-rate keep-alive read probe",
        lanes: REPORT_LANES,
        train_slices: 1,
        train_reps: 5,
    },
    Workload {
        name: "offline-train",
        why: "amf-qos train on an 8-slice stream carries kernel speed and accuracy; a short serving phase repeats qos-report's lanes",
        lanes: REPORT_LANES,
        train_slices: 8,
        train_reps: 3,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run options from the command line.
pub struct Options {
    /// The shipped binary.
    pub bin: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds: the ladder's windows add up to this, unless a
    /// window must be longer to hold its sample floor.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory inside the checkout.
    pub dir: PathBuf,
}

/// Latency summary of one op in one window.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    /// Requests attempted.
    pub count: usize,
    /// 2xx answers.
    pub ok: usize,
    /// Serve instances (segments) the p50 is the median over.
    pub segments: usize,
    /// Consecutive sub-windows the p99s are the median over.
    pub parts: usize,
    /// p50 over answered requests, µs: the median over `segments` of each
    /// segment's p50.
    pub p50_us: f64,
    /// p99 over answered requests, µs (median over `parts`).
    pub p99_us: f64,
    /// p99 with failed requests counted as missing every limit, µs
    /// (median over `parts`); this is what the rung's limit is held to.
    pub p99_all_us: f64,
}

/// One rung of the ladder.
pub struct Rung {
    /// Lane rates of the rung.
    pub rates: Vec<f64>,
    /// Window length, seconds.
    pub window_s: f64,
    /// Requests attempted and answered 2xx.
    pub attempted: usize,
    /// 2xx answers.
    pub ok: usize,
    /// Per-op latency, in [`Op::ALL`] order.
    pub ops: [OpStats; 3],
    /// Generator lag p50, µs.
    pub lag_p50_us: f64,
    /// Generator lag p99, µs.
    pub lag_p99_us: f64,
    /// Why the rung failed (empty: it passed).
    pub misses: Vec<String>,
    /// Each segment's p50 per op, µs, in [`Op::ALL`] order.
    pub segment_p50_us: [Vec<f64>; 3],
    /// Every outcome, all lanes (kept for the reference rung).
    pub outcomes: Vec<Outcome>,
    /// The requests behind the outcomes, in the same order.
    pub requests: Vec<Request>,
}

impl Rung {
    fn passed(&self) -> bool {
        self.misses.is_empty()
    }

    /// Answered requests per second, from the window's opening to its
    /// last answer.
    fn ok_per_second(&self) -> f64 {
        let end_ns = self
            .outcomes
            .iter()
            .filter_map(|o| o.done_ns)
            .max()
            .unwrap_or(0);
        ratio(self.ok as f64, end_ns as f64 / 1e9)
    }
}

/// Everything a run measured.
pub struct Report {
    /// End-to-end (untraced) or per-layer (traced) metrics: value, unit.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Output checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted: reference-window and held-out requests, plus
    /// program runs.
    pub attempted: usize,
    /// Of those, how many failed.
    pub failed: usize,
    /// Inputs and host, for the stamp line.
    pub stamp: Json,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }
}

/// Runs one workload end to end.
pub fn run(w: &Workload, opt: &Options) -> Result<Report, String> {
    let mut report = Report {
        metrics: BTreeMap::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
        stamp: Json::obj(),
        lines: Vec::new(),
    };
    let world = World::new(opt.seed, w.train_slices.max(2));
    let serve_stream = world.observed_slice(0, opt.seed);
    let serve_data = opt.dir.join("serve.txt");
    write_triplets(&serve_data, &serve_stream)?;
    // The trainer's fixed stream, written (and synced) before any timing.
    let train_stream = world.observed_stream(w.train_slices, world::TRAIN_SAMPLE);
    let train_data = opt.dir.join("train.txt");
    write_triplets(&train_data, &train_stream)?;

    // Per instance: training runs (their share), a cold start, and one
    // segment of the reference window; the last instance stays up.
    // Alternating them samples the host across the whole run for every
    // figure, not one stretch of it.
    let mut trains = Vec::new();
    let mut known_services: HashSet<String> =
        (0..world::SERVICES).map(|s| format!("svc-{s}")).collect();
    let windows = window_lengths(w, opt.seconds);
    let segment_s = windows[0] / SERVERS as f64;
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut server = None;
    for i in 0..SERVERS {
        // The previous instance stops before anything else runs.
        drop(server.take());
        while trains.len() < ((i + 1) * w.train_reps).div_ceil(SERVERS) {
            let model = opt.dir.join(format!("model-{}.amf", trains.len()));
            trains.push(program::train(&opt.bin, &train_data, &model)?);
        }
        let up = Server::start(&opt.bin, &serve_data, serve_stream.len(), &opt.dir)?;
        setups.push(up.setup_s);
        let warm_s = WARMUP.as_secs_f64();
        let warm = generate_rung(&world, w, 0, WARMUP_STREAM, warm_s, &mut known_services);
        drive(up.addr, w, 0, warm);
        std::thread::sleep(RUNG_GAP);
        let stream = REFERENCE_STREAM + i as u64;
        let requests = generate_rung(&world, w, 0, stream, segment_s, &mut known_services);
        segments.push(drive(up.addr, w, 0, requests));
        server = Some(up);
    }
    let server = server.ok_or("no serve instance")?;
    report.attempted += SERVERS + w.train_reps;
    let setup_s = median_of(&setups);

    // Held-out answers are read right after the reference window, so
    // accuracy does not depend on how far up the ladder a run gets
    // (upper rungs feed the model more observations).
    let held = world::held_out_requests(&world);
    let answers = loadgen::closed_loop(server.addr, &held);

    // The rest of the ladder, stopping at the first rung that misses a
    // limit.
    let mut rungs = vec![summarize(w, 0, windows[0], segments)];
    for (r, &window) in windows.iter().enumerate().skip(1) {
        if !rungs[r - 1].passed() {
            break;
        }
        std::thread::sleep(RUNG_GAP);
        let requests = generate_rung(&world, w, r, r as u64, window, &mut known_services);
        let outcome = drive(server.addr, w, r, requests);
        rungs.push(summarize(w, r, window, vec![outcome]));
    }
    for (r, rung) in rungs.iter().enumerate() {
        report.lines.push(format!(
            "rung {r}: {:>7.0} req/s over {:.2} s: {} sent, {} ok, lag p50 {:.0} p99 {:.0} us, p99 us predict {:.0} rank {:.0} observe {:.0} -> {}",
            rung.rates.iter().sum::<f64>(),
            rung.window_s,
            rung.attempted,
            rung.ok,
            rung.lag_p50_us,
            rung.lag_p99_us,
            rung.ops[0].p99_all_us,
            rung.ops[1].p99_all_us,
            rung.ops[2].p99_all_us,
            if rung.passed() { "pass".to_string() } else { format!("miss ({})", rung.misses.join("; ")) }
        ));
    }

    // Output checks over every answered request of the ladder.
    let config = AmfConfig::response_time();
    let mut bad = CheckTally::default();
    for rung in &rungs {
        for (o, req) in rung.outcomes.iter().zip(&rung.requests) {
            if o.ok() {
                bad.check(o.op, req.lines, &o.body, &config, &known_services);
            }
        }
    }

    // Accuracy of the served answers on the held-out pairs.
    let mut served = Vec::with_capacity(world.held_out.len());
    for (req, (status, body)) in held.iter().zip(&answers) {
        report.attempted += 1;
        let values = predict_values(body);
        if !(200..300).contains(status) || values.len() != req.lines {
            report.failed += 1;
            served.extend(std::iter::repeat_n(f64::NAN, req.lines));
            continue;
        }
        bad.check(Op::Predict, req.lines, body, &config, &known_services);
        served.extend(values);
    }
    let snapshot = program::get(server.addr, "/snapshot.json")
        .ok()
        .and_then(|(_, body)| Json::parse(&body).ok())
        .ok_or("serve did not answer /snapshot.json")?;
    let serve_rss = server.peak_rss_mb().unwrap_or(0.0);
    drop(server);

    let train_secs: Vec<f64> = trains.iter().map(|t| t.secs).collect();
    let train_rss: Vec<f64> = trains.iter().map(|t| t.peak_rss_mb).collect();
    let replays = trains.last().map_or(0, |t| t.replays);
    let truth_slice = w.train_slices - 1;
    let actual: Vec<f64> = world
        .held_out
        .iter()
        .map(|&(u, s)| world.truth(u, s, truth_slice))
        .collect();
    let model_bytes = |rep: usize| std::fs::read(opt.dir.join(format!("model-{rep}.amf"))).ok();
    let first = model_bytes(0);
    report.check(
        "train is deterministic",
        first.is_some() && (1..w.train_reps).all(|rep| model_bytes(rep) == first),
        format!("{} byte-identical models", w.train_reps),
    );
    let stream_mean = |s: &[qos_dataset::QosSample]| {
        s.iter().map(|x| x.value).sum::<f64>() / s.len().max(1) as f64
    };

    // MRE / NPRE: the served answers, or the saved model on offline-train;
    // either must beat the mean of what it learned from.
    let (accuracy, mean) = if w.train_slices > 1 {
        let path = opt.dir.join("model-0.amf");
        let model = amf_core::persistence::load_file(&path)
            .map_err(|e| format!("load {}: {e}", path.display()))?;
        let predicted: Vec<f64> = world
            .held_out
            .iter()
            .map(|&(u, s)| model.predict(u, s).unwrap_or(f64::NAN))
            .collect();
        (evaluate(&actual, &predicted)?, stream_mean(&train_stream))
    } else {
        (evaluate(&actual, &served)?, stream_mean(&serve_stream))
    };
    let answered = served.iter().filter(|v| v.is_finite()).count();
    report.check(
        "held-out answers complete",
        answered == actual.len(),
        format!("{answered} of {} pairs answered by serve", actual.len()),
    );
    let baseline = evaluate(&actual, &vec![mean; actual.len()])?;
    report.check(
        "mre beats the global mean",
        accuracy.mre < baseline.mre,
        format!("mre {:.4} vs global-mean {:.4}", accuracy.mre, baseline.mre),
    );

    bad.report(&mut report);
    let panics = counter(&snapshot, "serve.worker_panics");
    report.check(
        "no worker panics",
        panics == 0.0,
        format!("serve.worker_panics = {panics}"),
    );

    // End-to-end figures, at the reference (first) rung.
    let reference = &rungs[0];
    report.attempted += reference.attempted;
    report.failed += reference.attempted - reference.ok;
    let best = rungs.iter().take_while(|r| r.passed()).last();
    let max_ok_rps = best.map_or(0.0, Rung::ok_per_second);
    let ok_frac = reference.ok as f64 / reference.attempted.max(1) as f64;
    report.lines.push(format!(
        "reference rung: error_frac {:.6} ratio ({} of {} failed)",
        1.0 - ok_frac,
        reference.attempted - reference.ok,
        reference.attempted
    ));
    let train_s = median_of(&train_secs);
    let rss = if w.train_slices > 1 {
        median_of(&train_rss)
    } else {
        serve_rss
    };
    let (mre, npre) = (accuracy.mre, accuracy.npre);

    if opt.trace {
        per_layer(
            &mut report,
            w,
            &serve_stream,
            &rungs,
            &snapshot,
            replays as f64,
            opt,
        )?;
    } else {
        report.metric("setup_s", setup_s, "s");
        for op in Op::ALL {
            let s = reference.ops[op.index()];
            report.metric(format!("{}_p50_us", op.label()), s.p50_us, "us");
        }
        report.metric("max_ok_rps", max_ok_rps, "req/s");
        report.metric("ok_frac", ok_frac, "ratio");
        report.metric("mre", mre, "ratio");
        report.metric("npre", npre, "ratio");
        report.metric("rss_mb", rss, "MiB");
        report.metric("train_s", train_s, "s");
    }
    for (i, o) in reference.ops.iter().enumerate() {
        report.lines.push(format!(
            "reference {}: {} samples, {} ok, p50 {:.1} us (median of {} serve instances: {}), p99 {:.1} us (median of {} sub-windows)",
            Op::ALL[i].label(),
            o.count,
            o.ok,
            o.p50_us,
            o.segments,
            reference.segment_p50_us[i]
                .iter()
                .map(|p| format!("{p:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
            o.p99_us,
            o.parts
        ));
    }

    let mut stamp = Json::obj();
    stamp
        .set("workload", Json::Str(w.name.into()))
        .set("seed", Json::UInt(opt.seed))
        .set(
            "setup_s_runs",
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        )
        .set(
            "train_s_runs",
            Json::Arr(train_secs.iter().map(|&s| Json::Num(s)).collect()),
        )
        .set("serve_records", Json::UInt(serve_stream.len() as u64))
        .set("train_records", Json::UInt(train_stream.len() as u64))
        .set("train_replays", Json::UInt(replays))
        .set("held_out_pairs", Json::UInt(world.held_out.len() as u64))
        .set(
            "ladder",
            Json::Arr(
                w.lanes
                    .iter()
                    .map(|l| {
                        let mut lane = Json::obj();
                        lane.set("lane", Json::Str(l.name.into())).set(
                            "rates",
                            Json::Arr(l.rates.iter().map(|&r| Json::Num(r)).collect()),
                        );
                        lane
                    })
                    .collect(),
            ),
        )
        .set(
            "windows_s",
            Json::Arr(windows.iter().map(|&s| Json::Num(s)).collect()),
        )
        .set("rungs_run", Json::UInt(rungs.len() as u64));
    report.stamp = stamp;
    Ok(report)
}

fn median_of(values: &[f64]) -> f64 {
    stats::median(&mut values.to_vec()).unwrap_or(0.0)
}

fn evaluate(actual: &[f64], predicted: &[f64]) -> Result<AccuracySummary, String> {
    AccuracySummary::evaluate(actual, predicted).map_err(|e| format!("accuracy: {e}"))
}

fn write_triplets(path: &Path, samples: &[qos_dataset::QosSample]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    qos_dataset::io::write_triplets(samples, &file)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    // On disk before anything is timed, so no write-back runs during it.
    file.sync_all()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Window length of each rung: the measured seconds split so that every
/// rung sends about as many requests, but never fewer than
/// [`MIN_SAMPLES`] of each op any lane sends.
pub fn window_lengths(w: &Workload, seconds: f64) -> Vec<f64> {
    let inverse: f64 = w.lanes[0].rates.iter().map(|r| 1.0 / r).sum();
    (0..w.rungs())
        .map(|r| {
            let share = seconds * (1.0 / w.lanes[0].rates[r]) / inverse;
            let floor = w
                .lanes
                .iter()
                .flat_map(|l| Op::ALL.iter().map(move |&op| (l.rates[r], l.mix.share(op))))
                .filter(|&(_, share)| share > 0.0)
                .map(|(rate, share)| 1.1 * MIN_SAMPLES as f64 / (rate * share))
                .fold(0.0, f64::max);
            share.max(floor)
        })
        .collect()
}

/// Generates each lane's requests for one window.
fn generate_rung(
    world: &World,
    w: &Workload,
    rung: usize,
    stream: u64,
    window_s: f64,
    known_services: &mut HashSet<String>,
) -> Vec<Vec<Request>> {
    w.lanes
        .iter()
        .enumerate()
        .map(|(l, lane)| {
            let close = lane.mode == ConnMode::PerRequest;
            let mut gen = RequestStream::new(world, lane.mix, stream * 16 + l as u64, close, 1);
            let n = (lane.rates[rung] * window_s).ceil() as usize;
            let requests: Vec<Request> = (0..n).map(|_| gen.next_request()).collect();
            known_services.extend(gen.churned_services().iter().cloned());
            requests
        })
        .collect()
}

/// Outcomes of one window and the requests behind them, in the same order.
type Window = (Vec<Outcome>, Vec<Request>);

/// Drives each lane's requests for one window at rung `r`'s rates.
fn drive(addr: std::net::SocketAddr, w: &Workload, r: usize, lanes: Vec<Vec<Request>>) -> Window {
    let specs: Vec<Lane<'_>> = w
        .lanes
        .iter()
        .zip(&lanes)
        .map(|(spec, requests)| Lane {
            requests,
            rate: spec.rates[r],
            mode: spec.mode,
            threads: spec.threads,
        })
        .collect();
    let results = loadgen::run_window(addr, &specs, Duration::from_millis(20));
    let outcomes: Vec<Outcome> = results.into_iter().flatten().collect();
    let requests: Vec<Request> = lanes.into_iter().flatten().collect();
    (outcomes, requests)
}

/// Sums up rung `r` from its segments (one per serve instance, in run
/// order, together `window_s` long) and holds it to the limits.
fn summarize(w: &Workload, r: usize, window_s: f64, segments: Vec<Window>) -> Rung {
    let n_segments = segments.len();
    let segment_ns = (window_s / n_segments as f64 * 1e9) as u64;
    let mut per_segment_p50: [Vec<f64>; 3] = Default::default();
    let mut outcomes = Vec::new();
    let mut requests = Vec::new();
    for (k, (seg_outcomes, seg_requests)) in segments.into_iter().enumerate() {
        for op in Op::ALL {
            let mut ok: Vec<f64> = seg_outcomes
                .iter()
                .filter(|o| o.op == op)
                .filter_map(Outcome::latency_us)
                .collect();
            if let Some(p50) = stats::median(&mut ok) {
                per_segment_p50[op.index()].push(p50);
            }
        }
        // One time line: segment k opens k segment lengths in.
        let offset = k as u64 * segment_ns;
        outcomes.extend(seg_outcomes.into_iter().map(|mut o| {
            o.due_ns += offset;
            o.sent_ns = o.sent_ns.map(|t| t + offset);
            o.done_ns = o.done_ns.map(|t| t + offset);
            o
        }));
        requests.extend(seg_requests);
    }
    let mut ops = [OpStats::default(); 3];
    for op in Op::ALL {
        let mut mine: Vec<&Outcome> = outcomes.iter().filter(|o| o.op == op).collect();
        mine.sort_by_key(|o| o.due_ns);
        let ok: Vec<f64> = mine.iter().filter_map(|o| o.latency_us()).collect();
        let all: Vec<f64> = mine
            .iter()
            .map(|o| o.latency_us().unwrap_or(f64::INFINITY))
            .collect();
        // As many consecutive sub-windows as keep MIN_SAMPLES each.
        let parts = (ok.len() / MIN_SAMPLES).clamp(1, MAX_PARTS);
        ops[op.index()] = OpStats {
            count: mine.len(),
            ok: ok.len(),
            segments: n_segments,
            parts,
            p50_us: stats::median(&mut per_segment_p50[op.index()].clone()).unwrap_or(0.0),
            p99_us: stats::median_of_parts(&ok, parts, 99.0).unwrap_or(0.0),
            p99_all_us: stats::median_of_parts(&all, parts, 99.0).unwrap_or(0.0),
        };
    }
    let mut lag: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            o.sent_ns
                .map_or(f64::INFINITY, |s| stats::lag_us(o.due_ns, s))
        })
        .collect();
    let lag_p50_us = stats::median(&mut lag).unwrap_or(0.0);
    let lag_p99_us = stats::percentile(&mut lag, 99.0).unwrap_or(0.0);
    let attempted = outcomes.len();
    let ok = outcomes.iter().filter(|o| o.ok()).count();
    let mut misses = Vec::new();
    for op in Op::ALL {
        let s = ops[op.index()];
        if s.count > 0 && s.p99_all_us > P99_LIMIT_US[op.index()] {
            misses.push(format!("{} p99 {:.0} us", op.label(), s.p99_all_us));
        }
    }
    let error_frac = (attempted - ok) as f64 / attempted.max(1) as f64;
    if error_frac > ERROR_LIMIT {
        misses.push(format!("error_frac {error_frac:.4}"));
    }
    if lag_p99_us > LAG_LIMIT_US {
        misses.push(format!("lag p99 {lag_p99_us:.0} us"));
    }
    Rung {
        rates: w.lanes.iter().map(|l| l.rates[r]).collect(),
        window_s,
        attempted,
        ok,
        ops,
        lag_p50_us,
        lag_p99_us,
        misses,
        segment_p50_us: per_segment_p50,
        outcomes,
        requests,
    }
}

/// Counts of answers that failed an output check, by check.
#[derive(Default)]
struct CheckTally {
    predict: (usize, usize, String),
    rank: (usize, usize, String),
    observe: (usize, usize, String),
}

impl CheckTally {
    fn check(
        &mut self,
        op: Op,
        lines: usize,
        body: &str,
        config: &AmfConfig,
        known: &HashSet<String>,
    ) {
        let (slot, verdict) = match op {
            Op::Predict => (&mut self.predict, check_predict(body, lines, config)),
            Op::Rank => (&mut self.rank, check_rank(body, known)),
            Op::Observe => (&mut self.observe, check_observe(body, lines)),
        };
        slot.0 += 1;
        if let Err(why) = verdict {
            slot.1 += 1;
            if slot.2.is_empty() {
                slot.2 = why;
            }
        }
    }

    fn report(&self, report: &mut Report) {
        for (name, (n, bad, first)) in [
            ("predict values finite and in range", &self.predict),
            ("rank answers k ascending known services", &self.rank),
            ("observe queued+shed+invalid = lines", &self.observe),
        ] {
            report.check(
                name,
                *bad == 0,
                if *bad == 0 {
                    format!("{n} answers")
                } else {
                    format!("{bad} of {n} bad, first: {first}")
                },
            );
        }
    }
}

fn predict_values(body: &str) -> Vec<f64> {
    Json::parse(body)
        .ok()
        .and_then(|j| {
            j.get("results")?
                .as_arr()
                .map(|a| a.iter().filter_map(|e| e.get("value")?.as_f64()).collect())
        })
        .unwrap_or_default()
}

fn check_predict(body: &str, lines: usize, config: &AmfConfig) -> Result<(), String> {
    let j = Json::parse(body).map_err(|_| "predict answer is not JSON".to_string())?;
    let results = j
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("no results")?;
    if results.len() != lines {
        return Err(format!("{} results for {lines} pairs", results.len()));
    }
    for e in results {
        let v = e.get("value").and_then(Json::as_f64).ok_or("no value")?;
        if !v.is_finite() || v < config.r_min || v > config.r_max {
            return Err(format!(
                "value {v} outside [{}, {}]",
                config.r_min, config.r_max
            ));
        }
    }
    Ok(())
}

fn check_rank(body: &str, known: &HashSet<String>) -> Result<(), String> {
    let j = Json::parse(body).map_err(|_| "rank answer is not JSON".to_string())?;
    let results = j
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("no results")?;
    if results.len() != RANK_K {
        return Err(format!("{} entries, want {RANK_K}", results.len()));
    }
    let mut last = f64::NEG_INFINITY;
    for e in results {
        let v = e.get("value").and_then(Json::as_f64).ok_or("no value")?;
        let name = e
            .get("service")
            .and_then(Json::as_str)
            .ok_or("no service")?;
        if !known.contains(name) {
            return Err(format!("unknown service {name}"));
        }
        if v.is_nan() || v < last {
            return Err(format!("not ascending at {name}"));
        }
        last = v;
    }
    Ok(())
}

fn check_observe(body: &str, lines: usize) -> Result<(), String> {
    let j = Json::parse(body).map_err(|_| "observe answer is not JSON".to_string())?;
    let field = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX / 4);
    let total = field("queued") + field("shed") + field("invalid");
    if total != lines as u64 {
        return Err(format!("queued+shed+invalid = {total}, sent {lines}"));
    }
    Ok(())
}

fn counter(snapshot: &Json, name: &str) -> f64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn gauge(snapshot: &Json, name: &str) -> f64 {
    snapshot
        .get("gauges")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    w: &Workload,
    serve_stream: &[qos_dataset::QosSample],
    rungs: &[Rung],
    snapshot: &Json,
    replays: f64,
    opt: &Options,
) -> Result<(), String> {
    let reference = &rungs[0];

    // Load generator validity (requests never sent count as failures).
    let mut lag: Vec<f64> = reference
        .outcomes
        .iter()
        .filter_map(|o| o.sent_ns.map(|s| stats::lag_us(o.due_ns, s)))
        .collect();
    report.metric(
        "loadgen.lag_p99_us",
        stats::percentile(&mut lag, 99.0).unwrap_or(0.0),
        "us",
    );
    let sent: usize = rungs.iter().map(|r| r.attempted).sum();
    report.metric("loadgen.sent", sent as f64, "count");

    // Client tails at the reference rate (their run-to-run spread is too
    // wide for an end-to-end bound; see README.md).
    for op in Op::ALL {
        let p99 = reference.ops[op.index()].p99_us;
        report.metric(format!("{}_p99_us", op.label()), p99, "us");
    }

    // Plane stages from the server's own per-response header.
    let mut stage_p50 = [[0.0f64; 6]; 3];
    for op in Op::ALL {
        let rows: Vec<[u64; 6]> = reference
            .outcomes
            .iter()
            .filter(|o| o.op == op && o.ok())
            .filter_map(|o| o.stages)
            .collect();
        for (k, stage) in loadgen::STAGES.iter().enumerate() {
            let mut v: Vec<f64> = rows.iter().map(|r| r[k] as f64).collect();
            let p50 = stats::median(&mut v).unwrap_or(0.0);
            let p99 = stats::percentile(&mut v, 99.0).unwrap_or(0.0);
            stage_p50[op.index()][k] = p50;
            if *stage == "execute" {
                report.metric(format!("plane.execute_us.{}", op.label()), p50, "us");
            } else {
                report.metric(format!("plane.{stage}_us.{}.p50", op.label()), p50, "us");
                report.metric(format!("plane.{stage}_us.{}.p99", op.label()), p99, "us");
            }
        }
    }
    report.metric(
        "plane.requests_per_conn",
        gauge(snapshot, "serve.requests_per_conn"),
        "count",
    );
    report.metric(
        "plane.rejected_overload",
        counter(snapshot, "serve.rejected_overload"),
        "count",
    );
    report.metric(
        "plane.rejected_deadline",
        counter(snapshot, "serve.rejected_deadline"),
        "count",
    );
    let parse_p99_max = (0..3)
        .map(|op| {
            report
                .metrics
                .get(&format!("plane.parse_us.{}.p99", Op::ALL[op].label()))
                .map_or(0.0, |m| m.0)
        })
        .fold(0.0, f64::max);
    if parse_p99_max == 0.0 {
        report.lines.push(
            "note: plane.parse_us reads 0 on this clean run. The plane stamps a request's read \
             start and its parse end in the same poll pass (serve conn.rs read_and_parse), so \
             the stage measures arrival spread across reads, not parse CPU; in-process \
             http.parse_ns is the parse cost."
                .into(),
        );
    }

    // Service-level shares from the server's counters.
    let queued = counter(snapshot, "serve.observe_queued");
    let shed = counter(snapshot, "serve.observe_shed");
    report.metric("service.shed_frac", ratio(shed, queued + shed), "ratio");
    let accepted = counter(snapshot, "service.accepted");
    let rejected = counter(snapshot, "service.rejected");
    report.metric(
        "service.quarantine_frac",
        ratio(rejected, accepted + rejected),
        "ratio",
    );
    report.metric(
        "service.degraded_frac",
        ratio(
            counter(snapshot, "serve.degraded_answers"),
            counter(snapshot, "serve.predictions"),
        ),
        "ratio",
    );

    // In-process replay of the reference window, in due-time order.
    let mut order: Vec<usize> = (0..reference.outcomes.len()).collect();
    order.sort_by_key(|&i| reference.outcomes[i].due_ns);
    let replayed: Vec<Request> = order
        .iter()
        .take(REPLAY_REQUESTS)
        .map(|&i| reference.requests[i].clone())
        .collect();
    let service = warm_service(serve_stream);
    let mut walls = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new(true);
    for pass in 0..4 {
        let mut t = Tracer::new(pass % 2 == 1);
        let started = Instant::now();
        trace::replay(&service, &replayed, &mut t);
        let wall = started.elapsed().as_secs_f64();
        if pass % 2 == 1 {
            walls.1.push(wall);
            tracer = t;
        } else {
            walls.0.push(wall);
        }
    }
    let off: f64 = walls.0.iter().sum();
    let on: f64 = walls.1.iter().sum();
    report.metric("trace.overhead_frac", ratio(on - off, off), "ratio");
    report.lines.push(format!(
        "traced replay: {} requests, {:.3} s with spans vs {:.3} s without (two passes each)",
        replayed.len(),
        on,
        off
    ));

    let med = |mut v: Vec<f64>| stats::median(&mut v).unwrap_or(0.0);
    report.metric("http.parse_ns", med(tracer.self_times("http.parse")), "ns");
    report.metric(
        "http.render_ns",
        med(tracer.self_times("http.render")),
        "ns",
    );
    report.metric(
        "json.decode_ns_per_line",
        med(tracer.self_times("json.decode")),
        "ns",
    );
    let encode: Vec<f64> = Op::ALL
        .iter()
        .flat_map(|&op| tracer.per_request_self(trace::root_name(op), &["json.encode"]))
        .collect();
    report.metric("json.encode_ns", med(encode), "ns");
    report.metric(
        "service.predict_ns",
        med(tracer.self_times("service.predict")),
        "ns",
    );
    report.metric(
        "service.rank_ns",
        med(tracer.self_times("service.rank")),
        "ns",
    );
    let submit: Vec<f64> = tracer
        .per_request_self("request.observe", &["service.offer", "service.drain"])
        .into_iter()
        .zip(replayed.iter().filter(|r| r.op == Op::Observe))
        .map(|(ns, r)| ns / r.lines.max(1) as f64)
        .collect();
    report.metric("service.submit_ns_per_record", med(submit), "ns");

    // Ladder reconciliation, both ways, per op.
    for op in Op::ALL {
        let client_p50 = reference.ops[op.index()].p50_us;
        let stages: f64 = stage_p50[op.index()].iter().sum();
        report.metric(
            format!("ladder.gap_frac.plane.{}", op.label()),
            ratio(client_p50 - stages, client_p50),
            "ratio",
        );
        let execute = stage_p50[op.index()][4];
        let inproc_us =
            med(tracer.per_request_self(trace::root_name(op), &["service.", "json."])) / 1_000.0;
        report.metric(
            format!("ladder.gap_frac.execute.{}", op.label()),
            ratio(execute - inproc_us, execute),
            "ratio",
        );
    }

    // Co-run: predict through the service while submit_batch runs.
    let pairs: Vec<(String, String)> = replayed
        .iter()
        .filter(|r| r.op == Op::Predict)
        .flat_map(|r| {
            r.body()
                .lines()
                .filter_map(|l| {
                    let j = Json::parse(l).ok()?;
                    Some((
                        j.get("user")?.as_str()?.to_string(),
                        j.get("service")?.as_str()?.to_string(),
                    ))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let batches: Vec<Vec<QosRecord>> = replayed
        .iter()
        .filter(|r| r.op == Op::Observe)
        .map(|r| r.body().lines().filter_map(trace::decode_record).collect())
        .collect();
    report.metric(
        "service.corun_predict_ratio",
        trace::corun_predict_ratio(&service, &pairs, &batches),
        "ratio",
    );
    drop(service);

    // Engine and model, on a model warmed with the same stream.
    let config = AmfConfig::response_time();
    let mut model = amf_core::AmfModel::new(config).map_err(|e| e.to_string())?;
    for s in serve_stream {
        model.observe(s.user, s.service, s.value);
    }
    let in_world = |r: &QosRecord| {
        let (u, s) = (trace::entity_id(&r.user)?, trace::entity_id(&r.service)?);
        (u < world::USERS && s < world::SERVICES).then_some((u, s, r.value))
    };
    let id_batches: Vec<Vec<(usize, usize, f64)>> = batches
        .iter()
        .map(|b| b.iter().filter_map(in_world).collect())
        .collect();
    let samples: Vec<(usize, usize, f64)> = id_batches.iter().flatten().copied().collect();
    let id_pairs: Vec<(usize, usize)> = pairs
        .iter()
        .filter_map(|(u, s)| Some((trace::entity_id(u)?, trace::entity_id(s)?)))
        .collect();
    let users: Vec<usize> = id_pairs.iter().map(|p| p.0).take(500).collect();
    let (observe_ns, predict_ns, rank_ns) =
        trace::model_costs(&mut model, &samples, &id_pairs, &users, RANK_K, &mut tracer);
    report.metric("model.observe_ns", observe_ns, "ns");
    report.metric("model.predict_ns", predict_ns, "ns");
    report.metric("model.rank_ns", rank_ns, "ns");
    let (build_ns, feed_ns) = trace::engine_costs(model, &id_batches, SERVE_SHARDS, &mut tracer);
    report.metric("engine.build_ns", build_ns, "ns");
    report.metric("engine.feed_ns_per_sample", feed_ns, "ns");
    report.metric("model.replays", replays, "count");
    report.metric(
        "kernel.rank_bytes",
        trace::rank_bytes(world::SERVICES, config.dimension),
        "B",
    );
    report.metric(
        "kernel.sgd_flops",
        trace::sgd_flops(config.dimension),
        "flop",
    );
    report.metric("trace.spans", tracer.spans.len() as f64, "count");

    let spans = opt
        .dir
        .parent()
        .unwrap_or(&opt.dir)
        .join(format!("spans-{}-seed{}.jsonl", w.name, opt.seed));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    report
        .lines
        .push(format!("spans written to {}", spans.display()));
    Ok(())
}

/// An in-process service built and warmed the way `amf-qos serve` does it.
fn warm_service(stream: &[qos_dataset::QosSample]) -> QosPredictionService {
    let service = QosPredictionService::new(ServiceConfig {
        shards: SERVE_SHARDS,
        ..ServiceConfig::default()
    });
    for chunk in stream.chunks(256) {
        service.submit_batch(
            chunk
                .iter()
                .map(|s| QosRecord {
                    user: format!("user-{}", s.user),
                    service: format!("svc-{}", s.service),
                    timestamp: s.timestamp,
                    value: s.value,
                })
                .collect(),
        );
    }
    service
}
