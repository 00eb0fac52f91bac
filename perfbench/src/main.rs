//! `perfbench`: the paper-scale benchmark of `amf-qos`.
//!
//! ```text
//! perfbench --amf-qos BIN --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --write-manifest PATH
//! ```
//!
//! One run generates a seeded 339 × 5,825 world, drives the shipped
//! `amf-qos serve` and `amf-qos train` with it, checks every answer, and
//! prints its figures, then one JSON result line. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. `--write-manifest`
//! writes `BENCHMARK.json` from the definitions below. See README.md.

mod loadgen;
mod program;
mod stats;
mod trace;
mod workload;
mod world;

use qos_obs::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures: its ladder windows add up to this, unless a
/// window must be longer to hold its sample floor.
const RUN_SECONDS: u64 = 12;

/// One metric of the manifest.
struct MetricSpec {
    name: String,
    unit: &'static str,
    better: &'static str,
    /// Allowed worsening, as a share of the parent's median (end-to-end).
    bound: Option<f64>,
}

fn spec(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
fn end_to_end() -> Vec<MetricSpec> {
    let mut out = vec![spec("setup_s", "s", "lower", Some(0.25))];
    for op in ["predict", "rank", "observe"] {
        out.push(spec(format!("{op}_p50_us"), "us", "lower", Some(0.25)));
    }
    out.extend([
        spec("max_ok_rps", "req/s", "higher", Some(0.10)),
        spec("ok_frac", "ratio", "higher", Some(0.01)),
        spec("mre", "ratio", "lower", Some(0.15)),
        spec("npre", "ratio", "lower", Some(0.10)),
        spec("rss_mb", "MiB", "lower", Some(0.10)),
        spec("train_s", "s", "lower", Some(0.25)),
    ]);
    out
}

/// Per-layer metrics, reported by every workload with `--trace 1`.
fn per_layer() -> Vec<MetricSpec> {
    let lower = |name: String, unit| spec(name, unit, "lower", None);
    let mut out = vec![
        lower("loadgen.lag_p99_us".into(), "us"),
        spec("loadgen.sent", "count", "higher", None),
    ];
    for op in ["predict", "rank", "observe"] {
        out.push(lower(format!("{op}_p99_us"), "us"));
    }
    for op in ["predict", "rank", "observe"] {
        for stage in ["accept", "parse", "admission", "queue", "flush"] {
            for q in ["p50", "p99"] {
                out.push(lower(format!("plane.{stage}_us.{op}.{q}"), "us"));
            }
        }
        out.push(lower(format!("plane.execute_us.{op}"), "us"));
        out.push(lower(format!("ladder.gap_frac.plane.{op}"), "ratio"));
        out.push(lower(format!("ladder.gap_frac.execute.{op}"), "ratio"));
    }
    out.push(spec("plane.requests_per_conn", "count", "higher", None));
    for (name, unit) in [
        ("plane.rejected_overload", "count"),
        ("plane.rejected_deadline", "count"),
        ("http.parse_ns", "ns"),
        ("http.render_ns", "ns"),
        ("json.decode_ns_per_line", "ns"),
        ("json.encode_ns", "ns"),
        ("service.predict_ns", "ns"),
        ("service.rank_ns", "ns"),
        ("service.submit_ns_per_record", "ns"),
        ("service.corun_predict_ratio", "ratio"),
        ("service.shed_frac", "ratio"),
        ("service.quarantine_frac", "ratio"),
        ("service.degraded_frac", "ratio"),
        ("engine.build_ns", "ns"),
        ("engine.feed_ns_per_sample", "ns"),
        ("model.observe_ns", "ns"),
        ("model.predict_ns", "ns"),
        ("model.rank_ns", "ns"),
        ("model.replays", "count"),
        ("kernel.rank_bytes", "B"),
        ("kernel.sgd_flops", "flop"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
    ] {
        out.push(lower(name.into(), unit));
    }
    out
}

/// The `BENCHMARK.json` document.
fn manifest() -> Json {
    let metric_list = |specs: Vec<MetricSpec>| {
        Json::Arr(
            specs
                .into_iter()
                .map(|m| {
                    let mut j = Json::obj();
                    j.set("name", Json::Str(m.name))
                        .set("unit", Json::Str(m.unit.into()))
                        .set("better", Json::Str(m.better.into()));
                    if let Some(bound) = m.bound {
                        j.set("bound", Json::Num(bound));
                    }
                    j
                })
                .collect(),
        )
    };
    let mut doc = Json::obj();
    doc.set(
        "command",
        Json::Arr(vec![
            Json::Str("python3".into()),
            Json::Str("perfbench/run.py".into()),
        ]),
    )
    .set("paths", Json::Arr(vec![Json::Str("perfbench".into())]))
    .set("run_seconds", Json::UInt(RUN_SECONDS))
    .set(
        "workloads",
        Json::Arr(
            workload::WORKLOADS
                .iter()
                .map(|w| {
                    let mut j = Json::obj();
                    j.set("name", Json::Str(w.name.into()))
                        .set("why", Json::Str(w.why.into()));
                    j
                })
                .collect(),
        ),
    )
    .set("end_to_end", metric_list(end_to_end()))
    .set("per_layer", metric_list(per_layer()));
    doc
}

/// Pretty JSON with numbers in their shortest form (`0.25`, not the
/// 17-digit exponent form the result line uses).
fn render(value: &Json, indent: usize, out: &mut String) {
    let pad = |n: usize| "  ".repeat(n);
    match value {
        Json::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad(indent + 1));
                render(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad(indent));
            out.push(']');
        }
        Json::Obj(map) => {
            out.push_str("{\n");
            for (i, (key, item)) in map.iter().enumerate() {
                out.push_str(&format!("{}\"{key}\": ", pad(indent + 1)));
                render(item, indent + 1, out);
                out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad(indent));
            out.push('}');
        }
        Json::Num(x) => out.push_str(&format!("{x}")),
        other => out.push_str(&other.to_string_compact()),
    }
}

struct Args {
    bin: Option<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    manifest: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bin: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        manifest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--amf-qos" => args.bin = Some(value()?.into()),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--write-manifest" => args.manifest = Some(value()?.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, if readable.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some(path) = args.manifest {
        let mut text = String::new();
        render(&manifest(), 0, &mut text);
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(ExitCode::SUCCESS);
    }
    let name = args.workload.ok_or("--workload is required")?;
    let w = workload::find(&name).ok_or(format!("unknown workload {name}"))?;
    let bin = args.bin.ok_or("--amf-qos is required")?;
    let out = PathBuf::from("perfbench").join("out");
    let dir = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let options = workload::Options {
        bin,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.clone(),
    };
    let cpu_before = cpu_times();
    let result = workload::run(w, &options);
    let cpu_after = cpu_times();
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = result?;

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Share of the host's CPU time the hypervisor gave to other guests
    // during the run; figures from a run with high steal are not comparable.
    let steal = match (cpu_before, cpu_after) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            Json::Num((steal1 - steal0) as f64 / (total1 - total0) as f64)
        }
        _ => Json::Null,
    };
    report
        .stamp
        .set("nproc", Json::UInt(nproc as u64))
        .set("cpu_steal_frac", steal)
        .set(
            "git_rev",
            Json::Str(command_output("git", &["rev-parse", "HEAD"])),
        )
        .set("profile", Json::Str("release".into()))
        .set("rustc", Json::Str(command_output("rustc", &["--version"])))
        .set("seconds", Json::Num(args.seconds))
        .set("trace", Json::Bool(args.trace));

    let specs = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let want: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
    let got: Vec<&str> = report.metrics.keys().map(String::as_str).collect();
    let mut sorted_want = want.clone();
    sorted_want.sort_unstable();
    if sorted_want != got {
        return Err(format!(
            "metric set mismatch: want {sorted_want:?}, got {got:?}"
        ));
    }
    if let Some((name, _)) = report.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }

    println!("perfbench {} seed {} ({})", w.name, args.seed, w.why);
    for line in &report.lines {
        println!("  {line}");
    }
    for m in &specs {
        let (value, unit) = report.metrics[&m.name];
        println!("  {:<34} {:>14.4} {unit}", m.name, value);
    }
    let mut correct = true;
    for (check, ok, detail) in &report.checks {
        correct &= ok;
        println!(
            "  check {:<42} {} ({detail})",
            check,
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let mut stamp = Json::obj();
    stamp.set("stamp", report.stamp.clone());
    println!("{}", stamp.to_string_compact());

    let mut metrics = Json::obj();
    for (name, (value, unit)) in &report.metrics {
        let mut m = Json::obj();
        m.set("value", Json::Num(*value))
            .set("unit", Json::Str((*unit).into()));
        metrics.set(name, m);
    }
    let mut result = Json::obj();
    result
        .set("correct", Json::Bool(correct))
        .set("attempted", Json::UInt(report.attempted as u64))
        .set("failed", Json::UInt(report.failed as u64))
        .set("metrics", metrics);
    println!("{}", result.to_string_compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_definitions() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("valid JSON"),
            manifest(),
            "regenerate with: python3 perfbench/run.py --write-manifest BENCHMARK.json"
        );
    }

    #[test]
    fn metric_names_are_unique_and_bounded() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(names.iter().all(|m| m.len() <= 64));
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = end_to_end()
            .into_iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        let largest = end_to_end()
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }
}
