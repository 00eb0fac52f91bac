//! Runs the shipped `amf-qos` binary: `serve` as a supervised child
//! process and `train` to completion, with set-up time and peak memory.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a `serve` may take to become healthy.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// `serve --run-ms`: the server exits on its own after this long even if
/// the benchmark dies without stopping it.
const SERVE_LIFETIME_MS: u64 = 170_000;

/// A running `amf-qos serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Bound address of the plane.
    pub addr: SocketAddr,
    /// Spawn to first `200` from `/healthz`, seconds.
    pub setup_s: f64,
}

impl Server {
    /// Spawns `serve` over a triplet file and waits until `/healthz`
    /// answers `200`. Only workload flags are passed, so the plane runs
    /// with its shipped defaults.
    pub fn start(bin: &Path, data: &Path, samples: usize, dir: &Path) -> Result<Self, String> {
        let addr_file = dir.join("serve-addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--data")
            .arg(data)
            .args(["--samples", &samples.to_string()])
            .args(["--run-ms", &SERVE_LIFETIME_MS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        loop {
            if started.elapsed() > SETUP_TIMEOUT {
                return Err("serve did not become healthy in time".into());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("serve exited during set-up: {status}"));
            }
            if server.addr.port() == 0 {
                if let Some(addr) = std::fs::read_to_string(&addr_file)
                    .ok()
                    .and_then(|t| t.trim().parse().ok())
                {
                    server.addr = addr;
                }
            }
            if server.addr.port() != 0 && matches!(get(server.addr, "/healthz"), Ok((200, _))) {
                server.setup_s = started.elapsed().as_secs_f64();
                return Ok(server);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (`VmHWM`) of the server so far, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One-shot `GET` with `Connection: close`; returns status and body.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// Result of one `amf-qos train`.
pub struct TrainRun {
    /// Spawn to exit, seconds.
    pub secs: f64,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
    /// Replays the trainer reported.
    pub replays: u64,
}

/// Runs `amf-qos train --data … --out …` with its shipped defaults.
pub fn train(bin: &Path, data: &Path, model: &Path) -> Result<TrainRun, String> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .arg("train")
        .arg("--data")
        .arg(data)
        .arg("--out")
        .arg(model)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut stdout);
    }
    let (status, peak_kb) =
        sys::wait_with_peak_rss(&child).map_err(|e| format!("wait for train: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    if status != 0 {
        return Err(format!("train exited with wait status {status}: {stdout}"));
    }
    // "trained on N samples (...): R replays in ..."
    let replays = stdout
        .split_once("): ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|r| r.parse().ok())
        .ok_or_else(|| format!("train output without a replay count: {stdout}"))?;
    Ok(TrainRun {
        secs,
        peak_rss_mb: peak_kb as f64 / 1024.0,
        replays,
    })
}

/// `wait4(2)`, the one way to read a finished child's peak RSS.
mod sys {
    use std::process::Child;

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// Mirror of Linux `struct rusage`.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }

    /// Reaps `child` and returns its raw wait status and `ru_maxrss` (KiB).
    /// The child must not be waited for through `std` afterwards.
    pub fn wait_with_peak_rss(child: &Child) -> std::io::Result<(i32, i64)> {
        let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable and laid out
            // as the kernel expects (`int` and `struct rusage`); `pid` is
            // our own unreaped child.
            let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if rc == pid {
                return Ok((status, usage.maxrss));
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}
