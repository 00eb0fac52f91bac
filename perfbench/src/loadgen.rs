//! The benchmark's own open-loop load generator.
//!
//! Requests follow a fixed constant-rate schedule and each is timed from
//! when it was *due*, never from when it was actually sent: a stalled
//! server cannot slow the schedule down, so its queue shows up in the
//! latency instead of disappearing (no coordinated omission).
//!
//! Each load thread owns its connections and multiplexes them with
//! `ppoll(2)`, so it never blocks on a response while a later request is
//! due. Keep-alive lanes pipeline every due request onto one connection;
//! per-request lanes open a connection per request, one at a time, and
//! queue further due requests in the client (where their wait still
//! counts, from the due time).

use crate::stats;
use crate::world::{Op, Request};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Requests sent on one keep-alive connection before the client moves to
/// a fresh one. The plane closes a connection after 1,024 requests by
/// default; rotating first keeps pipelined requests from being cut off.
const REQUESTS_PER_CONN: usize = 1_000;
/// How long a window waits for outstanding responses after its last due
/// time before counting them as failed (timeouts).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
/// Plane stages of the `x-amf-stage-us` header, in header order.
pub const STAGES: [&str; 6] = ["accept", "parse", "admission", "queue", "execute", "flush"];

/// How a lane uses connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// One pipelined keep-alive connection per load thread.
    KeepAlive,
    /// A new connection (`Connection: close`) for every request.
    PerRequest,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the request in its lane.
    pub index: usize,
    /// Its op.
    pub op: Op,
    /// Due time, ns after the window opened.
    pub due_ns: u64,
    /// When the generator handed it to a connection, ns after the window
    /// opened (`None`: never sent before the window gave up).
    pub sent_ns: Option<u64>,
    /// When its response was complete, ns after the window opened.
    pub done_ns: Option<u64>,
    /// HTTP status (0: transport error or timeout).
    pub status: u16,
    /// Plane stage times from `x-amf-stage-us`, µs, in [`STAGES`] order.
    pub stages: Option<[u64; 6]>,
    /// Response body, checked after the window.
    pub body: String,
}

impl Outcome {
    /// Whether the request got a 2xx answer.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status) && self.done_ns.is_some()
    }

    /// Due-time latency in µs; `None` for a failed request.
    pub fn latency_us(&self) -> Option<f64> {
        match (self.ok(), self.done_ns) {
            (true, Some(done)) => Some(stats::due_latency_us(self.due_ns, done)),
            _ => None,
        }
    }
}

/// One lane of load for one window.
pub struct Lane<'a> {
    /// The lane's requests, in schedule order.
    pub requests: &'a [Request],
    /// Lane rate, requests per second.
    pub rate: f64,
    /// Connection use.
    pub mode: ConnMode,
    /// Load threads; each holds at most one connection at a time.
    pub threads: usize,
}

/// Runs every lane against `addr` for one window that opens `lead` from
/// now, and returns each lane's outcomes in request order.
pub fn run_window(addr: SocketAddr, lanes: &[Lane<'_>], lead: Duration) -> Vec<Vec<Outcome>> {
    let t0 = Instant::now() + lead;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Ends the keep-awake threads when this closure ends, by a panic
        // too, so the scope's join of them cannot hang.
        let _release = Release(&done);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        for _ in 0..cpus {
            scope.spawn(|| keep_awake(&done));
        }
        let handles: Vec<Vec<_>> = lanes
            .iter()
            .map(|lane| {
                (0..lane.threads)
                    .map(|j| {
                        let assigned: Vec<usize> =
                            (j..lane.requests.len()).step_by(lane.threads).collect();
                        scope.spawn(move || Sender::new(addr, lane, assigned, t0).run())
                    })
                    .collect()
            })
            .collect();
        handles
            .into_iter()
            .map(|threads| {
                let mut all: Vec<Outcome> = threads
                    .into_iter()
                    .flat_map(|h| h.join().expect("load thread panicked"))
                    .collect();
                all.sort_by_key(|o| o.index);
                all
            })
            .collect()
    })
}

/// Sets its flag when dropped.
struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Spins at the lowest scheduling priority (`SCHED_IDLE`) until `done`.
///
/// One per CPU during every window keeps the CPUs from going idle, so the
/// program's threads never wait for an idle virtual CPU to be woken by
/// the hypervisor. That wake costs tens of microseconds to milliseconds
/// depending on what else the host runs, and it swamped the
/// predict p50 (a quarter higher on average, with twice the spread
/// between serve instances). Any other runnable thread preempts these at
/// once, so they take no time from the program or the load threads.
fn keep_awake(done: &AtomicBool) {
    sys::idle_priority();
    while !done.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Outcome slots awaiting a response, in send order.
    inflight: VecDeque<usize>,
    sent: usize,
    /// No more requests go out on this connection.
    retiring: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            out: Vec::new(),
            inbuf: Vec::with_capacity(16 * 1024),
            inflight: VecDeque::new(),
            sent: 0,
            retiring: false,
        })
    }
}

/// One parsed response.
struct Response {
    status: u16,
    close: bool,
    stages: Option<[u64; 6]>,
    body: String,
    consumed: usize,
}

struct Sender<'a> {
    addr: SocketAddr,
    lane: &'a Lane<'a>,
    assigned: Vec<usize>,
    t0: Instant,
    outcomes: Vec<Outcome>,
    /// Next position in `assigned` to become due.
    next: usize,
    /// Due slots waiting for a connection (resends go to the front).
    pending: VecDeque<usize>,
    conns: Vec<Conn>,
}

impl<'a> Sender<'a> {
    fn new(addr: SocketAddr, lane: &'a Lane<'a>, assigned: Vec<usize>, t0: Instant) -> Self {
        let outcomes = assigned
            .iter()
            .map(|&i| Outcome {
                index: i,
                op: lane.requests[i].op,
                due_ns: stats::due_ns(i, lane.rate),
                sent_ns: None,
                done_ns: None,
                status: 0,
                stages: None,
                body: String::new(),
            })
            .collect();
        Self {
            addr,
            lane,
            assigned,
            t0,
            outcomes,
            next: 0,
            pending: VecDeque::new(),
            conns: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .checked_duration_since(self.t0)
            .map_or(0, |d| d.as_nanos() as u64)
    }

    fn run(mut self) -> Vec<Outcome> {
        // Without this a timed wait may end up to 50 µs late (the default
        // timer slack), and every such delay counts in the latency.
        sys::exact_timers();
        let last_due = self.outcomes.last().map_or(0, |o| o.due_ns);
        let give_up = last_due + DRAIN_TIMEOUT.as_nanos() as u64;
        loop {
            let now = self.now_ns();
            while self.next < self.outcomes.len() && self.outcomes[self.next].due_ns <= now {
                self.pending.push_back(self.next);
                self.next += 1;
            }
            self.dispatch(now);
            self.pump();
            if !self.pending.is_empty() {
                // A response may have freed a connection slot.
                self.dispatch(self.now_ns());
                self.pump();
            }
            let idle = self.conns.iter().all(|c| c.inflight.is_empty());
            if self.next == self.outcomes.len() && self.pending.is_empty() && idle {
                break;
            }
            let now = self.now_ns();
            if now > give_up {
                // Whatever is still unanswered timed out (status stays 0).
                break;
            }
            // Requests waiting for a connection slot wake on socket
            // readiness; otherwise the next due time bounds the wait.
            let wake_at = match self.outcomes.get(self.next) {
                Some(o) => o.due_ns.min(give_up),
                None => give_up,
            };
            self.wait(Duration::from_nanos(wake_at.saturating_sub(now)));
        }
        self.outcomes
    }

    /// Hands due requests to connections, opening them as the mode allows.
    fn dispatch(&mut self, now: u64) {
        while let Some(&slot) = self.pending.front() {
            let conn = match self.lane.mode {
                ConnMode::KeepAlive => {
                    self.conns
                        .retain(|c| !(c.retiring && c.inflight.is_empty()));
                    match self.conns.iter().position(|c| !c.retiring) {
                        Some(k) => k,
                        // Rotate only once the retiring connection drained,
                        // so a thread never holds two connections.
                        None if self.conns.is_empty() => match Conn::open(self.addr) {
                            Ok(c) => {
                                self.conns.push(c);
                                self.conns.len() - 1
                            }
                            Err(_) => return self.fail_front(),
                        },
                        None => return,
                    }
                }
                ConnMode::PerRequest => {
                    if !self.conns.is_empty() {
                        return;
                    }
                    match Conn::open(self.addr) {
                        Ok(c) => {
                            self.conns.push(c);
                            self.conns.len() - 1
                        }
                        Err(_) => return self.fail_front(),
                    }
                }
            };
            self.pending.pop_front();
            let request = &self.lane.requests[self.assigned[slot]];
            let c = &mut self.conns[conn];
            c.out.extend_from_slice(&request.bytes);
            c.inflight.push_back(slot);
            c.sent += 1;
            if self.lane.mode == ConnMode::PerRequest || c.sent >= REQUESTS_PER_CONN {
                c.retiring = true;
            }
            if self.outcomes[slot].sent_ns.is_none() {
                self.outcomes[slot].sent_ns = Some(now);
            }
        }
    }

    /// Drops the front due request after a failed connect; its outcome
    /// keeps status 0 (a transport error).
    fn fail_front(&mut self) {
        self.pending.pop_front();
    }

    /// Writes what is buffered, reads what arrived, and retires closed
    /// connections.
    fn pump(&mut self) {
        let mut k = 0;
        while k < self.conns.len() {
            let mut dead = false;
            let c = &mut self.conns[k];
            while !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        c.out.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            let mut buf = [0u8; 64 * 1024];
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => c.inbuf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            let done_ns = self.now_ns();
            let c = &mut self.conns[k];
            let mut server_closed = false;
            while let Some(resp) = parse_response(&c.inbuf) {
                c.inbuf.drain(..resp.consumed);
                let Some(slot) = c.inflight.pop_front() else {
                    break;
                };
                let o = &mut self.outcomes[slot];
                o.done_ns = Some(done_ns);
                o.status = resp.status;
                o.stages = resp.stages;
                o.body = resp.body;
                if resp.close {
                    server_closed = true;
                    break;
                }
            }
            if server_closed || dead {
                let c = self.conns.swap_remove(k);
                // A request still unanswered on a connection the server
                // closed after an earlier answer was never processed
                // (HTTP/1.1 ordering), so it is sent again on a fresh
                // connection, still timed from its original due time.
                // After a transport error nothing is resent: it fails.
                for slot in c.inflight.into_iter().rev() {
                    if server_closed {
                        self.pending.push_front(slot);
                    }
                }
                continue;
            }
            k += 1;
        }
    }

    fn wait(&self, timeout: Duration) {
        let mut fds: Vec<sys::PollFd> = self
            .conns
            .iter()
            .map(|c| sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN | if c.out.is_empty() { 0 } else { sys::POLLOUT },
                revents: 0,
            })
            .collect();
        sys::ppoll(&mut fds, timeout);
    }
}

/// Parses one complete response from the front of `buf`.
fn parse_response(buf: &[u8]) -> Option<Response> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut length = 0usize;
    let mut close = false;
    let mut stages = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-amf-stage-us") {
            stages = parse_stages(value);
        }
    }
    let end = head_end + 4 + length;
    if buf.len() < end {
        return None;
    }
    Some(Response {
        status,
        close,
        stages,
        body: String::from_utf8_lossy(&buf[head_end + 4..end]).into_owned(),
        consumed: end,
    })
}

/// Parses `accept=41;parse=0;...` into [`STAGES`] order.
pub fn parse_stages(value: &str) -> Option<[u64; 6]> {
    let mut out = [0u64; 6];
    for part in value.split(';') {
        let (name, us) = part.split_once('=')?;
        let k = STAGES.iter().position(|s| *s == name.trim())?;
        out[k] = us.trim().parse().ok()?;
    }
    Some(out)
}

/// Sends `requests` one at a time over one keep-alive connection (closed
/// loop) and returns each response's status and body. Used for the
/// untimed accuracy queries after the measured windows.
pub fn closed_loop(addr: SocketAddr, requests: &[Request]) -> Vec<(u16, String)> {
    let mut out = Vec::with_capacity(requests.len());
    let mut stream: Option<TcpStream> = None;
    let mut inbuf = Vec::new();
    let mut used = 0usize;
    for request in requests {
        if stream.is_none() || used >= REQUESTS_PER_CONN {
            stream = TcpStream::connect(addr).ok();
            if let Some(s) = &stream {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
            }
            inbuf.clear();
            used = 0;
        }
        let Some(s) = stream.as_mut() else {
            out.push((0, String::new()));
            continue;
        };
        used += 1;
        if s.write_all(&request.bytes).is_err() {
            out.push((0, String::new()));
            stream = None;
            continue;
        }
        let mut buf = [0u8; 64 * 1024];
        let answer = loop {
            if let Some(resp) = parse_response(&inbuf) {
                inbuf.drain(..resp.consumed);
                break Some(resp);
            }
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break None,
                Ok(n) => inbuf.extend_from_slice(&buf[..n]),
            }
        };
        match answer {
            Some(resp) => {
                if resp.close {
                    stream = None;
                }
                out.push((resp.status, resp.body));
            }
            None => {
                out.push((0, String::new()));
                stream = None;
            }
        }
    }
    out
}

/// The foreign calls of the load generator: `ppoll(2)`, for
/// sub-millisecond waits on several sockets (`poll(2)` only takes whole
/// milliseconds), `prctl(2)`, for the timer slack of those waits, and
/// `sched_setscheduler(2)`, for the keep-awake threads.
mod sys {
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    /// Mirror of `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `prctl` option that sets the calling thread's timer slack.
    const PR_SET_TIMERSLACK: core::ffi::c_int = 29;

    /// Linux scheduling policy for threads that run only when nothing
    /// else wants the CPU.
    const SCHED_IDLE: core::ffi::c_int = 5;

    /// Mirror of `struct sched_param`.
    #[repr(C)]
    struct SchedParam {
        priority: core::ffi::c_int,
    }

    extern "C" {
        fn sched_setscheduler(
            pid: core::ffi::c_int,
            policy: core::ffi::c_int,
            param: *const SchedParam,
        ) -> core::ffi::c_int;
        fn prctl(option: core::ffi::c_int, ...) -> core::ffi::c_int;
        #[link_name = "ppoll"]
        fn libc_ppoll(
            fds: *mut PollFd,
            nfds: core::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const core::ffi::c_void,
        ) -> i32;
    }

    /// Moves the calling thread to `SCHED_IDLE`. Best effort: on failure
    /// it keeps its normal priority.
    pub fn idle_priority() {
        let param = SchedParam { priority: 0 };
        // SAFETY: pid 0 names the calling thread, `param` lives across the
        // call, and SCHED_IDLE requires priority 0.
        unsafe {
            sched_setscheduler(0, SCHED_IDLE, &param);
        }
    }

    /// Sets the calling thread's timer slack to 1 ns, so its timed waits
    /// end when asked rather than up to 50 µs later. Best effort: on
    /// failure the default slack stays.
    pub fn exact_timers() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches
        // only the calling thread's scheduling state.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as core::ffi::c_ulong);
        }
    }

    /// Waits until a descriptor is ready or `timeout` passes. Errors
    /// (`EINTR`) just end the wait early; the caller re-checks everything.
    pub fn ppoll(fds: &mut [PollFd], timeout: Duration) {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd mirrors and its length is passed with it;
        // `ts` lives across the call; a null sigmask is allowed.
        unsafe {
            libc_ppoll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                &ts,
                std::ptr::null(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_and_stage_header() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nx-amf-stage-us: accept=41;parse=0;admission=1;queue=23;execute=1986;flush=2\r\nConnection: keep-alive\r\n\r\n{}HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        let first = parse_response(raw).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, "{}");
        assert!(!first.close);
        assert_eq!(first.stages, Some([41, 0, 1, 23, 1986, 2]));
        let second = parse_response(&raw[first.consumed..]).unwrap();
        assert_eq!(second.status, 503);
        assert!(second.close);
        assert!(parse_response(&raw[..raw.len() - 3]).is_some());
        assert!(parse_response(&raw[..first.consumed - 1]).is_none());
    }
}
