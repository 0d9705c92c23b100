//! Load generation against `jsonx serve` over its wire protocol.
//!
//! Two loop shapes, stated with every number they produce:
//!
//! * **closed loop** — each connection sends its next request only after
//!   the previous response arrived, so a slower daemon receives less
//!   load; gives requests per second.
//! * **open loop** — requests are *due* on a fixed schedule whatever the
//!   daemon does, and each is timed from the instant it was due, so a
//!   stall is charged to every request it delayed; gives latency at a
//!   stated rate. The daemon answers one request per connection at a
//!   time, so a connection that falls behind its schedule sends late —
//!   that lateness is inside the measured latency and also reported on
//!   its own.
//!
//! Every response is checked against the batch verdict for its line.

use crate::proc::Placement;
use crate::stats::percentile;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What the batch pipeline says about one input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Valid,
    Invalid,
    /// Malformed; the payload is the stable error-kind label.
    Rejected(String),
}

/// The request verbs the mix draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Validate,
    Infer,
    Translate,
}

impl Verb {
    fn word(self) -> &'static str {
        match self {
            Verb::Validate => "VALIDATE",
            Verb::Infer => "INFER",
            Verb::Translate => "TRANSLATE",
        }
    }

    fn op(self) -> &'static str {
        match self {
            Verb::Validate => "validate",
            Verb::Infer => "infer",
            Verb::Translate => "translate",
        }
    }
}

/// Which verb request number `i` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 70% VALIDATE / 20% INFER / 10% TRANSLATE, by `i mod 10`.
    Standard,
    /// One verb only.
    Only(Verb),
}

impl Mix {
    fn verb(self, i: usize) -> Verb {
        match self {
            Mix::Only(v) => v,
            Mix::Standard => match i % 10 {
                0..=6 => Verb::Validate,
                7 | 8 => Verb::Infer,
                _ => Verb::Translate,
            },
        }
    }
}

/// The workload's lines with their expected outcomes.
pub struct Traffic<'a> {
    pub lines: Vec<&'a str>,
    pub expect: &'a [Expect],
}

/// Stride between consecutive requests' lines: a prime far from any
/// corpus size, so a short run still visits the whole file — including
/// the dense tail and the corrupted lines of `dirty-skew`.
const LINE_STRIDE: usize = 7919;

impl Traffic<'_> {
    fn pick(&self, i: usize) -> usize {
        let n = self.lines.len();
        // The stride is prime, so it only fails to generate all of
        // `0..n` when `n` is a multiple of it.
        let stride = if n.is_multiple_of(LINE_STRIDE) {
            1
        } else {
            LINE_STRIDE
        };
        i.wrapping_mul(stride) % n
    }
}

/// Whether `response` is what the batch pipeline's verdict for the line
/// implies for this verb.
pub fn response_matches(verb: Verb, expect: &Expect, response: &str) -> bool {
    match expect {
        Expect::Rejected(kind) => {
            response.starts_with("{\"ok\":false")
                && response
                    .split_once("\"kind\":\"")
                    .and_then(|(_, rest)| rest.strip_prefix(kind.as_str()))
                    .is_some_and(|rest| rest.starts_with('"'))
        }
        Expect::Valid | Expect::Invalid => {
            let ok_for_verb = response
                .strip_prefix("{\"ok\":true,\"op\":\"")
                .and_then(|rest| rest.strip_prefix(verb.op()))
                .is_some_and(|rest| rest.starts_with('"'));
            ok_for_verb
                && match (verb, expect) {
                    (Verb::Validate, Expect::Valid) => response.contains("\"verdict\":\"valid\""),
                    (Verb::Validate, _) => response.contains("\"verdict\":\"invalid\""),
                    _ => true,
                }
        }
    }
}

/// One protocol connection: a frame out, a line back.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frame: String,
    response: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A daemon that stops answering fails the op instead of hanging
        // the benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            frame: String::new(),
            response: String::new(),
        })
    }

    pub fn send(&mut self, verb: &str, payload: &str) -> std::io::Result<()> {
        self.frame.clear();
        self.frame.push_str(verb);
        if !payload.is_empty() {
            self.frame.push(' ');
            self.frame.push_str(payload);
        }
        self.frame.push('\n');
        self.writer.write_all(self.frame.as_bytes())
    }

    /// Reads one response line; an EOF is an error (a missing response).
    pub fn receive(&mut self) -> std::io::Result<&str> {
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.response.trim_end())
    }

    pub fn request(&mut self, verb: &str, payload: &str) -> std::io::Result<&str> {
        self.send(verb, payload)?;
        self.receive()
    }
}

/// Where load goes and which CPUs its generator threads may use.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub placement: Option<&'a Placement>,
}

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub attempted: u64,
    /// Missing, `busy`, `deadline-exceeded` or mismatching responses.
    pub failed: u64,
    pub busy: u64,
    /// Per request, nanoseconds from send (closed loop) or from the due
    /// instant (open loop) to the response; ascending.
    pub latency_ns: Vec<u64>,
    /// Open loop only: nanoseconds each send ran behind its due instant.
    pub lateness_ns: Vec<u64>,
    pub wall: Duration,
}

impl LoadResult {
    fn absorb(&mut self, other: LoadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.latency_ns.extend(other.latency_ns);
        self.lateness_ns.extend(other.lateness_ns);
        self.wall = self.wall.max(other.wall);
    }

    pub fn req_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall.as_secs_f64()
    }

    pub fn latency_us(&self, p: f64) -> f64 {
        percentile(&self.latency_ns, p) as f64 / 1e3
    }

    pub fn lateness_us(&self, p: f64) -> f64 {
        percentile(&self.lateness_ns, p) as f64 / 1e3
    }
}

/// How a connection paces itself.
#[derive(Debug, Clone, Copy)]
enum Pace {
    Closed,
    /// Request `k` of connection `c` is due at `(k * conns + c) / rate`.
    Open {
        rate: f64,
    },
}

/// Sleeps until `due`. The generator threads run with a 1 µs timer slack
/// (the default 50 µs would be a third of the measured latency) and never
/// spin: a spinning generator takes the CPU from the other connection's
/// generator thread.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

fn drive(
    target: Target<'_>,
    traffic: &Traffic<'_>,
    mix: Mix,
    pace: Pace,
    conn: usize,
    conns: usize,
    duration: Duration,
) -> LoadResult {
    let mut result = LoadResult::default();
    if let Some(placement) = target.placement {
        placement.pin_generator();
    }
    crate::proc::tighten_timer_slack();
    let mut client = match Client::connect(target.addr) {
        Ok(client) => client,
        Err(_) => {
            result.attempted = 1;
            result.failed = 1;
            return result;
        }
    };
    let expected = (duration.as_secs_f64() * 40_000.0) as usize;
    result.latency_ns.reserve(expected);
    let start = Instant::now();
    let mut k = 0usize;
    loop {
        let i = k * conns + conn;
        let timed_from = match pace {
            Pace::Closed => {
                let now = Instant::now();
                if now - start >= duration {
                    break;
                }
                now
            }
            Pace::Open { rate } => {
                let offset = Duration::from_secs_f64(i as f64 / rate);
                if offset >= duration {
                    break;
                }
                let due = start + offset;
                wait_until(due);
                result
                    .lateness_ns
                    .push((Instant::now() - due).as_nanos() as u64);
                due
            }
        };
        let line = traffic.pick(i);
        let verb = mix.verb(i);
        result.attempted += 1;
        match client.request(verb.word(), traffic.lines[line]) {
            Ok(response) => {
                let latency = (Instant::now() - timed_from).as_nanos() as u64;
                result.latency_ns.push(latency);
                if !response_matches(verb, &traffic.expect[line], response) {
                    result.failed += 1;
                    if response.contains("\"kind\":\"busy\"") {
                        result.busy += 1;
                    }
                }
            }
            Err(_) => {
                // The connection is gone: one failed op, stop this client.
                result.failed += 1;
                break;
            }
        }
        k += 1;
    }
    result.wall = start.elapsed();
    result
}

fn run_load(
    target: Target<'_>,
    traffic: &Traffic<'_>,
    mix: Mix,
    pace: Pace,
    conns: usize,
    duration: Duration,
) -> LoadResult {
    let mut total = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || drive(target, traffic, mix, pace, conn, conns, duration))
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("load thread panicked"));
        }
    });
    total.latency_ns.sort_unstable();
    total.lateness_ns.sort_unstable();
    total
}

/// Closed loop on `conns` connections for `duration`.
pub fn closed_loop(
    target: Target<'_>,
    traffic: &Traffic<'_>,
    mix: Mix,
    conns: usize,
    duration: Duration,
) -> LoadResult {
    run_load(target, traffic, mix, Pace::Closed, conns, duration)
}

/// Open loop at `rate` requests per second over `conns` connections.
pub fn open_loop(
    target: Target<'_>,
    traffic: &Traffic<'_>,
    mix: Mix,
    rate: f64,
    conns: usize,
    duration: Duration,
) -> LoadResult {
    run_load(target, traffic, mix, Pace::Open { rate }, conns, duration)
}

/// Round-trip times of `PING` (framer + connection, no queue, no parse)
/// on one connection for `duration`; ascending nanoseconds.
pub fn ping_loop(addr: SocketAddr, duration: Duration) -> std::io::Result<Vec<u64>> {
    let mut client = Client::connect(addr)?;
    let mut rtt = Vec::with_capacity(1 << 16);
    let start = Instant::now();
    while start.elapsed() < duration {
        let t0 = Instant::now();
        let response = client.request("PING", "")?;
        if !response.starts_with("{\"ok\":true,\"op\":\"ping\"") {
            return Err(std::io::Error::other(format!(
                "unexpected PING response {response}"
            )));
        }
        rtt.push(t0.elapsed().as_nanos() as u64);
    }
    rtt.sort_unstable();
    Ok(rtt)
}

/// The `processed` counter of a `STATS` snapshot.
pub fn stats_processed(addr: SocketAddr) -> std::io::Result<u64> {
    let mut client = Client::connect(addr)?;
    let response = client.request("STATS", "")?.to_string();
    jsonx::syntax::parse(&response)
        .ok()
        .and_then(|v| v.get("processed")?.as_i64())
        .map(|n| n as u64)
        .ok_or_else(|| std::io::Error::other(format!("unexpected STATS response {response}")))
}

/// One burst of `conns` simultaneous single-request connections (the
/// daemon serves one request per connection at a time, so only
/// concurrent connections can fill its queue). Returns how many were
/// answered `busy` and how many got no answer at all.
pub fn burst(addr: SocketAddr, payload: &str, conns: usize) -> std::io::Result<(usize, usize)> {
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        clients.push(Client::connect(addr)?);
    }
    for client in &mut clients {
        client.send("TRANSLATE", payload)?;
    }
    let (mut busy, mut missing) = (0, 0);
    for client in &mut clients {
        match client.receive() {
            Ok(response) if response.contains("\"kind\":\"busy\"") => busy += 1,
            Ok(_) => {}
            Err(_) => missing += 1,
        }
    }
    Ok((busy, missing))
}

/// Sends `SHUTDOWN` and returns the daemon's acknowledgement.
pub fn shutdown(addr: SocketAddr) -> std::io::Result<String> {
    let mut client = Client::connect(addr)?;
    Ok(client.request("SHUTDOWN", "")?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seventy_twenty_ten() {
        let verbs: Vec<Verb> = (0..1000).map(|i| Mix::Standard.verb(i)).collect();
        let count = |v: Verb| verbs.iter().filter(|x| **x == v).count();
        assert_eq!(count(Verb::Validate), 700);
        assert_eq!(count(Verb::Infer), 200);
        assert_eq!(count(Verb::Translate), 100);
    }

    #[test]
    fn responses_are_checked_against_the_batch_verdict() {
        let valid = r#"{"ok":true,"op":"validate","verdict":"valid","epoch":1}"#;
        let invalid = r#"{"ok":true,"op":"validate","verdict":"invalid","epoch":1}"#;
        let infer = r#"{"ok":true,"op":"infer","type":"{}"}"#;
        let busy = r#"{"ok":false,"kind":"busy","error":"request queue full (depth 64)"}"#;
        let eof = r#"{"ok":false,"kind":"unexpected-eof","error":"..."}"#;
        assert!(response_matches(Verb::Validate, &Expect::Valid, valid));
        assert!(!response_matches(Verb::Validate, &Expect::Valid, invalid));
        assert!(response_matches(Verb::Validate, &Expect::Invalid, invalid));
        assert!(response_matches(Verb::Infer, &Expect::Invalid, infer));
        assert!(!response_matches(Verb::Translate, &Expect::Valid, infer));
        assert!(!response_matches(Verb::Validate, &Expect::Valid, busy));
        let rejected = Expect::Rejected("unexpected-eof".into());
        assert!(response_matches(Verb::Infer, &rejected, eof));
        assert!(!response_matches(Verb::Infer, &rejected, busy));
        assert!(!response_matches(Verb::Validate, &rejected, valid));
    }

    #[test]
    fn stride_visits_every_line() {
        let text = "a\n".repeat(1000);
        let lines: Vec<&str> = text.lines().collect();
        let expect = vec![Expect::Valid; lines.len()];
        let traffic = Traffic {
            expect: &expect,
            lines,
        };
        let mut seen = vec![false; 1000];
        for i in 0..1000 {
            seen[traffic.pick(i)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
