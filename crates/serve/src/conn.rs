//! Per-connection handling: the defensive framer and the request loop.
//!
//! Each connection gets one thread, which reads its frames, runs its
//! requests and writes their answers — a request never leaves the thread
//! that read it, so answers stay in request order per connection. The
//! [`Framer`] is the socket loop around a [`LineBuffer`]: it polls with a
//! short read timeout so it can notice the shutdown latch, caps the
//! frame size (oversized frames are rejected before buffering grows
//! without bound), and enforces a completion budget on partially
//! received frames (the slow-loris guard: a client trickling one byte at
//! a time gets `slow-frame` and the socket back, not a parked thread
//! forever).
//!
//! Admin verbs (`PING`, `STATS`, `RELOAD`, `SHUTDOWN`) are answered at
//! once — they must keep working while the data plane is saturated. Data
//! verbs first pass the admission gate ([`crate::gate`]): a full waiting
//! room answers `busy` immediately (explicit load-shedding), a waiter
//! past its deadline answers `deadline-exceeded`, and a request holding a
//! permit runs under `catch_unwind` ([`engine::run`]).

use crate::cache::handle_reload;
use crate::engine::{self, Work};
use crate::framing::{Frame, LineBuffer};
use crate::gate::Admission;
use crate::protocol::{
    parse_request, Request, Response, KIND_BAD_FRAME, KIND_BUSY, KIND_DEADLINE, KIND_RELOAD_FAILED,
    KIND_SHUTTING_DOWN, KIND_SLOW_FRAME,
};
use crate::Shared;
use jsonx_syntax::{ParseErrorKind, RecordLimit};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Read-timeout granularity: how often a blocked read re-checks the
/// shutdown latch and the frame budget.
const POLL: Duration = Duration::from_millis(25);

/// What one call to [`Framer::next`] produced.
pub(crate) enum FrameEvent<'a> {
    /// A complete line (newline stripped).
    Line(&'a str),
    /// A complete line that was not valid UTF-8.
    BadUtf8,
    /// The frame grew past the cap without a newline.
    Oversized,
    /// The frame's first byte arrived but the rest didn't within budget.
    Slow,
    /// The peer closed (EOF). `mid_frame` is true when bytes of an
    /// unterminated frame were pending — a mid-request disconnect.
    Closed { mid_frame: bool },
    /// The daemon is draining and this connection is idle.
    ShuttingDown,
    /// The socket failed.
    Io,
}

/// Newline framer over a polled, capped, budgeted socket read loop.
pub(crate) struct Framer<'s> {
    stream: &'s TcpStream,
    lines: LineBuffer,
    budget: Duration,
}

impl<'s> Framer<'s> {
    pub(crate) fn new(stream: &'s TcpStream, cap: usize, budget: Duration) -> Framer<'s> {
        Framer {
            stream,
            lines: LineBuffer::new(cap),
            budget,
        }
    }

    /// Blocks until one frame completes (or fails to). Pipelined frames
    /// already buffered are returned without touching the socket.
    pub(crate) fn next(&mut self, shutdown: &AtomicBool) -> FrameEvent<'_> {
        let mut started: Option<Instant> = (self.lines.pending() > 0).then(Instant::now);
        let mut tmp = [0u8; 4096];
        loop {
            if let Some(found) = self.lines.find() {
                return match self.lines.take(found) {
                    Frame::Line(text) => FrameEvent::Line(text),
                    Frame::BadUtf8 => FrameEvent::BadUtf8,
                    Frame::Oversized => FrameEvent::Oversized,
                };
            }
            if let Some(t0) = started {
                if t0.elapsed() > self.budget {
                    return FrameEvent::Slow;
                }
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    return FrameEvent::Closed {
                        mid_frame: self.lines.pending() > 0,
                    }
                }
                Ok(n) => {
                    started.get_or_insert_with(Instant::now);
                    self.lines.push(&tmp[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::SeqCst) && self.lines.pending() == 0 {
                        return FrameEvent::ShuttingDown;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return FrameEvent::Io,
            }
        }
    }
}

/// The connection's write side: one reused buffer for the response line
/// and its newline, written in one call.
pub(crate) struct Responder<'s> {
    stream: &'s TcpStream,
    out: Vec<u8>,
}

impl<'s> Responder<'s> {
    pub(crate) fn new(stream: &'s TcpStream) -> Responder<'s> {
        Responder {
            stream,
            out: Vec::new(),
        }
    }

    /// Writes one response line. A failed write (peer gone) is reported
    /// so the handler can stop, but never panics the connection.
    pub(crate) fn send(&mut self, response: &Response) -> bool {
        self.out.clear();
        self.out.extend_from_slice(response.line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out).is_ok()
    }
}

/// Answers one connection the daemon will not serve with a structured
/// `busy` line.
pub(crate) fn refuse(mut stream: TcpStream, why: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let resp = Response::err(KIND_BUSY, why);
    let _ = stream.write_all(format!("{}\n", resp.line).as_bytes());
}

/// The per-connection request loop. Returns when the peer closes, a
/// frame-level fault closes the connection, or the daemon drains.
pub(crate) fn handle_conn(shared: &Shared, stream: TcpStream, conn_id: usize) {
    let config = &shared.config;
    // A peer that stops reading its responses shouldn't park the handler
    // forever either.
    if stream.set_read_timeout(Some(POLL)).is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .is_err()
    {
        return;
    }
    let mut framer = Framer::new(&stream, config.frame_cap(), config.frame_budget);
    let mut out = Responder::new(&stream);
    loop {
        let line = match framer.next(&shared.shutdown) {
            FrameEvent::Line(line) => line,
            FrameEvent::BadUtf8 => {
                shared.stats.lock().unwrap().bad_frames += 1;
                out.send(&Response::err_close(KIND_BAD_FRAME, "frame is not UTF-8"));
                return;
            }
            FrameEvent::Oversized => {
                shared.stats.lock().unwrap().oversized_frames += 1;
                // Same stable label an oversized record gets in the batch
                // pipeline, so clients see one vocabulary.
                let kind = ParseErrorKind::LimitExceeded(RecordLimit::InputBytes).label();
                out.send(&Response::err_close(
                    kind,
                    &format!("frame exceeds {} bytes", config.frame_cap()),
                ));
                return;
            }
            FrameEvent::Slow => {
                shared.stats.lock().unwrap().slow_frames += 1;
                out.send(&Response::err_close(
                    KIND_SLOW_FRAME,
                    &format!(
                        "frame did not complete within {} ms",
                        config.frame_budget.as_millis()
                    ),
                ));
                return;
            }
            FrameEvent::Closed { mid_frame } => {
                if mid_frame {
                    shared.stats.lock().unwrap().disconnects += 1;
                }
                return;
            }
            FrameEvent::ShuttingDown | FrameEvent::Io => return,
        };
        shared.stats.lock().unwrap().frames += 1;
        let request = match parse_request(line, config.debug_faults) {
            Ok(request) => request,
            Err(resp) => {
                shared.stats.lock().unwrap().malformed_requests += 1;
                if !out.send(&resp) {
                    return;
                }
                continue;
            }
        };
        let work = match request {
            Request::Ping => {
                let epoch = shared.cache.snapshot().epoch;
                if !out.send(&Response::ok_ping(epoch)) {
                    return;
                }
                continue;
            }
            Request::Stats => {
                let books = shared.gate.books();
                let resp = crate::stats::stats_response(
                    &shared.stats.lock().unwrap(),
                    books,
                    shared.cache.snapshot().epoch,
                    config.effective_queue_depth(),
                );
                if !out.send(&resp) {
                    return;
                }
                continue;
            }
            Request::Reload => {
                let resp = match handle_reload(shared) {
                    Ok(epoch) => Response::ok_reload(epoch),
                    Err(message) => Response::err(KIND_RELOAD_FAILED, &message),
                };
                if !out.send(&resp) {
                    return;
                }
                continue;
            }
            Request::Shutdown => {
                out.send(&Response::ok_shutdown());
                shared.begin_shutdown();
                return;
            }
            Request::Boom => Work::Boom,
            Request::Sleep(ms) => Work::Sleep(ms),
            Request::Data { op, payload } => Work::Data(op, payload),
        };
        if !serve_data(shared, &mut out, work, conn_id) {
            return;
        }
    }
}

/// Runs one data request behind the admission gate and answers it.
/// Returns false when the connection must close (write failure, a
/// poisoned request, or the daemon draining).
fn serve_data(shared: &Shared, out: &mut Responder, work: Work<'_>, conn_id: usize) -> bool {
    if shared.shutdown.load(Ordering::SeqCst) {
        out.send(&Response::err_close(
            KIND_SHUTTING_DOWN,
            "daemon is draining",
        ));
        return false;
    }
    let config = &shared.config;
    let response = match shared.gate.admit(config.deadline) {
        Admission::Run(permit) => {
            let response = engine::run(shared, work, conn_id);
            // The next waiter may start while this answer is written.
            drop(permit);
            response
        }
        Admission::Busy => {
            shared.stats.lock().unwrap().shed += 1;
            Response::err(
                KIND_BUSY,
                &format!(
                    "request queue full (depth {})",
                    config.effective_queue_depth()
                ),
            )
        }
        Admission::Expired => {
            shared.stats.lock().unwrap().expired += 1;
            let waited = config.deadline.unwrap_or_default();
            Response::err(
                KIND_DEADLINE,
                &format!("queued longer than {} ms", waited.as_millis()),
            )
        }
    };
    let close = response.close;
    out.send(&response) && !close
}
