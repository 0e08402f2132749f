//! Line-delimited JSON TCP front-end: blocking `std::net`, one named OS
//! thread per admitted connection.
//!
//! One request per line, one response per line, in the flat-JSON dialect
//! of [`crate::json`]. Operations:
//!
//! | request                                                      | response fields                                   |
//! |--------------------------------------------------------------|---------------------------------------------------|
//! | `{"op":"ping"}`                                              | `n`, `version`                                    |
//! | `{"op":"score","peer":P}`                                    | `peer`, `score`, `version`, `epoch`               |
//! | `{"op":"rank","peer":P}`                                     | `peer`, `exact_rank`, `bloom_level`, `levels`, `version` |
//! | `{"op":"top_k","k":K}`                                       | `version`, `peers` (array of `[id, score]`)       |
//! | `{"op":"stats"}`                                             | the [`crate::obs::StatsReport`] counters          |
//! | `{"op":"feedback","rater":R,"target":T,"score":S}`           | `events`                                          |
//! | `{"op":"batch","data":"<hex>"}`                              | `accepted`, `events`                              |
//! | `{"op":"epoch"}`                                             | `epoch`, `published`, `live_version`, `cycles`, `wall_ms` |
//! | `{"op":"metrics"}`                                           | `metrics` (Prometheus text exposition, escaped)   |
//!
//! Every response carries `"ok": true`; failures are
//! `{"ok":false,"error":"..."}` and keep the connection open — one bad
//! request must not tear down a client's session. Bulk ingest rides the
//! binary [`FeedbackBatch`] codec frame from `gossiptrust-net`, hex-encoded
//! into the `data` field, so the TCP front-end and any future binary
//! transport share one wire format.
//!
//! Each admitted connection gets its own thread, so one that blocks — on
//! a slow WAL ack, on the `epoch` verb's wait, on a client that stops
//! reading — blocks only itself (see the crate's "Concurrency contract").
//!
//! ## Hardening
//!
//! The front-end assumes hostile or broken clients ([`ServerConfig`]):
//! a concurrent-connection cap sheds further accepts with one retriable
//! error line; a per-line read deadline reaps slow-loris connections that
//! drip-feed or stall mid-line; the request-line byte cap refuses
//! newline-free floods. Shed and reaped connections are counted in the
//! service's [`crate::obs::ServiceObs`]. A [`crate::chaos::ChaosInjector`] can be
//! armed on the response path (chaos drills only) to drop, delay,
//! duplicate, or truncate response frames deterministically.

use crate::chaos::{ChaosInjector, FrameFault};
use crate::json::{self, JsonObj};
use crate::service::{ServeError, ServiceHandle};
use gossiptrust_core::id::NodeId;
use gossiptrust_net::codec::FeedbackBatch;
use gossiptrust_obs::{Deadline, Stopwatch};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest accepted request line (bytes). A `FeedbackBatch` at the codec's
/// size cap hex-encodes to ~1.5 MiB, so 4 MiB leaves comfortable headroom
/// while still bounding a hostile newline-free stream.
const MAX_LINE_BYTES: usize = 4 << 20;

/// Longest accepted line of a scrape request's HTTP head (bytes).
const SCRAPE_HEAD_LINE_BYTES: usize = 8 << 10;

/// Whole-head read deadline, and per-write timeout, of one scrape.
const SCRAPE_BUDGET: Duration = Duration::from_millis(5_000);

/// Front-end hardening knobs (see the README env table; the `serve` bin
/// wires `GT_CONN_LIMIT` / `GT_READ_TIMEOUT_MS` in).
#[derive(Clone)]
pub struct ServerConfig {
    /// Concurrent-connection (= OS thread) cap; further accepts are
    /// answered with one retriable error line and closed.
    pub max_conns: usize,
    /// Per-line read deadline. A connection that cannot produce a full
    /// request line within this budget (a slow-loris drip-feed, a stalled
    /// peer) is reaped — partial lines cannot pin a thread forever.
    pub read_timeout: Duration,
    /// Longest accepted request line in bytes.
    pub max_line_bytes: usize,
    /// Response-path fault injection (dropped / delayed / duplicated /
    /// truncated frames); `None` = deliver everything faithfully.
    pub chaos: Option<Arc<ChaosInjector>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 1024,
            read_timeout: Duration::from_millis(30_000),
            max_line_bytes: MAX_LINE_BYTES,
            chaos: None,
        }
    }
}

/// Decrements the live-connection gauge when a connection thread ends,
/// however it ends (clean EOF, error, reaped, panicked, never spawned).
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Bind `addr` and serve the query/ingest protocol forever (default
/// hardening knobs).
pub fn serve(handle: ServiceHandle, addr: &str) -> io::Result<()> {
    serve_with(handle, addr, ServerConfig::default())
}

/// Bind `addr` and serve with explicit hardening knobs.
pub fn serve_with(handle: ServiceHandle, addr: &str, config: ServerConfig) -> io::Result<()> {
    serve_on_with(handle, TcpListener::bind(addr)?, config)
}

/// Serve on an already-bound listener (lets tests bind port 0 first).
pub fn serve_on(handle: ServiceHandle, listener: TcpListener) -> io::Result<()> {
    serve_on_with(handle, listener, ServerConfig::default())
}

/// Serve on an already-bound listener with explicit hardening knobs: the
/// accept loop blocks the calling thread and returns only on an accept error.
pub fn serve_on_with(
    handle: ServiceHandle,
    listener: TcpListener,
    config: ServerConfig,
) -> io::Result<()> {
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        let (stream, _peer) = listener.accept()?;
        // Accept gate: over the cap, answer with one retriable error line
        // and close — an explicit, immediate shed beats an unbounded thread
        // pile-up that starves the connections already being served.
        if active.load(Ordering::Relaxed) >= config.max_conns {
            shed(&handle, &stream, "connection limit reached");
            continue;
        }
        active.fetch_add(1, Ordering::Relaxed);
        let guard = ConnGuard(Arc::clone(&active));
        // Shared so a failed spawn (which drops the closure) still leaves
        // the accept loop a socket to refuse on.
        let stream = Arc::new(stream);
        let (h, s, c) = (handle.clone(), Arc::clone(&stream), config.clone());
        let conn = move || {
            // A dropped or misbehaving client only affects its own thread.
            let _ = handle_connection(&h, &s, &c);
            drop(guard);
        };
        if std::thread::Builder::new()
            .name("gt-conn".into())
            .spawn(conn)
            .is_err()
        {
            shed(&handle, &stream, "out of connection threads");
        }
    }
}

/// Refuse a connection at the gate: count it and volunteer one retriable
/// error line (it fits a fresh socket's send buffer); the caller's drop closes.
fn shed(handle: &ServiceHandle, mut stream: &TcpStream, why: &str) {
    handle.obs().conns_rejected.inc();
    let _ = stream.write_all(format!("{}\n", retriable_error_line(why)).as_bytes());
}

/// Arm `stream`'s read timeout with what is left of `deadline`. Called
/// before every `fill_buf` of a request line (or scrape head), so a client
/// that drips one byte per timeout is judged on the whole line, not on
/// each `read`. The timeout then surfaces as `WouldBlock` / `TimedOut`.
fn arm_read(stream: &TcpStream, deadline: Deadline) -> io::Result<()> {
    let left = deadline.remaining();
    // `set_read_timeout` rejects zero; zero left is the timeout itself.
    if left.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left))
}

/// Serve the Prometheus scrape endpoint on an already-bound listener
/// (the `serve` bin wires `GT_METRICS_ADDR` in; unset = no listener).
///
/// Deliberately minimal HTTP: every request — whatever the path — is
/// answered with `200 OK`, `text/plain; version=0.0.4` and the full
/// [`ServiceHandle::metrics_text`] exposition, then the connection is
/// closed. A scrape endpoint has exactly one resource, so routing and
/// content negotiation would be dead weight; anything that speaks
/// HTTP/1.x (curl, a Prometheus scraper) gets the text.
///
/// Scrapes are served inline on the calling thread, one at a time
/// (Prometheus scrapes serially); concurrent scrapers queue in the listen
/// backlog, each for at most the read + write budget of those ahead of it.
pub fn serve_metrics_on(handle: ServiceHandle, listener: TcpListener) -> io::Result<()> {
    serve_scrapes(&handle, &listener, SCRAPE_BUDGET)
}

fn serve_scrapes(
    handle: &ServiceHandle,
    listener: &TcpListener,
    budget: Duration,
) -> io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        // A stalled, flooding or vanished scraper only loses its own scrape.
        let _ = scrape_connection(handle, &stream, budget);
    }
}

/// Read one HTTP request head (contents ignored), answer with the
/// exposition, close. Headers are drained up to the blank separator so
/// well-behaved clients never see a reset mid-request; the whole head
/// shares one deadline and each of its lines one byte cap, so neither a
/// stalled, an endless, nor a newline-free head can hold the listener.
fn scrape_connection(
    handle: &ServiceHandle,
    mut stream: &TcpStream,
    budget: Duration,
) -> io::Result<()> {
    stream.set_write_timeout(Some(budget))?;
    let deadline = Deadline::after(budget);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while read_capped_line(&mut reader, &mut line, SCRAPE_HEAD_LINE_BYTES, || {
        arm_read(stream, deadline)
    })? && !matches!(line.as_slice(), b"" | b"\r")
    {}
    let body = handle.metrics_text();
    let head = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.shutdown(Shutdown::Write)
}

/// Per-connection scratch reused across request turns. The read buffer,
/// the response `String` (threaded through [`JsonObj::reuse`]), the batch
/// hex-decode bytes and the ratings vector all keep their allocations for
/// the life of the connection — steady-state request turns allocate only
/// what the operation itself returns (parsed object, codec frame).
#[derive(Default)]
struct ConnBuffers {
    /// Response line under construction; recycled via `JsonObj::reuse`.
    out: String,
    /// Hex-decoded `batch` payload bytes.
    batch_bytes: Vec<u8>,
    /// `(target, score)` pairs handed to `ServiceHandle::record_batch`.
    ratings: Vec<(NodeId, f64)>,
}

fn handle_connection(
    handle: &ServiceHandle,
    mut stream: &TcpStream,
    config: &ServerConfig,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut bufs = ConnBuffers::default();
    loop {
        // One deadline per request line, however many reads it takes.
        let deadline = Deadline::after(config.read_timeout);
        let arm = || arm_read(stream, deadline);
        match read_capped_line(&mut reader, &mut line, config.max_line_bytes, arm) {
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // Slow-loris reaping: the client held the line open without
                // completing a request within the deadline.
                handle.obs().conns_timed_out.inc();
                let farewell = format!("{}\n", error_line("read timeout, closing"));
                let _ = stream.write_all(farewell.as_bytes());
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversize line: tell the client why before closing (the
                // line framing is already unrecoverable mid-line).
                let farewell = format!("{}\n", error_line("request line too long, closing"));
                let _ = stream.write_all(farewell.as_bytes());
                return Ok(());
            }
            Err(e) => return Err(e),
            Ok(false) => return Ok(()),
            Ok(true) => {}
        }
        let sw = Stopwatch::start();
        // Borrow the request straight out of the read buffer — no per-turn
        // copy of a line that can be megabytes of batch hex.
        let mut response = match std::str::from_utf8(&line) {
            Ok(request) => respond(handle, request, &mut bufs),
            Err(_) => error_into(std::mem::take(&mut bufs.out), "request is not valid UTF-8"),
        };
        handle.obs().request_ns.record(sw.elapsed_ns());
        response.push('\n');
        let deliver = write_response(&mut stream, response.as_bytes(), config.chaos.as_deref())?;
        // Hand the response allocation back for the next turn.
        bufs.out = response;
        if !deliver {
            return Ok(());
        }
    }
}

/// Write one response frame, applying an injected fault when a chaos
/// injector is armed. Returns `false` when the connection must close
/// (a truncated frame leaves the client's line framing unrecoverable).
fn write_response<W: Write>(
    writer: &mut W,
    frame: &[u8],
    chaos: Option<&ChaosInjector>,
) -> io::Result<bool> {
    let fault = chaos.map_or(FrameFault::Deliver, |c| c.frame_fault());
    match fault {
        FrameFault::Deliver => writer.write_all(frame)?,
        // The client sees silence and must retry on its own deadline.
        FrameFault::Drop => {}
        // The connection's own thread: nobody else waits on this pause.
        FrameFault::Delay(pause) => {
            std::thread::sleep(pause);
            writer.write_all(frame)?;
        }
        // At-least-once delivery stress: the client sees the reply twice.
        FrameFault::Duplicate => {
            writer.write_all(frame)?;
            writer.write_all(frame)?;
        }
        FrameFault::Truncate => {
            let half = frame.get(..frame.len() / 2).unwrap_or_default();
            writer.write_all(half)?;
            return Ok(false);
        }
    }
    Ok(true)
}

/// Read one `\n`-terminated line into `buf` (newline excluded), calling
/// `before_fill` ahead of every `fill_buf` (sockets arm their read deadline
/// there). Returns `false` on clean EOF, errors out (`InvalidData`) once a
/// line exceeds `cap` bytes — unlike `read_line`, a hostile newline-free
/// stream cannot buffer unboundedly, and the cap holds wherever the
/// newline lands.
fn read_capped_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    cap: usize,
    mut before_fill: impl FnMut() -> io::Result<()>,
) -> io::Result<bool> {
    buf.clear();
    loop {
        before_fill()?;
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(!buf.is_empty());
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > cap {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "request line too long"));
        }
        buf.extend_from_slice(chunk.get(..take).unwrap_or_default());
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(true);
        }
    }
}

fn error_line(message: &str) -> String {
    error_into(String::new(), message)
}

/// [`error_line`] into a recycled buffer.
fn error_into(buf: String, message: &str) -> String {
    JsonObj::reuse(buf).bool("ok", false).str("error", message).finish()
}

/// An error line carrying `"retriable": true` — the client should back
/// off and try again (overload / connection-limit sheds, not bad input).
fn retriable_error_line(message: &str) -> String {
    JsonObj::new()
        .bool("ok", false)
        .bool("retriable", true)
        .str("error", message)
        .finish()
}

fn serve_error(buf: String, err: &ServeError) -> String {
    if err.retriable() {
        JsonObj::reuse(buf)
            .bool("ok", false)
            .bool("retriable", true)
            .str("error", &err.to_string())
            .finish()
    } else {
        error_into(buf, &err.to_string())
    }
}

/// Answer one request line into the connection's recycled buffers. Pure
/// with respect to the connection: all service state lives behind the
/// handle; `bufs` only carries allocations between turns.
fn respond(handle: &ServiceHandle, request: &str, bufs: &mut ConnBuffers) -> String {
    let out = std::mem::take(&mut bufs.out);
    let trimmed = request.trim();
    if trimmed.is_empty() {
        return error_into(out, "empty request");
    }
    let obj = match json::parse_flat(trimmed) {
        Ok(obj) => obj,
        Err(e) => return error_into(out, &format!("malformed request: {e}")),
    };
    let Some(op) = json::get_str(&obj, "op") else {
        return error_into(out, "missing \"op\" field");
    };
    match op {
        // The epoch runs on the epoch thread; this connection's thread
        // waits for it, and only this one.
        "epoch" => match handle.run_epoch_now() {
            Ok(outcome) => JsonObj::reuse(out)
                .bool("ok", true)
                .int("epoch", outcome.epoch)
                .bool("published", outcome.published)
                .int("live_version", outcome.live_version)
                .int("cycles", outcome.cycles as u64)
                .num("wall_ms", outcome.wall_ms)
                .finish(),
            Err(e) => serve_error(out, &e),
        },
        "ping" => {
            let snap = handle.snapshot();
            JsonObj::reuse(out)
                .bool("ok", true)
                .int("n", handle.n() as u64)
                .int("version", snap.version)
                .finish()
        }
        "score" => {
            let Some(peer) = json::get_index(&obj, "peer") else {
                return error_into(out, "score needs an integer \"peer\"");
            };
            match handle.get_score(NodeId(peer)) {
                Ok(view) => JsonObj::reuse(out)
                    .bool("ok", true)
                    .int("peer", view.peer.0 as u64)
                    .num("score", view.score)
                    .int("version", view.version)
                    .int("epoch", view.epoch)
                    .finish(),
                Err(e) => serve_error(out, &e),
            }
        }
        "rank" => {
            let Some(peer) = json::get_index(&obj, "peer") else {
                return error_into(out, "rank needs an integer \"peer\"");
            };
            match handle.rank_of(NodeId(peer)) {
                Ok(view) => JsonObj::reuse(out)
                    .bool("ok", true)
                    .int("peer", view.peer.0 as u64)
                    .int("exact_rank", view.exact_rank as u64)
                    .int("bloom_level", view.bloom_level as u64)
                    .int("levels", view.levels as u64)
                    .int("version", view.version)
                    .finish(),
                Err(e) => serve_error(out, &e),
            }
        }
        "top_k" => {
            let Some(k) = json::get_index(&obj, "k") else {
                return error_into(out, "top_k needs an integer \"k\"");
            };
            let view = handle.top_k(k as usize);
            // The peers array renders straight into the response buffer —
            // no per-request scratch `String`.
            JsonObj::reuse(out)
                .bool("ok", true)
                .int("version", view.version)
                .raw_with("peers", |dst| {
                    dst.push('[');
                    for (i, (id, score)) in view.peers.iter().enumerate() {
                        if i > 0 {
                            dst.push(',');
                        }
                        let _ = write!(dst, "[{},{}]", id.0, score);
                    }
                    dst.push(']');
                })
                .finish()
        }
        // The full Prometheus exposition, escaped into one JSON string —
        // same text the GT_METRICS_ADDR scrape listener serves.
        "metrics" => JsonObj::reuse(out)
            .bool("ok", true)
            .str("metrics", &handle.metrics_text())
            .finish(),
        "stats" => {
            let report = handle.stats_report();
            JsonObj::reuse(out)
                .bool("ok", true)
                .int("epochs_attempted", report.epochs_attempted)
                .int("epochs_published", report.epochs_published)
                .int("epochs_degraded", report.epochs_degraded)
                .int("epochs_panicked", report.epochs_panicked)
                .int("epochs_overrun", report.epochs_overrun)
                .int("queries_served", report.queries_served)
                .int("requests_shed", report.requests_shed)
                .int("conns_rejected", report.conns_rejected)
                .int("conns_timed_out", report.conns_timed_out)
                .int("wal_replayed_records", report.wal_replayed_records)
                .int("wal_appended_records", report.wal_appended_records)
                .int("events_ingested", handle.events_ingested())
                .int("gossip_steps", report.gossip.steps)
                .int("gossip_messages_sent", report.gossip.messages_sent)
                .int("gossip_messages_dropped", report.gossip.messages_dropped)
                .int("gossip_triplets_sent", report.gossip.triplets_sent)
                .num("last_epoch_wall_ms", report.last_epoch_wall_ms)
                .finish()
        }
        "feedback" => {
            let (Some(rater), Some(target), Some(score)) = (
                json::get_index(&obj, "rater"),
                json::get_index(&obj, "target"),
                json::get_num(&obj, "score"),
            ) else {
                return error_into(
                    out,
                    "feedback needs integer \"rater\"/\"target\" and numeric \"score\"",
                );
            };
            match handle.record(NodeId(rater), NodeId(target), score) {
                Ok(()) => JsonObj::reuse(out)
                    .bool("ok", true)
                    .int("events", handle.events_ingested())
                    .finish(),
                Err(e) => serve_error(out, &e),
            }
        }
        "batch" => {
            let Some(hex) = json::get_str(&obj, "data") else {
                return error_into(out, "batch needs a hex \"data\" field");
            };
            if !hex_decode_into(hex, &mut bufs.batch_bytes) {
                return error_into(out, "batch data is not valid hex");
            }
            let Some(batch) = FeedbackBatch::decode(&bufs.batch_bytes) else {
                return error_into(out, "batch data is not a valid FeedbackBatch frame");
            };
            bufs.ratings.clear();
            bufs.ratings
                .extend(batch.ratings.iter().map(|&(t, s)| (NodeId(t), s)));
            match handle.record_batch(NodeId(batch.rater), &bufs.ratings) {
                Ok(()) => JsonObj::reuse(out)
                    .bool("ok", true)
                    .int("accepted", bufs.ratings.len() as u64)
                    .int("events", handle.events_ingested())
                    .finish(),
                Err(e) => serve_error(out, &e),
            }
        }
        other => error_into(out, &format!("unknown op {other:?}")),
    }
}

/// Hex-encode bytes (lowercase), for framing `FeedbackBatch` into JSON.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decode lowercase/uppercase hex; `None` on odd length or non-hex bytes.
pub fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    if hex_decode_into(hex, &mut out) {
        Some(out)
    } else {
        None
    }
}

/// [`hex_decode`] into a recycled buffer (cleared first); `false` on odd
/// length or non-hex bytes.
pub fn hex_decode_into(hex: &str, out: &mut Vec<u8>) -> bool {
    out.clear();
    if !hex.len().is_multiple_of(2) {
        return false;
    }
    let digits = hex.as_bytes();
    out.reserve(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let &[hi, lo] = pair else { return false };
        let (Some(hi), Some(lo)) = ((hi as char).to_digit(16), (lo as char).to_digit(16)) else {
            return false;
        };
        out.push((hi * 16 + lo) as u8);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ReputationService, ServiceConfig};
    use std::io::{Cursor, Read};
    use std::net::SocketAddr;

    fn start_ring(n: usize) -> ReputationService {
        let service = ReputationService::start(ServiceConfig::new(n));
        let h = service.handle();
        for i in 0..n {
            h.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 2.0)
                .expect("in range");
        }
        service
    }

    /// Bind port 0 and run `accept_loop` on a detached thread (it ends with
    /// the test process).
    fn detached<F>(accept_loop: F) -> SocketAddr
    where
        F: FnOnce(TcpListener) -> io::Result<()> + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || accept_loop(listener));
        addr
    }

    fn spawn_server(service: &ReputationService, config: ServerConfig) -> SocketAddr {
        let handle = service.handle();
        detached(move |listener| serve_on_with(handle, listener, config))
    }

    /// A client whose every read gives up after five seconds — a server
    /// that fails to answer or close fails the test instead of hanging it.
    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set deadline");
        stream
    }

    fn read_reply_line(stream: &TcpStream) -> io::Result<String> {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        Ok(line.trim_end().to_string())
    }

    fn request_raw(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(format!("{line}\n").as_bytes()).expect("write");
        read_reply_line(stream).expect("read")
    }

    fn request(stream: &mut TcpStream, line: &str) -> json::FlatObject {
        json::parse_flat(&request_raw(stream, line)).expect("valid response")
    }

    fn is_ok(obj: &json::FlatObject) -> bool {
        obj.iter()
            .any(|(k, v)| k == "ok" && *v == json::JsonScalar::Bool(true))
    }

    /// One honest scrape: the parsed `(head, body)` with `Content-Length`
    /// checked against the body actually received.
    fn scrape(addr: SocketAddr) -> (String, String) {
        let mut stream = connect(addr);
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
            .expect("write request");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("scrape must answer promptly");
        let response = String::from_utf8(raw).expect("utf-8");
        let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
        let advertised: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content length")
            .parse()
            .expect("numeric length");
        assert_eq!(advertised, body.len(), "Content-Length matches the body");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn tcp_protocol_end_to_end() {
        let service = start_ring(12);
        let addr = spawn_server(&service, ServerConfig::default());

        let mut stream = connect(addr);
        let pong = request(&mut stream, "{\"op\":\"ping\"}");
        assert!(is_ok(&pong));
        assert_eq!(json::get_index(&pong, "n"), Some(12));

        let epoch = request(&mut stream, "{\"op\":\"epoch\"}");
        assert!(is_ok(&epoch));
        assert_eq!(json::get_index(&epoch, "live_version"), Some(1));

        let score = request(&mut stream, "{\"op\":\"score\",\"peer\":3}");
        assert!(is_ok(&score));
        assert_eq!(json::get_index(&score, "version"), Some(1));
        assert!(json::get_num(&score, "score").expect("score field") > 0.0);

        let rank = request(&mut stream, "{\"op\":\"rank\",\"peer\":3}");
        assert!(is_ok(&rank));
        assert!(json::get_index(&rank, "exact_rank").expect("rank field") < 12);

        // `peers` is an array of pairs, which the flat parser refuses.
        let top = request_raw(&mut stream, "{\"op\":\"top_k\",\"k\":3}");
        assert!(top.starts_with("{\"ok\":true,") && top.contains("\"peers\":[["), "{top}");

        // A bad request errors but keeps the connection usable.
        let bad = request(&mut stream, "{\"op\":\"score\",\"peer\":99}");
        assert!(!is_ok(&bad));
        assert!(json::get_str(&bad, "error")
            .expect("error field")
            .contains("unknown peer"));
        let still_alive = request(&mut stream, "{\"op\":\"ping\"}");
        assert!(is_ok(&still_alive));

        service.shutdown();
    }

    #[test]
    fn feedback_and_batch_ingest_over_tcp() {
        let service = start_ring(8);
        let addr = spawn_server(&service, ServerConfig::default());

        let mut stream = connect(addr);
        let before = service.handle().events_ingested();
        let single =
            request(&mut stream, "{\"op\":\"feedback\",\"rater\":1,\"target\":2,\"score\":1.5}");
        assert!(is_ok(&single));

        let frame = FeedbackBatch { rater: 3, epoch_hint: 0, ratings: vec![(4, 1.0), (5, 2.0)] };
        let line = JsonObj::new()
            .str("op", "batch")
            .str("data", &hex_encode(&frame.encode()))
            .finish();
        let batch = request(&mut stream, &line);
        assert!(is_ok(&batch));
        assert_eq!(json::get_index(&batch, "accepted"), Some(2));
        assert_eq!(service.handle().events_ingested(), before + 3);

        let garbage = request(&mut stream, "{\"op\":\"batch\",\"data\":\"zz\"}");
        assert!(!is_ok(&garbage));
        let malformed = request(&mut stream, "not json at all");
        assert!(!is_ok(&malformed));

        service.shutdown();
    }

    #[test]
    fn slow_loris_connections_are_reaped_by_the_read_deadline() {
        let service = start_ring(8);
        let config =
            ServerConfig { read_timeout: Duration::from_millis(50), ..ServerConfig::default() };
        let addr = spawn_server(&service, config);

        let mut stream = connect(addr);
        // A partial request line, then silence: the classic slow loris.
        stream.write_all(b"{\"op\":\"pi").expect("write");
        let mut closing = Vec::new();
        stream
            .read_to_end(&mut closing)
            .expect("server must reap the stalled connection");
        assert!(
            String::from_utf8_lossy(&closing).contains("read timeout"),
            "the reap is announced before the close"
        );
        assert_eq!(service.handle().stats_report().conns_timed_out, 1);

        // A fresh, honest connection still gets served.
        let mut stream = connect(addr);
        assert!(is_ok(&request(&mut stream, "{\"op\":\"ping\"}")));

        service.shutdown();
    }

    #[test]
    fn oversize_lines_are_refused_with_an_error_line() {
        let service = start_ring(8);
        let config = ServerConfig { max_line_bytes: 64, ..ServerConfig::default() };
        let addr = spawn_server(&service, config);

        let mut stream = connect(addr);
        stream.write_all(&[b'x'; 256]).expect("write");
        let mut closing = Vec::new();
        stream
            .read_to_end(&mut closing)
            .expect("server must refuse the oversize line");
        assert!(String::from_utf8_lossy(&closing).contains("request line too long"));

        service.shutdown();
    }

    #[test]
    fn connection_limit_sheds_with_a_retriable_error() {
        let service = start_ring(8);
        let config = ServerConfig { max_conns: 1, ..ServerConfig::default() };
        let addr = spawn_server(&service, config);

        let mut first = connect(addr);
        assert!(is_ok(&request(&mut first, "{\"op\":\"ping\"}")));

        // The second concurrent connection is shed at accept: the server
        // volunteers one rejection line and closes (the client writes
        // nothing, so the close is a clean EOF, not a reset).
        let mut second = connect(addr);
        let mut rejection = Vec::new();
        second
            .read_to_end(&mut rejection)
            .expect("rejection must arrive promptly");
        let shed = json::parse_flat(String::from_utf8_lossy(&rejection).trim())
            .expect("rejection is one valid JSON line");
        assert!(!is_ok(&shed));
        assert!(json::get_str(&shed, "error")
            .expect("error field")
            .contains("connection limit"));
        assert!(
            shed.iter()
                .any(|(k, v)| k == "retriable" && *v == json::JsonScalar::Bool(true)),
            "the shed must be advertised as retriable"
        );
        assert_eq!(service.handle().stats_report().conns_rejected, 1);

        // Closing the first connection frees the slot (the guard decrements
        // on thread exit, so poll briefly). Rejected retries are tolerated,
        // not fatal — exactly how a backing-off client would behave.
        drop(first);
        let mut served = false;
        for _ in 0..100 {
            let mut retry = connect(addr);
            let reply = retry
                .write_all(b"{\"op\":\"ping\"}\n")
                .and_then(|()| read_reply_line(&retry));
            if reply.is_ok_and(|r| r.contains("\"ok\":true")) {
                served = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(served, "a freed slot must admit a retrying client");

        service.shutdown();
    }

    #[test]
    fn metrics_verb_returns_the_exposition() {
        let service = start_ring(8);
        let addr = spawn_server(&service, ServerConfig::default());

        let mut stream = connect(addr);
        assert!(is_ok(&request(&mut stream, "{\"op\":\"epoch\"}")));
        assert!(is_ok(&request(&mut stream, "{\"op\":\"score\",\"peer\":3}")));
        let reply = request(&mut stream, "{\"op\":\"metrics\"}");
        assert!(is_ok(&reply));
        let text = json::get_str(&reply, "metrics").expect("metrics field");
        for name in [
            "gt_request_latency_ns",
            "gt_query_latency_ns",
            "gt_ingest_latency_ns",
            "gt_epoch_fold_ns",
            "gt_epochs_published_total",
            "gt_requests_shed_total",
        ] {
            assert!(text.contains(name), "exposition is missing {name}:\n{text}");
        }
        // The epoch and query above must already show up in the histograms.
        assert!(text.contains("gt_query_latency_ns_count 1"), "query was timed:\n{text}");
        assert!(text.contains("gt_epochs_published_total 1"), "epoch was counted:\n{text}");

        service.shutdown();
    }

    #[test]
    fn scrape_listener_speaks_enough_http() {
        let service = start_ring(8);
        let handle = service.handle();
        let addr = detached(move |listener| serve_metrics_on(handle, listener));
        service.handle().run_epoch_now().expect("epoch runs");

        let (head, body) = scrape(addr);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "status line: {head}");
        assert!(head.contains("text/plain; version=0.0.4"), "content type: {head}");
        assert!(body.contains("gt_epoch_fold_ns"), "exposition body:\n{body}");
        assert!(body.contains("gt_wal_append_ns"), "exposition body:\n{body}");

        service.shutdown();
    }

    #[test]
    fn scrape_head_is_bounded_in_time_and_bytes() {
        let service = start_ring(8);
        let handle = service.handle();
        let budget = Duration::from_millis(100);
        let addr = detached(move |listener| serve_scrapes(&handle, &listener, budget));

        // A head that stalls mid-header: closed unanswered by the one head
        // deadline, long before this client's own five seconds.
        let mut stalled = connect(addr);
        stalled
            .write_all(b"GET /metrics HTTP/1.1\r\nHost:")
            .expect("write partial head");
        let mut seen = Vec::new();
        let closed = stalled.read_to_end(&mut seen);
        assert_eq!(closed.expect("the server must cut a stalled head off"), 0);

        // A newline-free flood: closed unanswered at the line cap instead
        // of being buffered (the close may reset us mid-flood).
        let mut flood = connect(addr);
        let _ = flood.write_all(&vec![b'x'; 16 * SCRAPE_HEAD_LINE_BYTES]);
        let _ = flood.read_to_end(&mut seen);
        assert!(seen.is_empty(), "a newline-free head gets no response");

        // The inline, serial listener is past both (`flood` is still open:
        // were it not cut off, this scrape would wait behind it and fail).
        let (head, _body) = scrape(addr);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "status line: {head}");

        service.shutdown();
    }

    /// Drive `read_capped_line` over in-memory bytes; `chunk` is the
    /// `BufReader` capacity, i.e. the most one `fill_buf` may return.
    fn capped(input: &[u8], chunk: usize, cap: usize) -> io::Result<Option<Vec<u8>>> {
        let mut reader = BufReader::with_capacity(chunk, Cursor::new(input));
        let mut line = Vec::new();
        read_capped_line(&mut reader, &mut line, cap, || Ok(())).map(|got| got.then_some(line))
    }

    #[test]
    fn read_capped_line_enforces_the_cap_wherever_the_newline_lands() {
        const CAP: usize = 64;
        let line_of = |len: usize| {
            let mut bytes = vec![b'x'; len];
            bytes.push(b'\n');
            bytes
        };
        let too_long = |r: io::Result<Option<Vec<u8>>>| {
            r.expect_err("over the cap").kind() == io::ErrorKind::InvalidData
        };
        // Newline inside the first chunk (the whole input is one chunk) and
        // several chunks away: cap − 1 and cap fit, cap + 1 does not.
        for chunk in [4 * CAP, 16] {
            for len in [CAP - 1, CAP] {
                let got = capped(&line_of(len), chunk, CAP).expect("within the cap");
                assert_eq!(got.expect("a line").len(), len, "chunk {chunk}, len {len}");
            }
            assert!(too_long(capped(&line_of(CAP + 1), chunk, CAP)), "chunk {chunk}");
            // Newline-free: refused as soon as the cap is crossed.
            assert!(too_long(capped(&vec![b'x'; 4 * CAP], chunk, CAP)), "chunk {chunk}");
        }
    }

    #[test]
    fn read_capped_line_distinguishes_clean_eof_from_eof_mid_line() {
        assert_eq!(capped(b"", 16, 64).expect("eof"), None, "clean EOF");
        assert_eq!(capped(b"abc", 16, 64).expect("eof"), Some(b"abc".to_vec()), "EOF mid-line");
        // Lines come out one per call, newline stripped, empty lines kept.
        let mut reader = Cursor::new(&b"one\n\ntwo"[..]);
        let mut line = Vec::new();
        for expected in [&b"one"[..], b"", b"two"] {
            assert!(read_capped_line(&mut reader, &mut line, 64, || Ok(())).expect("line"));
            assert_eq!(line, expected);
        }
        assert!(!read_capped_line(&mut reader, &mut line, 64, || Ok(())).expect("eof"));
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = [0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(hex_decode(&hex_encode(&bytes)).expect("valid"), bytes);
        assert!(hex_decode("abc").is_none(), "odd length rejected");
        assert!(hex_decode("zz").is_none(), "non-hex rejected");
    }
}
