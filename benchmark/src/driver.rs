//! The line driver: request-line bytes in → response-line bytes out.
//!
//! The tokio front-end (`gossiptrust_serve::server`) cannot run where this
//! repository is built, and its `respond`/`respond_sync` are private, so the
//! benchmark's service boundary is the request line. This file performs, in
//! `server.rs`'s order and with the same per-connection buffer reuse,
//! `json::parse_flat` → `json::get_*` → (`hex_decode_into` →
//! `FeedbackBatch::decode` for `batch`) → `ServiceHandle::*` →
//! `JsonObj::reuse(..)…finish()`, through public items only. Socket
//! read/write and the task hop are *not* covered (README, "What the line
//! boundary leaves out").
//!
//! Spans go to a [`Trace`]; with [`NoTrace`](crate::trace::NoTrace) they
//! compile to nothing.

use crate::trace::Trace;
use gossiptrust_core::id::NodeId;
use gossiptrust_net::codec::FeedbackBatch;
use gossiptrust_serve::json::{self, JsonObj};
use gossiptrust_serve::server::hex_decode_into;
use gossiptrust_serve::{ServeError, ServiceHandle};
use std::fmt::Write as _;

/// One client connection's reusable buffers (server.rs's `ConnBuffers`).
#[derive(Default)]
pub struct LineDriver {
    /// The response line under construction; recycled every turn.
    out: String,
    batch_bytes: Vec<u8>,
    ratings: Vec<(NodeId, f64)>,
}

fn error_into(buf: String, message: &str) -> String {
    JsonObj::reuse(buf).bool("ok", false).str("error", message).finish()
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

/// Run `call` inside a span named `name` under `root`.
#[inline(always)]
fn spanned<T: Trace, R>(
    tr: &mut T,
    name: &'static str,
    root: u32,
    op_id: u64,
    call: impl FnOnce() -> R,
) -> R {
    let span = tr.begin(name, root, op_id);
    let result = call();
    tr.end(span);
    result
}

impl LineDriver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Answer one request line; the returned slice is the response line
    /// (newline included) and stays valid until the next call.
    pub fn respond<T: Trace>(
        &mut self,
        handle: &ServiceHandle,
        line: &str,
        tr: &mut T,
        op_id: u64,
    ) -> &str {
        let root = tr.begin("request", crate::trace::NONE, op_id);
        let out = std::mem::take(&mut self.out);
        let mut response = self.dispatch(handle, line, out, tr, root, op_id);
        response.push('\n');
        self.out = response;
        tr.end(root);
        &self.out
    }

    fn dispatch<T: Trace>(
        &mut self,
        handle: &ServiceHandle,
        request: &str,
        out: String,
        tr: &mut T,
        root: u32,
        op_id: u64,
    ) -> String {
        let trimmed = request.trim();
        if trimmed.is_empty() {
            return error_into(out, "empty request");
        }
        let parsed = spanned(tr, "json.parse", root, op_id, || json::parse_flat(trimmed));
        let obj = match parsed {
            Ok(obj) => obj,
            Err(e) => return error_into(out, &format!("malformed request: {e}")),
        };
        let Some(op) = json::get_str(&obj, "op") else {
            return error_into(out, "missing \"op\" field");
        };
        match op {
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
                let result =
                    spanned(tr, "handle.score", root, op_id, || handle.get_score(NodeId(peer)));
                match result {
                    Ok(view) => spanned(tr, "json.encode", root, op_id, || {
                        JsonObj::reuse(out)
                            .bool("ok", true)
                            .int("peer", view.peer.0 as u64)
                            .num("score", view.score)
                            .int("version", view.version)
                            .int("epoch", view.epoch)
                            .finish()
                    }),
                    Err(e) => serve_error(out, &e),
                }
            }
            "rank" => {
                let Some(peer) = json::get_index(&obj, "peer") else {
                    return error_into(out, "rank needs an integer \"peer\"");
                };
                let result =
                    spanned(tr, "handle.rank", root, op_id, || handle.rank_of(NodeId(peer)));
                match result {
                    Ok(view) => spanned(tr, "json.encode", root, op_id, || {
                        JsonObj::reuse(out)
                            .bool("ok", true)
                            .int("peer", view.peer.0 as u64)
                            .int("exact_rank", view.exact_rank as u64)
                            .int("bloom_level", view.bloom_level as u64)
                            .int("levels", view.levels as u64)
                            .int("version", view.version)
                            .finish()
                    }),
                    Err(e) => serve_error(out, &e),
                }
            }
            "top_k" => {
                let Some(k) = json::get_index(&obj, "k") else {
                    return error_into(out, "top_k needs an integer \"k\"");
                };
                let view = spanned(tr, "handle.topk", root, op_id, || handle.top_k(k as usize));
                spanned(tr, "json.encode", root, op_id, || {
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
                })
            }
            "metrics" => JsonObj::reuse(out)
                .bool("ok", true)
                .str("metrics", &handle.metrics_text())
                .finish(),
            "stats" => {
                let report = spanned(tr, "handle.stats", root, op_id, || handle.stats_report());
                spanned(tr, "json.encode", root, op_id, || {
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
                })
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
                let result = spanned(tr, "handle.record", root, op_id, || {
                    handle.record(NodeId(rater), NodeId(target), score)
                });
                match result {
                    Ok(()) => spanned(tr, "json.encode", root, op_id, || {
                        JsonObj::reuse(out)
                            .bool("ok", true)
                            .int("events", handle.events_ingested())
                            .finish()
                    }),
                    Err(e) => serve_error(out, &e),
                }
            }
            "batch" => {
                let Some(hex) = json::get_str(&obj, "data") else {
                    return error_into(out, "batch needs a hex \"data\" field");
                };
                let valid = spanned(tr, "server.hex_decode", root, op_id, || {
                    hex_decode_into(hex, &mut self.batch_bytes)
                });
                if !valid {
                    return error_into(out, "batch data is not valid hex");
                }
                let decoded = spanned(tr, "codec.batch_decode", root, op_id, || {
                    FeedbackBatch::decode(&self.batch_bytes)
                });
                let Some(batch) = decoded else {
                    return error_into(out, "batch data is not a valid FeedbackBatch frame");
                };
                self.ratings.clear();
                self.ratings
                    .extend(batch.ratings.iter().map(|&(t, s)| (NodeId(t), s)));
                let result = spanned(tr, "handle.record_batch", root, op_id, || {
                    handle.record_batch(NodeId(batch.rater), &self.ratings)
                });
                match result {
                    Ok(()) => spanned(tr, "json.encode", root, op_id, || {
                        JsonObj::reuse(out)
                            .bool("ok", true)
                            .int("accepted", self.ratings.len() as u64)
                            .int("events", handle.events_ingested())
                            .finish()
                    }),
                    Err(e) => serve_error(out, &e),
                }
            }
            // server.rs pushes only the wait off the async worker; without
            // a runtime the line driver waits in place.
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
            other => error_into(out, &format!("unknown op {other:?}")),
        }
    }
}

/// The cheap every-response check: the line opens with `{"ok":true` and
/// closes with `}\n` (the writer emits keys in call order, so the prefix is
/// exact).
#[inline]
pub fn looks_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true") && response.ends_with("}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{one_of_each, FeedbackGraph, OpKind};
    use crate::minijson;
    use crate::trace::NoTrace;
    use gossiptrust_serve::{ReputationService, ServiceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The response fields of server.rs's protocol table, verb by verb.
    fn expected_fields(kind: OpKind) -> &'static [&'static str] {
        match kind {
            OpKind::Ping => &["ok", "n", "version"],
            OpKind::Score => &["ok", "peer", "score", "version", "epoch"],
            OpKind::Rank => &[
                "ok",
                "peer",
                "exact_rank",
                "bloom_level",
                "levels",
                "version",
            ],
            OpKind::TopK => &["ok", "version", "peers"],
            OpKind::Stats => &[
                "ok",
                "epochs_attempted",
                "epochs_published",
                "epochs_degraded",
                "epochs_panicked",
                "epochs_overrun",
                "queries_served",
                "requests_shed",
                "conns_rejected",
                "conns_timed_out",
                "wal_replayed_records",
                "wal_appended_records",
                "events_ingested",
                "gossip_steps",
                "gossip_messages_sent",
                "gossip_messages_dropped",
                "gossip_triplets_sent",
                "last_epoch_wall_ms",
            ],
            OpKind::Feedback => &["ok", "events"],
            OpKind::Batch => &["ok", "accepted", "events"],
            OpKind::Epoch => &[
                "ok",
                "epoch",
                "published",
                "live_version",
                "cycles",
                "wall_ms",
            ],
            OpKind::Metrics => &["ok", "metrics"],
        }
    }

    /// Satellite self-test: the line driver's reply for every verb carries
    /// exactly the fields of server.rs's protocol table, `ok` first.
    #[test]
    fn replies_match_the_protocol_table_for_every_verb() {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = FeedbackGraph::generate(32, &mut rng);
        let mut config = ServiceConfig::new(32);
        config.params.threads = 1;
        let service = ReputationService::start(config);
        let handle = service.handle();
        for batch in graph.base(2, &mut rng) {
            handle.record_batch(batch.rater, &batch.ratings).expect("in range");
        }
        let pool = one_of_each(&graph, &mut rng);
        let mut driver = LineDriver::new();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..pool.len() {
            let reply = driver
                .respond(&handle, pool.line(i), &mut NoTrace, i as u64)
                .to_string();
            assert!(looks_ok(&reply), "{:?} → {reply}", pool.kind(i));
            let doc = minijson::parse(reply.trim_end()).expect("reply is JSON");
            let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, expected_fields(pool.kind(i)), "{:?}", pool.kind(i));
            if !matches!(pool.kind(i), OpKind::TopK) {
                let flat = json::parse_flat(reply.trim_end()).expect("flat replies parse_flat");
                assert_eq!(flat.first().map(|(k, _)| k.as_str()), Some("ok"));
            }
            seen.insert(pool.kind(i));
        }
        assert_eq!(seen.len(), 9, "one line of each of the nine verbs");
        service.shutdown();
    }

    #[test]
    fn bad_lines_answer_ok_false_and_keep_going() {
        let service = ReputationService::start(ServiceConfig::new(4));
        let handle = service.handle();
        let mut driver = LineDriver::new();
        for line in [
            "",
            "{",
            "{\"op\":\"nope\"}",
            "{\"op\":\"score\",\"peer\":9}",
            "{\"op\":\"batch\",\"data\":\"zz\"}",
        ] {
            let reply = driver.respond(&handle, line, &mut NoTrace, 0).to_string();
            assert!(reply.starts_with("{\"ok\":false"), "{line:?} → {reply}");
            assert!(!looks_ok(&reply));
        }
        service.shutdown();
    }
}
