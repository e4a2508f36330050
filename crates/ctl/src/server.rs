//! The line-delimited JSON-RPC control-plane server.
//!
//! One request per line, one response per line: a request is
//! `{"id": .., "method": "..", "params": {..}}` and the response echoes the
//! id with either a `result` or a typed `error` (`{"field", "reason"}` —
//! the same shape scenario validation produces). The protocol layer
//! ([`ControlPlane`]) is plain request-in/response-out with no I/O of its
//! own, so it is driven identically by the TCP loop ([`serve`]), tests and
//! examples; scenarios and checkpoints travel *inline* in requests and
//! responses, which keeps the server free of filesystem access entirely.
//!
//! Sessions are named: `load` creates one, `fork` branches one in memory,
//! and every other method addresses one by name, so a single server can
//! hold a warm baseline and several what-if branches at once.
//!
//! On the wire a *turn* — the frame lines a request owes its connection
//! plus the one response — leaves in a single write on a `TCP_NODELAY`
//! socket, and a request line may be at most 16 MiB (DESIGN.md "Framing
//! and latency").

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use openoptics_core::json::{self, object, Json, Reader, Writer};

use crate::checkpoint::{Checkpoint, Op};
use crate::scenario::{Scenario, ScenarioError};
use crate::session::Session;

/// Most frames pushed to one subscriber per request turn. A subscriber
/// that falls further behind gets the first `MAX_FRAMES_PER_TURN` frames
/// plus one `overflow` frame counting what was skipped — bounded
/// back-pressure instead of an unbounded write burst.
pub const MAX_FRAMES_PER_TURN: usize = 1024;

/// Longest request line accepted, newline excluded. A longer line is
/// discarded unparsed and answered with a typed error; the connection
/// stays open.
const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Per-connection subscription state: which sessions this connection
/// streams frames from, and how far into each session's frame log it has
/// read. Owned by the connection loop — dropping it (client disconnect)
/// tears down only that connection's subscriptions, never the sessions.
#[derive(Clone, Debug, Default)]
pub struct Subscriptions {
    cursors: BTreeMap<String, usize>,
}

impl Subscriptions {
    /// No subscriptions.
    pub fn new() -> Subscriptions {
        Subscriptions::default()
    }
}

/// The protocol state machine: named sessions plus request dispatch.
///
/// Holds no sockets and touches no files — callers feed it one request
/// document at a time and write back the response however they like.
#[derive(Default)]
pub struct ControlPlane {
    sessions: BTreeMap<String, Session>,
    shutdown: bool,
}

impl ControlPlane {
    /// An empty control plane.
    pub fn new() -> ControlPlane {
        ControlPlane::default()
    }

    /// True once a `shutdown` request has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Handle one request line, returning the response line (no trailing
    /// newline). Subscription-free convenience over
    /// [`ControlPlane::handle_request`]: `subscribe` still validates but
    /// the throwaway state means no frames will ever be delivered.
    pub fn handle_line(&mut self, line: &str) -> String {
        let mut subs = Subscriptions::new();
        self.handle_request(line, &mut subs).pop().unwrap_or_default()
    }

    /// Handle one request line against a connection's subscription state.
    ///
    /// Returns the lines to write back in order: zero or more frame lines
    /// (`{"sub": "<session>", "frame": {..}}`) — the delta each subscribed
    /// session's frame log accumulated since the connection last drained
    /// it, capped at [`MAX_FRAMES_PER_TURN`] per subscription with an
    /// `overflow` frame counting anything skipped — then exactly one
    /// id-matched response line. Interleaving `run_until`/`run_for`
    /// requests with drains on the same connection is what streams a live
    /// run.
    pub fn handle_request(&mut self, line: &str, subs: &mut Subscriptions) -> Vec<String> {
        let response = match json::parse(line) {
            Ok(req) => {
                let id = req.get("id").unwrap_or(&Json::Null);
                response_line(id, |w| self.dispatch(&req, subs, w))
            }
            Err(e) => refusal(ScenarioError::new("request", e.to_string())),
        };
        self.turn(response, subs)
    }

    /// One turn's lines: the frames owed to `subs`, then `response`.
    fn turn(&self, response: String, subs: &mut Subscriptions) -> Vec<String> {
        let mut out = self.drain_frames(subs);
        out.push(response);
        out
    }

    /// Frame lines owed to `subs` since the last drain, advancing every
    /// cursor. This is where a frame becomes a line (`Engine::write_frame`
    /// renders a sample from its row, once per subscriber that drains it,
    /// and splices an event frame's stored line in). Subscriptions to sessions that no
    /// longer exist stay registered but yield nothing.
    fn drain_frames(&self, subs: &mut Subscriptions) -> Vec<String> {
        let mut out = Vec::new();
        for (name, cursor) in subs.cursors.iter_mut() {
            let Some(s) = self.sessions.get(name) else { continue };
            let engine = &s.net().engine;
            let frames = engine.frames();
            let fresh = frames.since(*cursor);
            let take = fresh.len().min(MAX_FRAMES_PER_TURN);
            out.extend(
                fresh[..take].iter().map(|f| frame_line(name, |w| engine.write_frame(f, w))),
            );
            if fresh.len() > take {
                out.push(frame_line(name, |w| {
                    w.obj(|w| {
                        w.field("frame", "overflow");
                        w.field("skipped", fresh.len() - take);
                    })
                }));
            }
            *cursor = frames.len();
        }
        out
    }

    /// Run one request, writing its `result` value into the response
    /// line `w` is writing. What an `Err` interrupted is rewound.
    fn dispatch(
        &mut self,
        req: &Json,
        subs: &mut Subscriptions,
        w: &mut Writer,
    ) -> Result<(), ScenarioError> {
        let req = Reader::new(req, "");
        let method = req.req("method")?.str()?;
        let empty = Json::Obj(vec![]);
        let params = Reader::new(req.opt("params").map_or(&empty, |p| p.json()), "params");
        match method {
            "load" => {
                let name = params.req("name")?.str()?;
                let session = Session::new(Scenario::from_json(params.req("scenario")?.json())?)?;
                w.obj(|w| {
                    w.field("now_ns", session.now_ns());
                    w.field("stop_ns", session.stop_ns());
                    w.field("hosts", session.scenario().config.total_hosts());
                });
                self.sessions.insert(name.to_string(), session);
            }
            "status" => {
                let s = self.session(&params, "name")?;
                w.obj(|w| {
                    w.field("now_ns", s.now_ns());
                    w.field("stop_ns", s.stop_ns());
                    w.field("journal_len", s.journal().len());
                    w.field("events_scheduled", s.net().events_scheduled());
                });
            }
            "run_until" => {
                let ns = params.req("ns")?.u64()?;
                let s = self.session_mut(&params)?;
                s.run_until(ns);
                now_obj(s, w);
            }
            "run_for" => {
                let dur = params.req("dur_ns")?.u64()?;
                let s = self.session_mut(&params)?;
                s.run_for(dur);
                now_obj(s, w);
            }
            // The params of these methods are the journal entry of the same
            // name, and errors are reported against that form.
            "add_flow" | "inject_faults" | "reconfigure" => {
                let op = Op::from_json(Reader::new(params.json(), "journal[0]"), method)?;
                let s = self.session_mut(&params)?;
                s.apply(op)?;
                now_obj(s, w);
            }
            "export" => {
                let what = params.req("what")?;
                let kind = what.str()?;
                let s = self.session(&params, "name")?;
                let net = s.net();
                let refused = |e: openoptics_core::Error| what.err(e.to_string());
                // Each export is written straight into the response line,
                // escaped as it goes.
                w.obj(|w| {
                    w.key("text");
                    match kind {
                        "bundle" => w.text_of(|t| s.write_bundle(t)),
                        "telemetry" => w.string_of(|w| w.value(net.telemetry_snapshot())),
                        "telemetry_csv" => w.text_of(|t| net.telemetry_snapshot().write_csv(t)),
                        "trace" => w.text_of(|t| net.write_trace(t)).map_err(refused)?,
                        "timeseries" => w.text_of(|t| net.write_timeseries(t)).map_err(refused)?,
                        "slo" => w.text_of(|t| net.write_slo_report(t)).map_err(refused)?,
                        "spans" => w.string_of(|w| net.write_spans_chrome_trace(w)).map_err(refused)?,
                        "span_report" => w.text_of(|t| net.write_span_report(t)).map_err(refused)?,
                        other => {
                            return Err(what.err(format!("unknown export `{other}` (want bundle, telemetry, telemetry_csv, trace, timeseries, slo, spans or span_report)")))
                        }
                    }
                    Ok(())
                })?;
            }
            "subscribe" => {
                // The cursor starts at the current end of the frame log:
                // a subscriber streams what happens from now on, not
                // history (use `export timeseries` for history). Neither
                // subscribe nor unsubscribe is journaled — subscriptions
                // are connection state, not simulation state.
                let cursor = self.session(&params, "name")?.net().frames().len();
                subs.cursors.insert(params.req("name")?.str()?.to_string(), cursor);
                w.obj(|w| {
                    w.field("subscribed", true);
                    w.field("cursor", cursor);
                });
            }
            "unsubscribe" => {
                let was = subs.cursors.remove(params.req("name")?.str()?).is_some();
                w.obj(|w| {
                    w.field("subscribed", false);
                    w.field("was_subscribed", was);
                });
            }
            "checkpoint" => {
                let ckpt = self.session(&params, "name")?.checkpoint();
                w.obj(|w| w.field("checkpoint", &ckpt));
            }
            "restore" => {
                let name = params.req("name")?.str()?;
                let ckpt = Checkpoint::from_json(params.req("checkpoint")?.json())?;
                let s = match self.twin(&ckpt) {
                    Some(twin) => twin.fork(),
                    None => Session::restore(ckpt, None)?,
                };
                now_obj(&s, w);
                self.sessions.insert(name.to_string(), s);
            }
            "fork" => {
                let branch = self.session(&params, "from")?.fork();
                now_obj(&branch, w);
                self.sessions.insert(params.req("name")?.str()?.to_string(), branch);
            }
            "sessions" => {
                let names: Vec<&String> = self.sessions.keys().collect();
                w.obj(|w| w.field("names", &names));
            }
            "shutdown" => {
                self.shutdown = true;
                w.obj(|w| w.field("ok", true));
            }
            other => return Err(ScenarioError::new("method", format!("unknown method `{other}`"))),
        }
        Ok(())
    }

    /// The first session, in name order, that is at the state `ckpt`
    /// restores: its own checkpoint renders to the same document. The
    /// scenario, journal and `now` determine a session's state (the replay
    /// contract `restore` rests on), so a fork of the twin is the session a
    /// replay would build. Only sessions at the checkpoint's `now` with a
    /// journal as long as its are rendered.
    fn twin(&self, ckpt: &Checkpoint) -> Option<&Session> {
        let mut doc = None;
        self.sessions.values().find(|s| {
            s.now_ns() == ckpt.at_ns
                && s.journal().len() == ckpt.journal.len()
                && *doc.get_or_insert_with(|| json::render(ckpt)) == json::render(&s.checkpoint())
        })
    }

    /// The session named by string param `key`.
    fn session(&self, params: &Reader<'_>, key: &str) -> Result<&Session, ScenarioError> {
        let at = params.req(key)?;
        let name = at.str()?;
        self.sessions.get(name).ok_or_else(|| at.err(format!("no session named `{name}`")))
    }

    fn session_mut(&mut self, params: &Reader<'_>) -> Result<&mut Session, ScenarioError> {
        let at = params.req("name")?;
        let name = at.str()?;
        self.sessions.get_mut(name).ok_or_else(|| at.err(format!("no session named `{name}`")))
    }
}

/// One streamed line: the subscription's name and the frame `frame` writes.
fn frame_line(sub: &str, frame: impl FnOnce(&mut Writer)) -> String {
    object(|w| {
        w.field("sub", sub);
        w.key("frame");
        frame(w);
    })
}

fn now_obj(s: &Session, w: &mut Writer) {
    w.obj(|w| w.field("now_ns", s.now_ns()));
}

/// The response line to request `id`: the `result` that `dispatch` writes,
/// or — if it fails, even half-way — the typed `error` instead.
fn response_line(
    id: &Json,
    dispatch: impl FnOnce(&mut Writer) -> Result<(), ScenarioError>,
) -> String {
    object(|w| {
        w.field("id", id);
        let before = w.mark();
        w.key("result");
        if let Err(e) = dispatch(w) {
            w.rewind(before);
            w.key("error");
            w.obj(|w| {
                w.field("field", &e.field);
                w.field("reason", &e.reason);
            });
        }
    })
}

/// The response to a request that could not be read: an `error` with a
/// null id.
fn refusal(e: ScenarioError) -> String {
    response_line(&Json::Null, |_| Err(e))
}

/// Bind `addr` and serve the control plane over TCP until a `shutdown`
/// request arrives.
pub fn serve(addr: &str) -> std::io::Result<()> {
    serve_on(TcpListener::bind(addr)?, None)
}

/// Serve an already-bound listener until a `shutdown` request arrives.
///
/// Binding separately lets callers use port 0 and read the OS-assigned
/// port from `listener.local_addr()` before handing the listener over —
/// how the end-to-end example and tests avoid port collisions.
/// Connections are handled one at a time (the simulator is single-run
/// deterministic state — concurrent mutation would be a bug, not a
/// feature) and each connection may carry any number of request lines.
///
/// The second parameter is reserved: `benchmark/` passes `Some(1)` here.
pub fn serve_on(listener: TcpListener, _reserved: Option<usize>) -> std::io::Result<()> {
    let mut cp = ControlPlane::new();
    for stream in listener.incoming() {
        let stream = stream?;
        // A client dropping mid-request or mid-stream is that client's
        // problem: its subscription state dies with the connection loop
        // below, the sessions and the accept loop keep serving.
        if let Err(e) = serve_connection(&mut cp, stream) {
            eprintln!("openoptics-ctl: connection ended with error: {e}");
        }
        if cp.shutdown_requested() {
            break;
        }
    }
    Ok(())
}

fn serve_connection(cp: &mut ControlPlane, stream: TcpStream) -> std::io::Result<()> {
    // A client waits for each response before it sends the next request,
    // so there is never a later segment for Nagle's algorithm to merge a
    // held one with: holding only adds the peer's delayed-ACK timer.
    stream.set_nodelay(true)?;
    serve_lines(cp, BufReader::new(&stream), &stream)
}

/// The connection loop: one request line in, one turn out, until EOF or a
/// `shutdown` request. A turn is written with a single `write_all`, so a
/// response is never split across segments that wait for each other.
fn serve_lines(
    cp: &mut ControlPlane,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    let mut subs = Subscriptions::new();
    let mut line = Vec::new();
    while !cp.shutdown_requested() {
        line.clear();
        // One byte over the limit tells an over-long line from a full one.
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        let request = if line.len() > MAX_REQUEST_BYTES {
            reader.skip_until(b'\n')?;
            Err(format!("request line longer than {MAX_REQUEST_BYTES} bytes"))
        } else {
            std::str::from_utf8(&line).map_err(|_| "request line is not UTF-8".to_string())
        };
        let mut lines = match request {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => cp.handle_request(text, &mut subs),
            Err(reason) => cp.turn(refusal(ScenarioError::new("request", reason)), &mut subs),
        };
        // A turn without frames is its response line: the (possibly
        // megabytes long) line is not copied again.
        let response = lines.pop().unwrap_or_default();
        let mut turn = if lines.is_empty() {
            response
        } else {
            let mut turn = String::with_capacity(
                lines.iter().map(|l| l.len() + 1).sum::<usize>() + response.len() + 1,
            );
            for l in &lines {
                turn.push_str(l);
                turn.push('\n');
            }
            turn.push_str(&response);
            turn
        };
        turn.push('\n');
        writer.write_all(turn.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough to inline, with telemetry and sampling on so that a
    /// subscribed `run_for` owes its connection frames.
    const SCENARIO: &str = r#"{"version":1,"config":{"node_num":4,"slice_ns":10000,"seed":7,"telemetry":true,"sample_every_ns":50000},"architecture":{"name":"rotornet"},"workloads":[{"kind":"flow","at_ns":100,"src":0,"dst":3,"bytes":200000}],"stop_ns":2000000}"#;

    /// A writer that remembers every `write` call it received (the
    /// server only ever writes whole `String`s).
    #[derive(Default)]
    struct Writes(Vec<String>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn request_error(reason: &str) -> String {
        format!(r#"{{"id":null,"error":{{"field":"request","reason":"{reason}"}}}}"#)
    }

    fn too_long() -> String {
        request_error(&format!("request line longer than {MAX_REQUEST_BYTES} bytes"))
    }

    #[test]
    fn each_turn_is_one_write_and_the_protocol_bytes_are_unchanged() -> std::io::Result<()> {
        let run = |id: u32| {
            format!(r#"{{"id":{id},"method":"run_for","params":{{"name":"s","dur_ns":100000}}}}"#)
        };
        // (request line, the id its response echoes).
        let transcript: Vec<(String, &str)> = vec![
            (
                format!(
                    r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{SCENARIO}}}}}"#
                ),
                "1",
            ),
            (r#"{"id":2,"method":"subscribe","params":{"name":"s"}}"#.into(), "2"),
            (run(3), "3"),
            (run(4), "4"),
            (run(5), "5"),
            (r#"{"id":6,"method":"status","params":{"name":"s"}}"#.into(), "6"),
            (r#"{"id":7,"method":"export","params":{"name":"s","what":"bundle"}}"#.into(), "7"),
            ("{not json".into(), "null"),
            ("x".repeat(MAX_REQUEST_BYTES + 1), "null"),
            (run(8), "8"),
            (r#"{"id":9,"method":"shutdown"}"#.into(), "9"),
        ];
        let after_shutdown = "{\"id\":10,\"method\":\"sessions\"}\n";
        let mut wire = String::new();
        for (line, _) in &transcript {
            // A blank line between requests is skipped, not answered.
            wire.push_str("  \n");
            wire.push_str(line);
            wire.push('\n');
        }
        wire.push_str(after_shutdown);

        let mut cp = ControlPlane::new();
        let mut reader = wire.as_bytes();
        let mut writes = Writes::default();
        serve_lines(&mut cp, &mut reader, &mut writes)?;

        // (c) The loop stopped at `shutdown`: what follows was never read.
        assert!(cp.shutdown_requested());
        assert_eq!(reader, after_shutdown.as_bytes());

        // (a) + (b) One write per request, and it is exactly the lines a
        // fresh `ControlPlane` returns for that request — frames first,
        // the id-matched response last — each newline-terminated. Only
        // the over-long line is the transport's to answer.
        assert_eq!(writes.0.len(), transcript.len());
        let mut fresh = ControlPlane::new();
        let mut subs = Subscriptions::new();
        let mut framed_turns = 0;
        for ((line, id), turn) in transcript.iter().zip(&writes.0) {
            let mut lines = if line.len() > MAX_REQUEST_BYTES {
                vec![too_long()]
            } else {
                fresh.handle_request(line, &mut subs)
            };
            assert_eq!(*turn, lines.join("\n") + "\n", "protocol bytes changed");
            let response = lines.pop().unwrap_or_default();
            assert!(response.starts_with(&format!(r#"{{"id":{id},"#)), "{id}: {response}");
            assert!(lines.iter().all(|f| f.starts_with(r#"{"sub":"s","frame":"#)), "{lines:?}");
            framed_turns += usize::from(!lines.is_empty());
        }
        assert!(framed_turns >= 3, "only {framed_turns} turns carried frames");
        Ok(())
    }

    #[test]
    fn hostile_lines_get_typed_errors_and_the_connection_survives() -> std::io::Result<()> {
        let load =
            format!(r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{SCENARIO}}}}}"#);
        let sessions = r#"{"id":2,"method":"sessions"}"#;
        let mut wire = Vec::new();
        wire.extend_from_slice(load.as_bytes());
        wire.push(b'\n');
        // Exactly the limit is a request like any other...
        wire.extend_from_slice(sessions.as_bytes());
        wire.resize(wire.len() + MAX_REQUEST_BYTES - sessions.len(), b' ');
        wire.push(b'\n');
        // ...one byte more is discarded through its newline, unparsed.
        wire.resize(wire.len() + MAX_REQUEST_BYTES + 1, b' ');
        wire.extend_from_slice(b"\n{\"id\":3,\"method\":\"caf\xe9\"}\n\n\r\n");
        // EOF in mid-line still ends a request.
        wire.extend_from_slice(br#"{"id":4,"method":"status","params":{"name":"s"}}"#);

        let mut cp = ControlPlane::new();
        let mut writes = Writes::default();
        serve_lines(&mut cp, wire.as_slice(), &mut writes)?;

        let turns = writes.0;
        assert_eq!(turns.len(), 5, "{turns:?}");
        assert!(turns[0].starts_with(r#"{"id":1,"result":"#), "{}", turns[0]);
        assert_eq!(turns[1], "{\"id\":2,\"result\":{\"names\":[\"s\"]}}\n");
        assert_eq!(turns[2], too_long() + "\n");
        assert_eq!(turns[3], request_error("request line is not UTF-8") + "\n");
        assert!(turns[4].starts_with(r#"{"id":4,"result":{"now_ns":0,"#), "{}", turns[4]);
        Ok(())
    }
}
