//! `ctl_service`: what operating the `openoptics-ctl` service costs.
//!
//! A server thread runs `openoptics_ctl::serve_on` on a loopback listener
//! and **one closed-loop client** (the next request is sent only after the
//! previous response arrived) drives a generated SLO scenario through the
//! whole protocol. Requests cross the host loopback interface, never a real
//! link. Exactly two threads: server and client. `core::json` and
//! `ctl::{scenario, session, server, checkpoint}` and export rendering do
//! most of the work and the data plane little — the inverse of `rotor_load`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use openoptics_core::json::{self, Json};
use openoptics_ctl::{Checkpoint, Scenario, Session};

use crate::sim::{install_profiler_clock, Ctx, Mix, Pass, Scale};
use crate::trace::Tracer;

/// Sizes of one session.
struct Sizes {
    /// `run_for` steps. Sized from measurement: at this commit every
    /// response costs ~44 ms regardless of the work behind it (the server
    /// writes body and newline separately, so Nagle's algorithm holds the
    /// newline until the client's delayed ACK fires), so ~240 requests make
    /// a 10 s session and a run holds two — the fewest that let a stalled
    /// request be told from a slow one. Once the service answers in its
    /// compute time a run holds hundreds of sessions.
    steps: u64,
    /// Simulated ns per step.
    step_ns: u64,
    /// Short flows listed in the scenario document.
    doc_flows: u64,
}

const FULL: Sizes = Sizes { steps: 200, step_ns: 20_000, doc_flows: 256 };
const SMOKE: Sizes = Sizes { steps: 8, step_ns: 20_000, doc_flows: 16 };

/// The scenario document for `seed`: an 8-ToR RotorNet with a memcached
/// service and bulk transfers under SLOs, mice, a fault window, telemetry,
/// span recording and time-series sampling on.
pub fn scenario_doc(seed: u64, sz_flows: u64, stop_ns: u64) -> String {
    let mut mix = Mix(seed ^ 0x0c71_5e71);
    let server = mix.below(8);
    let clients: Vec<String> =
        (0..8).filter(|h| *h != server).take(3).map(|h| h.to_string()).collect();
    let mut workloads = vec![format!(
        "{{\"kind\":\"memcached\",\"server\":{server},\"clients\":[{}],\"stop_ns\":{},\"mean_interval_ns\":100000,\"service\":\"cache\"}}",
        clients.join(","),
        stop_ns * 7 / 8
    )];
    // The offered bytes are the same for every seed; the seed places them.
    // Four bulk transfers, so exactly one falls in the 1-in-4 span sample.
    for _ in 0..4 {
        let (src, dst) = mix.pair(8);
        workloads.push(format!(
            "{{\"kind\":\"flow\",\"at_ns\":100,\"src\":{src},\"dst\":{dst},\"bytes\":750000,\"service\":\"bulk\"}}"
        ));
    }
    for k in 0..sz_flows {
        let (src, dst) = mix.pair(8);
        workloads.push(format!(
            "{{\"kind\":\"flow\",\"at_ns\":{},\"src\":{src},\"dst\":{dst},\"bytes\":{}}}",
            100 + mix.below(stop_ns / 2),
            2_000 + 30_000 * k / sz_flows
        ));
    }
    let down_start = 50_000 + mix.below(100_000);
    format!(
        "{{\"version\":1,\"description\":\"benchmark ctl_service seed {seed}\",\
\"config\":{{\"node_num\":8,\"uplink\":2,\"hosts_per_node\":1,\"slice_ns\":10000,\"guard_ns\":1000,\
\"uplink_gbps\":25,\"host_link_gbps\":100,\"sync_err_ns\":0,\"queue_capacity\":8388608,\
\"ocs_reconfig_ns\":20000,\"seed\":{seed},\"telemetry\":true,\"sample_every_ns\":100000,\"span_sample_every\":4}},\
\"architecture\":{{\"name\":\"rotornet\"}},\
\"routing\":{{\"algo\":\"vlb\",\"lookup\":\"per_hop\",\"multipath\":\"per_packet\"}},\
\"workloads\":[{}],\
\"slos\":[{{\"service\":\"cache\",\"latency_ns\":100000,\"objective_milli\":900,\"window_ns\":1000000}},\
{{\"service\":\"bulk\",\"latency_ns\":3000000,\"objective_milli\":500,\"window_ns\":1000000}}],\
\"faults\":[{{\"kind\":\"link_down\",\"node\":{},\"port\":0,\"start_ns\":{down_start},\"end_ns\":{}}}],\
\"stop_ns\":{stop_ns}}}",
        workloads.join(","),
        mix.below(8),
        down_start + 400_000
    )
}

/// The closed-loop client: one request in flight at a time.
struct Client<'a> {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    tracer: &'a Tracer,
}

impl Client<'_> {
    /// Send one request and wait for its response, draining subscription
    /// frames that precede it. Records the latency, counts the attempt,
    /// and counts a failure on a socket error, a wrong `id` or an error
    /// response. Returns the `result` value.
    fn call(&mut self, pass: &mut Pass, method: &'static str, params: &str) -> Option<Json> {
        let id = self.next_id;
        self.next_id += 1;
        let request = format!("{{\"id\":{id},\"method\":\"{method}\",\"params\":{params}}}\n");
        pass.attempted += 1;
        let t = Instant::now();
        let line = match self.round_trip(pass, &request) {
            Ok(line) => line,
            Err(e) => {
                pass.failed += 1;
                pass.fail(format!("{method} #{id}: socket failure: {e}"));
                return None;
            }
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        pass.steps_us.push(us);
        pass.rpc_us.entry(method).or_default().push(us);

        let response = match json::parse(&line) {
            Ok(doc) => doc,
            Err(e) => {
                pass.failed += 1;
                pass.fail(format!("{method} #{id}: unparseable response: {e}"));
                return None;
            }
        };
        if response.get("id").and_then(|v| v.as_u64().ok()) != Some(id) {
            pass.failed += 1;
            pass.fail(format!("{method} #{id}: response does not echo the id"));
            return None;
        }
        match response.get("result") {
            Some(result) => Some(result.clone()),
            None => {
                pass.failed += 1;
                pass.fail(format!("{method} #{id}: error response {line}"));
                None
            }
        }
    }

    /// Like [`Client::call`], inside a benchmark-side span named `span`.
    fn traced_call(
        &mut self,
        pass: &mut Pass,
        span: &'static str,
        method: &'static str,
        params: &str,
    ) -> Option<Json> {
        let tracer = self.tracer;
        tracer.span(span, || self.call(pass, method, params))
    }

    fn round_trip(&mut self, pass: &mut Pass, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            // Frame lines are `{"sub":"<session>","frame":{..}}` and always
            // precede the id-matched response of the same turn.
            if !line.starts_with("{\"sub\":") {
                return Ok(line);
            }
            pass.frames_streamed += 1;
            if line.contains("\"overflow\"") {
                let skipped = json::parse(&line)
                    .ok()
                    .and_then(|f| f.get("frame")?.get("skipped")?.as_u64().ok());
                pass.frames_skipped += skipped.unwrap_or(0);
            }
        }
    }
}

fn export_text(result: Option<Json>) -> Option<String> {
    result?.get("text")?.as_str().ok().map(str::to_string)
}

/// One pass: bind, serve, load, then the full request mix on one session.
pub fn pass(ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let sz = if ctx.scale == Scale::Full { &FULL } else { &SMOKE };
    let stop_ns = sz.steps * sz.step_ns;
    let tr = ctx.tracer;

    // -- set-up: document, bind, server thread, connect, `load` -------------
    let t_setup = Instant::now();
    let doc = tr.span("workload.generate", || scenario_doc(ctx.seed, sz.doc_flows, stop_ns));
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            pass.attempted = 1;
            pass.failed = 1;
            pass.fail(format!("cannot bind a loopback listener: {e}"));
            return pass;
        }
    };
    let addr = listener.local_addr().expect("a bound listener has an address");
    let server = std::thread::spawn(move || openoptics_ctl::serve_on(listener, Some(1)));
    let stream = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        Ok((s.try_clone()?, s))
    });
    let (read_half, writer) = match stream {
        Ok(halves) => halves,
        Err(e) => {
            pass.attempted = 1;
            pass.failed = 1;
            pass.fail(format!("cannot connect to the server: {e}"));
            // Unblock the accept loop so the thread can be joined.
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(b"{\"id\":0,\"method\":\"shutdown\"}\n");
            }
            let _ = server.join();
            return pass;
        }
    };
    let mut c = Client { reader: BufReader::new(read_half), writer, next_id: 1, tracer: tr };
    c.traced_call(
        &mut pass,
        "ctl.rpc.load",
        "load",
        &format!("{{\"name\":\"main\",\"scenario\":{doc}}}"),
    );
    pass.setup_s = t_setup.elapsed().as_secs_f64();
    // `load` is set-up: its latency stays in the per-method row but is not
    // one of the control steps `run_s` and the step percentiles are made of.
    pass.steps_us.clear();

    // -- the request mix ---------------------------------------------------
    let t_run = Instant::now();
    let mut mix = Mix(ctx.seed ^ 0x00c1_1e27);
    tr.span("ctl.rpc.session", || {
        if ctx.setup_only {
            return;
        }
        c.call(&mut pass, "subscribe", "{\"name\":\"main\"}");
        let half = sz.steps / 2;
        let exports = ["bundle", "telemetry", "timeseries", "spans"];
        let mut next_export = 0;
        for i in 0..sz.steps {
            c.call(
                &mut pass,
                "run_for",
                &format!("{{\"name\":\"main\",\"dur_ns\":{}}}", sz.step_ns),
            );
            let now = (i + 1) * sz.step_ns;
            if i % 25 == 12 {
                c.traced_call(&mut pass, "ctl.rpc.status", "status", "{\"name\":\"main\"}");
            }
            // Mutations stop at the checkpoint so the restored and forked
            // sessions see the same history as the uninterrupted one.
            if i < half && i % 20 == 10 {
                let (src, dst) = mix.pair(8);
                c.traced_call(
                    &mut pass,
                    "ctl.rpc.add_flow",
                    "add_flow",
                    &format!(
                        "{{\"name\":\"main\",\"at_ns\":{},\"src\":{src},\"dst\":{dst},\"bytes\":{}}}",
                        now + 1_000,
                        20_000
                    ),
                );
            }
            if i == half / 5 || i == 2 * half / 5 {
                let kind = if i == half / 5 { "transceiver_flap" } else { "link_down" };
                c.traced_call(
                    &mut pass,
                    "ctl.rpc.inject_faults",
                    "inject_faults",
                    &format!(
                        "{{\"name\":\"main\",\"faults\":[{{\"kind\":\"{kind}\",\"node\":{},\"port\":1,\"corrupt_pct\":30,\"start_ns\":{},\"end_ns\":{}}}]}}",
                        mix.below(8),
                        now + 10_000,
                        now + 10_000 + 100_000 + mix.below(100_000)
                    ),
                );
            }
            if i == 3 * half / 5 {
                c.traced_call(
                    &mut pass,
                    "ctl.rpc.reconfigure",
                    "reconfigure",
                    "{\"name\":\"main\",\"tm\":\"mesh\"}",
                );
            }
            if i % (sz.steps / 8).max(1) == sz.steps / 16 {
                let what = exports[next_export % exports.len()];
                next_export += 1;
                c.traced_call(
                    &mut pass,
                    "ctl.rpc.export",
                    "export",
                    &format!("{{\"name\":\"main\",\"what\":\"{what}\"}}"),
                );
            }
            if i + 1 == half {
                let ckpt =
                    c.traced_call(&mut pass, "ctl.rpc.checkpoint", "checkpoint", "{\"name\":\"main\"}");
                if let Some(doc) = ckpt.as_ref().and_then(|r| r.get("checkpoint")) {
                    c.traced_call(
                        &mut pass,
                        "ctl.rpc.restore",
                        "restore",
                        &format!("{{\"name\":\"restored\",\"checkpoint\":{doc}}}"),
                    );
                }
                c.traced_call(
                    &mut pass,
                    "ctl.rpc.fork",
                    "fork",
                    "{\"name\":\"forked\",\"from\":\"main\"}",
                );
            }
        }
        // Run both branches to the end and compare with the uninterrupted
        // session: a restored or forked run must be indistinguishable.
        let mut bundles = Vec::new();
        for name in ["main", "restored", "forked"] {
            c.call(&mut pass, "run_until", &format!("{{\"name\":\"{name}\",\"ns\":{stop_ns}}}"));
            let text = export_text(c.traced_call(
                &mut pass,
                "ctl.rpc.export",
                "export",
                &format!("{{\"name\":\"{name}\",\"what\":\"bundle\"}}"),
            ));
            bundles.push(text);
        }
        match (&bundles[0], &bundles[1], &bundles[2]) {
            (Some(main), Some(restored), Some(forked)) => {
                if main != restored {
                    pass.fail("restore -> run-to-end bundle differs from the uninterrupted session".into());
                }
                if main != forked {
                    pass.fail("fork -> run-to-end bundle differs from the uninterrupted session".into());
                }
                pass.digest.bytes(main.as_bytes());
            }
            _ => pass.fail("a final export bundle is missing".into()),
        }
        // Exact simulated counts come from the main session's telemetry.
        let telemetry = export_text(c.call(
            &mut pass,
            "export",
            "{\"name\":\"main\",\"what\":\"telemetry\"}",
        ));
        match telemetry.as_deref().map(json::parse) {
            Some(Ok(snapshot)) => counts_from_snapshot(&snapshot, &mut pass),
            _ => pass.fail("the final telemetry export is not a JSON snapshot".into()),
        }
    });
    pass.run_s = t_run.elapsed().as_secs_f64();

    // Not part of the mix: stop the server and wait for its thread.
    let shutdown = format!("{{\"id\":{},\"method\":\"shutdown\"}}\n", c.next_id);
    if c.round_trip(&mut pass, &shutdown).is_err() {
        pass.fail("the server did not acknowledge shutdown".into());
    }
    drop(c);
    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => pass.fail(format!("the server loop ended with an error: {e}")),
        Err(_) => pass.fail("the server thread panicked".into()),
    }

    if ctx.traced && !ctx.setup_only {
        in_process(ctx, &doc, stop_ns, &mut pass);
    }
    pass
}

/// Fill the exact counts from a telemetry snapshot document.
fn counts_from_snapshot(snapshot: &Json, pass: &mut Pass) {
    let counter = |name: &str| -> u64 {
        snapshot.get("counters").and_then(|c| c.get(name)?.as_u64().ok()).unwrap_or(0)
    };
    let n = &mut pass.counts;
    n.events_scheduled = counter("sim.events_scheduled");
    n.events_popped = counter("sim.events_popped");
    n.far_scheduled = counter("sim.events_far_scheduled");
    n.overlay_scheduled = counter("sim.events_overlay_scheduled");
    n.host_tx_pkts = counter("engine.host_tx_packets");
    n.delivered_pkts = counter("engine.delivered_packets");
    n.drops = [
        "engine.fabric_drops",
        "engine.switch_drops",
        "engine.no_route_drops",
        "engine.link_drops",
        "engine.fault_drops",
    ]
    .into_iter()
    .map(counter)
    .sum();
    n.retransmits = [
        "engine.watchdog_retransmits",
        "engine.rto_retransmits",
        "engine.fast_retransmits",
        "engine.nack_retransmits",
    ]
    .into_iter()
    .map(counter)
    .sum();
    n.guardband_holds = counter("engine.guardband_holds");
    n.flows_completed = counter("fct.completed_flows");
    if n.host_tx_pkts < n.delivered_pkts {
        let msg = format!("host_tx_pkts {} < delivered_pkts {}", n.host_tx_pkts, n.delivered_pkts);
        pass.fail(msg);
    }
}

/// Traced passes only: the same scenario driven in-process, with a
/// benchmark-side span around each `openoptics_ctl` public call and the
/// engine's wall-clock profiler installed, so the service's layers get
/// their own rows.
fn in_process(ctx: &Ctx, doc: &str, stop_ns: u64, pass: &mut Pass) {
    use std::hint::black_box;
    let tr = ctx.tracer;
    let Ok(scenario) = tr.span("ctl.scenario_parse", || Scenario::parse(doc)) else {
        pass.fail("in-process: the generated scenario does not parse".into());
        return;
    };
    let Ok(mut session) = tr.span("ctl.session_new", || Session::new(scenario)) else {
        pass.fail("in-process: the generated scenario does not deploy".into());
        return;
    };
    install_profiler_clock(session.net());
    tr.span("core.run", || session.run_until(stop_ns / 2));
    pass.add_phases(session.net());
    black_box(tr.span("ctl.export_bundle", || session.export_bundle()));
    let net = session.net();
    black_box(tr.span("core.export_telemetry", || net.export_telemetry("json")).is_ok());
    black_box(tr.span("core.export_trace", || net.export_trace()).is_ok());
    black_box(tr.span("core.export_spans", || net.export_spans_chrome_trace()).is_ok());
    black_box(tr.span("core.export_timeseries", || net.export_timeseries()).is_ok());
    let saved = tr.span("ctl.checkpoint_save", || session.checkpoint().to_json());
    let restored = tr.span("ctl.restore", || {
        Checkpoint::parse(&saved).and_then(|ckpt| Session::restore(ckpt, Some(1)))
    });
    let forked = tr.span("ctl.fork", || session.fork());
    match restored {
        Ok(restored) => {
            if restored.export_bundle() != forked.export_bundle() {
                pass.fail(
                    "in-process: restored and forked sessions export different bundles".into(),
                );
            }
        }
        Err(e) => pass.fail(format!("in-process: restore failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenario_is_valid_and_seed_dependent() {
        let a = scenario_doc(1, 16, 200_000);
        assert_eq!(a, scenario_doc(1, 16, 200_000), "same seed, same document");
        assert_ne!(a, scenario_doc(2, 16, 200_000), "the seed drives the document");
        let s = Scenario::parse(&a).expect("the generated document is a valid scenario");
        assert_eq!(s.workloads.len(), 1 + 4 + 16);
        assert_eq!(s.slos.len(), 2);
        assert!(
            s.config.telemetry && s.config.sample_every_ns > 0 && s.config.span_sample_every > 0
        );
    }
}
