//! Drive the control-plane server end to end over TCP.
//!
//! Boots the JSON-RPC server on an OS-assigned port, loads the faulted
//! RotorNet scenario inline, steps it, then forks a what-if branch and
//! injects an extra fault in the branch only — the baseline keeps running
//! clean, and the two export bundles diverge exactly where the extra
//! fault bites. Finishes with a checkpoint round-trip through the wire
//! protocol.
//!
//! Run with: `cargo run --example control_plane`

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use openoptics::core::json::{self, Json};

/// The scenario document, embedded so the example is self-contained.
const SCENARIO: &str = include_str!("scenarios/rotornet_faulted.json");

fn main() {
    // Port 0 lets the OS pick a free port; serve_on takes the bound
    // listener so there is no race between binding and connecting.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().expect("bound address");
    let server = std::thread::spawn(move || openoptics::ctl::serve_on(listener, None));

    // One request in flight at a time: a segment held back for Nagle's
    // algorithm would only wait out the server's delayed ACK.
    let stream = TcpStream::connect(addr)
        .and_then(|s| s.set_nodelay(true).map(|()| s))
        .expect("connect to server");
    let mut client = Client {
        reader: BufReader::new(stream.try_clone().expect("clone stream")),
        writer: stream,
        next_id: 0,
    };

    // Load the scenario under the name "base" and run to 2 ms.
    let scenario = json::parse(SCENARIO).expect("scenario parses");
    let loaded = client.call(
        "load",
        vec![("name".into(), Json::Str("base".into())), ("scenario".into(), scenario)],
    );
    println!("loaded: stop_ns={} hosts={}", get_u64(&loaded, "stop_ns"), get_u64(&loaded, "hosts"));
    client.call(
        "run_until",
        vec![("name".into(), Json::Str("base".into())), ("ns".into(), Json::Num(2_000_000.0))],
    );

    // Fork a what-if branch and hit it with a second link failure the
    // baseline never sees.
    client.call(
        "fork",
        vec![
            ("from".into(), Json::Str("base".into())),
            ("name".into(), Json::Str("whatif".into())),
        ],
    );
    let extra_fault = Json::Obj(vec![
        ("kind".into(), Json::Str("link_down".into())),
        ("node".into(), Json::Num(2.0)),
        ("port".into(), Json::Num(1.0)),
        ("start_ns".into(), Json::Num(2_100_000.0)),
        ("end_ns".into(), Json::Num(5_000_000.0)),
    ]);
    client.call(
        "inject_faults",
        vec![
            ("name".into(), Json::Str("whatif".into())),
            ("faults".into(), Json::Arr(vec![extra_fault])),
        ],
    );

    // Run both branches to the stop time and compare their fault lines.
    for name in ["base", "whatif"] {
        client.call(
            "run_until",
            vec![("name".into(), Json::Str(name.into())), ("ns".into(), Json::Num(6_000_000.0))],
        );
        let export = client.call(
            "export",
            vec![
                ("name".into(), Json::Str(name.into())),
                ("what".into(), Json::Str("bundle".into())),
            ],
        );
        let text = export.get("text").and_then(|t| t.as_str().ok()).unwrap_or_default();
        let faults_line =
            text.lines().skip_while(|l| *l != "-- faults --").nth(1).unwrap_or("(no fault line)");
        println!("{name}: {faults_line}");
    }

    // Checkpoint the branch over the wire and restore it under a new name:
    // the restored session replays the journal and lands on the same state.
    let ckpt = client.call("checkpoint", vec![("name".into(), Json::Str("whatif".into()))]);
    let doc = ckpt.get("checkpoint").expect("checkpoint document").clone();
    let restored = client.call(
        "restore",
        vec![("name".into(), Json::Str("replayed".into())), ("checkpoint".into(), doc)],
    );
    println!("restored `replayed` at {} ns", get_u64(&restored, "now_ns"));

    let names = client.call("sessions", vec![]);
    println!("sessions: {}", names.get("names").map(Json::to_string).unwrap_or_default());

    client.call("shutdown", vec![]);
    server.join().expect("server thread").expect("server exits cleanly");
}

/// Minimal line-delimited JSON-RPC client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Send one request and return its `result`, panicking on an `error`
    /// response (this is an example; real callers would match on it).
    #[expect(clippy::panic, reason = "an example stops at the first failed call")]
    fn call(&mut self, method: &str, params: Vec<(String, Json)>) -> Json {
        self.next_id += 1;
        let request = Json::Obj(vec![
            ("id".into(), Json::Num(self.next_id as f64)),
            ("method".into(), Json::Str(method.into())),
            ("params".into(), Json::Obj(params)),
        ]);
        self.writer.write_all(format!("{request}\n").as_bytes()).expect("write request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        let response = json::parse(&line).expect("response parses");
        if let Some(err) = response.get("error") {
            panic!("{method} failed: {err}");
        }
        response.get("result").expect("result present").clone()
    }
}

fn get_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(|n| n.as_u64().ok()).unwrap_or(0)
}
