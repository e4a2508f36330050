//! Every RPC export is written once, straight into the response line and
//! escaped as it goes; these tests pin that the bytes are exactly those of
//! the `String` export wrapped in a JSON string, and that the nested
//! writer escapes any document the way rendering and escaping it would.

use openoptics::core::json::{self, Json};
use openoptics::ctl::{ControlPlane, Scenario, Session, Subscriptions};
use proptest::prelude::*;
use std::fmt::Write as _;

type TestResult = Result<(), Box<dyn std::error::Error>>;

/// Spans, sampling, an SLO and a link fault all on, so every export has
/// something to say.
const SCENARIO: &str = r#"{"version":1,"config":{"node_num":4,"uplink":1,"slice_ns":10000,"seed":3,"telemetry":true,"sample_every_ns":50000,"span_sample_every":2},"architecture":{"name":"rotornet"},"workloads":[{"kind":"flow","at_ns":100,"src":0,"dst":3,"bytes":300000,"service":"bulk"},{"kind":"flow","at_ns":200,"src":1,"dst":2,"bytes":40000},{"kind":"flow","at_ns":300,"src":2,"dst":0,"bytes":90000}],"slos":[{"service":"bulk","latency_ns":3000000,"objective_milli":500,"window_ns":1000000}],"faults":[{"kind":"link_down","node":1,"port":0,"start_ns":30000,"end_ns":400000}],"stop_ns":1500000}"#;

/// Every `export` kind with its `String` export on `s`.
fn string_exports(s: &Session) -> Vec<(&'static str, String)> {
    let net = s.net();
    let text = |r: Result<String, openoptics::core::Error>| r.unwrap_or_else(|e| e.to_string());
    vec![
        ("bundle", s.export_bundle()),
        ("telemetry", net.telemetry_snapshot().to_json()),
        ("telemetry_csv", net.telemetry_snapshot().to_csv()),
        ("trace", text(net.export_trace())),
        ("timeseries", text(net.export_timeseries())),
        ("slo", text(net.export_slo_report())),
        ("spans", text(net.export_spans_chrome_trace())),
        ("span_report", text(net.export_span_report())),
    ]
}

#[test]
fn every_export_answers_its_string_export_byte_for_byte() -> TestResult {
    let mut cp = ControlPlane::new();
    let load =
        format!(r#"{{"id":0,"method":"load","params":{{"name":"s","scenario":{SCENARIO}}}}}"#);
    assert!(cp.handle_line(&load).starts_with(r#"{"id":0,"result":"#));
    let mut twin = Session::new(Scenario::parse(SCENARIO)?)?;
    let mut id = 1;
    // Mid-run (fault window open, spans still open) and after the end.
    for ns in [200_000, twin.stop_ns()] {
        let run =
            format!(r#"{{"id":{id},"method":"run_until","params":{{"name":"s","ns":{ns}}}}}"#);
        assert!(cp.handle_line(&run).contains("\"result\""));
        twin.run_until(ns);
        for (what, text) in string_exports(&twin) {
            id += 1;
            let request = format!(
                r#"{{"id":{id},"method":"export","params":{{"name":"s","what":"{what}"}}}}"#
            );
            let want =
                format!("{{\"id\":{id},\"result\":{}}}", json::object(|w| w.field("text", &text)));
            let got = cp.handle_line(&request);
            assert!(got == want, "`{what}` at {ns} ns: response differs from the String export");
            assert!(text.len() > 100, "`{what}` at {ns} ns exported only {text:?}");
        }
    }
    Ok(())
}

/// FNV-1a-64 of `text`, in hex.
fn fnv1a(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// A series set that grows mid-run: a fault plan injected after the
/// second tick starts `faults.*` series, so later rows list more names
/// than earlier ones. The drained frame stream and `export timeseries`
/// are pinned to the bytes they had when every row stored its own names,
/// but for the simulator's own queue counts (`sim.events_scheduled`,
/// `sim.events_far_scheduled`, `sim.queue_len`, `sim.queue_peak_len`),
/// which fell when pre-run starts and watchdogs stopped waiting in the
/// event queue, and for the `tor.*` counts and the traffic that moved
/// when `defer` began keeping a congested packet on its path.
#[test]
fn a_series_set_that_grows_mid_run_streams_and_exports_unchanged_bytes() -> TestResult {
    let mut cp = ControlPlane::new();
    let mut subs = Subscriptions::new();
    let mut call = |req: String| cp.handle_request(&req, &mut subs);
    let plain = SCENARIO.replace(
        r#","faults":[{"kind":"link_down","node":1,"port":0,"start_ns":30000,"end_ns":400000}]"#,
        "",
    );
    assert_ne!(plain, SCENARIO, "the scenario's own fault plan is taken out");
    call(format!(r#"{{"id":0,"method":"load","params":{{"name":"s","scenario":{plain}}}}}"#));
    call(r#"{"id":1,"method":"subscribe","params":{"name":"s"}}"#.to_string());
    let mut frames =
        call(r#"{"id":2,"method":"run_until","params":{"name":"s","ns":120000}}"#.into());
    frames.pop();
    call(
        r#"{"id":3,"method":"inject_faults","params":{"name":"s","faults":[{"kind":"link_down","node":1,"port":0,"start_ns":300000,"end_ns":700000},{"kind":"nic_pause_storm","node":2,"start_ns":900000,"end_ns":950000}]}}"#
            .into(),
    );
    for (id, ns) in [(4, 600_000), (5, 1_500_000)] {
        let mut turn = call(format!(
            r#"{{"id":{id},"method":"run_until","params":{{"name":"s","ns":{ns}}}}}"#
        ));
        turn.pop();
        frames.extend(turn);
    }
    let export =
        call(r#"{"id":6,"method":"export","params":{"name":"s","what":"timeseries"}}"#.into());
    let doc = json::parse(&export[0])?;
    let rows = doc.get("result").and_then(|r| r.get("text")).ok_or("no text")?.as_str()?;
    let lines: Vec<&str> = rows.lines().collect();
    let (first, last) = (lines.first().ok_or("no rows")?, lines.last().ok_or("no rows")?);
    assert!(!first.contains("faults.") && last.contains("faults."), "the series set must grow");
    assert_eq!(lines.len(), 30);
    let stream = frames.join("\n");
    assert_eq!(
        (fnv1a(rows), rows.len(), fnv1a(&stream), stream.len()),
        ("687a9999a4d1d4ae".to_string(), 114_447, "5e7d07afd66d8253".to_string(), 122_644)
    );
    Ok(())
}

#[test]
fn a_refused_export_is_an_error_and_nothing_of_it_leaks() -> TestResult {
    // Span recording and sampling off: those exports are refused with the
    // net's reason, and nothing the writer began survives in the line.
    let plain = SCENARIO.replace(r#","sample_every_ns":50000,"span_sample_every":2"#, "");
    let mut cp = ControlPlane::new();
    cp.handle_line(&format!(
        r#"{{"id":0,"method":"load","params":{{"name":"s","scenario":{plain}}}}}"#
    ));
    let twin = Session::new(Scenario::parse(&plain)?)?;
    for (what, reason) in [
        ("spans", twin.net().export_spans_chrome_trace().err().map(|e| e.to_string())),
        ("span_report", twin.net().export_span_report().err().map(|e| e.to_string())),
        ("timeseries", twin.net().export_timeseries().err().map(|e| e.to_string())),
        ("nothing", Some("unknown export `nothing` (want bundle, telemetry, telemetry_csv, trace, timeseries, slo, spans or span_report)".into())),
    ] {
        let reason = reason.ok_or("the export should have been refused")?;
        let request = format!(r#"{{"id":7,"method":"export","params":{{"name":"s","what":"{what}"}}}}"#);
        let want = json::object(|w| {
            w.field("id", 7u64);
            w.key("error");
            w.obj(|w| {
                w.field("field", "params.what");
                w.field("reason", &reason);
            });
        });
        assert_eq!(cp.handle_line(&request), want, "{what}");
    }
    Ok(())
}

/// Characters every escape path has to handle.
const CHARS: [char; 12] =
    ['a', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/', 'é', '√', '😀'];

fn text(picks: &[usize]) -> String {
    picks.iter().map(|&i| CHARS[i % CHARS.len()]).collect()
}

/// A JSON tree from a token program: scalars, strings over [`CHARS`],
/// and containers opened and closed (objects key their members with the
/// member token's own text).
fn tree(tokens: &[(u8, u64, Vec<usize>)]) -> Json {
    let mut stack: Vec<(Json, Option<String>)> = vec![(Json::Arr(Vec::new()), None)];
    let close = |stack: &mut Vec<(Json, Option<String>)>| {
        if let Some((done, key)) = stack.pop() {
            match stack.last_mut() {
                Some((Json::Arr(items), _)) => items.push(done),
                Some((Json::Obj(fields), _)) => fields.push((key.unwrap_or_default(), done)),
                _ => stack.push((done, key)),
            }
        }
    };
    for (kind, n, picks) in tokens {
        let key = Some(text(picks));
        let value = match kind {
            0 => Json::Null,
            1 => Json::Bool(n % 2 == 0),
            2 => Json::Int(i128::from(*n) - (1 << 40)),
            3 => Json::Num(f64::from_bits(*n)),
            4 => Json::Str(text(picks)),
            5 if stack.len() < 6 => {
                stack.push((Json::Arr(Vec::new()), key));
                continue;
            }
            6 if stack.len() < 6 => {
                stack.push((Json::Obj(Vec::new()), key));
                continue;
            }
            _ if stack.len() > 1 => {
                close(&mut stack);
                continue;
            }
            _ => continue,
        };
        stack.push((value, key));
        close(&mut stack);
    }
    while stack.len() > 1 {
        close(&mut stack);
    }
    stack.pop().map_or(Json::Null, |(v, _)| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `string_of` at every nesting writes what rendering the document and
    /// writing it as a string writes; `text_of` what writing the text as a
    /// string writes.
    #[test]
    fn nested_writing_equals_escaping_the_rendering(
        tokens in collection::vec((0u8..8, any::<u64>(), collection::vec(0usize..12, 0..6)), 0..30),
        picks in collection::vec(0usize..12, 0..20),
    ) {
        let v = tree(&tokens);
        let rendered = json::render(&v);
        prop_assert_eq!(
            json::object(|w| { w.key("k"); w.string_of(|w| w.value(&v)); }),
            json::object(|w| w.field("k", &rendered))
        );
        // A rendered document spliced in escapes the same way.
        prop_assert_eq!(
            json::object(|w| {
                w.key("k");
                w.string_of(|w| w.raw(&rendered));
            }),
            json::object(|w| w.field("k", &rendered))
        );
        // A document in a string in a string, and one level deeper still.
        let twice = json::object(|w| w.field("in", &rendered));
        let thrice = json::object(|w| w.field("in", &twice));
        let nest = |w: &mut json::Writer, body: &dyn Fn(&mut json::Writer)| {
            w.string_of(|w| w.obj(|w| { w.key("in"); body(w); }));
        };
        prop_assert_eq!(
            json::object(|w| { w.key("k"); nest(w, &|w| w.string_of(|w| w.value(&v))); }),
            json::object(|w| w.field("k", &twice))
        );
        prop_assert_eq!(
            json::object(|w| { w.key("k"); nest(w, &|w| nest(w, &|w| w.string_of(|w| w.value(&v)))); }),
            json::object(|w| w.field("k", &thrice))
        );
        let s = text(&picks);
        prop_assert_eq!(
            json::object(|w| { w.key("k"); w.text_of(|t| { let _ = t.write_str(&s); }); }),
            json::object(|w| w.field("k", &s))
        );
    }
}

/// The durations of a span report's tree lines, from their intervals.
fn report_durations(bundle: &str) -> Vec<u64> {
    let report = bundle.split("-- spans --\n").nth(1).unwrap_or("");
    report
        .lines()
        .filter_map(|line| {
            let interval = line.split_once('[')?.1.split_once(']')?.0;
            let (begin, end) = interval.split_once(" .. ")?;
            Some(end.parse::<u64>().ok()? - begin.parse::<u64>().ok()?)
        })
        .collect()
}

/// A bundle's span report through the RPC escaper, with a duration of
/// every rounding class the report's integer formatting tells apart:
/// below 1 µs, a µs half-way value that is an exact binary fraction
/// (a multiple of 125 ns) and one that is not, and a ms half-way value —
/// the open `flow 1` span, which ends at `now`, is 1,000,500 ns long at
/// the first instant and 1,062,500 ns (1.0625 ms, exact) at the second.
#[test]
fn a_bundle_with_every_rounding_class_answers_its_string_export() -> TestResult {
    let mut cp = ControlPlane::new();
    let load =
        format!(r#"{{"id":0,"method":"load","params":{{"name":"s","scenario":{SCENARIO}}}}}"#);
    assert!(cp.handle_line(&load).starts_with(r#"{"id":0,"result":"#));
    let mut twin = Session::new(Scenario::parse(SCENARIO)?)?;
    for (id, ns) in [(1, 1_000_600), (2, 1_062_600)] {
        cp.handle_line(&format!(
            r#"{{"id":0,"method":"run_until","params":{{"name":"s","ns":{ns}}}}}"#
        ));
        twin.run_until(ns);
        let bundle = twin.export_bundle();
        let durations = report_durations(&bundle);
        let us_tie = |n: u64| (1_000..1_000_000).contains(&n) && n % 10 == 5;
        let classes = [
            durations.iter().any(|&n| n < 1_000),
            durations.iter().any(|&n| us_tie(n) && n % 125 == 0),
            durations.iter().any(|&n| us_tie(n) && n % 125 != 0),
            durations.iter().any(|&n| n >= 1_000_000 && n % 1_000 == 500),
        ];
        assert_eq!(classes, [true; 4], "rounding classes in the report at {ns} ns");
        let request =
            format!(r#"{{"id":{id},"method":"export","params":{{"name":"s","what":"bundle"}}}}"#);
        let want =
            format!("{{\"id\":{id},\"result\":{}}}", json::object(|w| w.field("text", &bundle)));
        assert!(cp.handle_line(&request) == want, "the bundle at {ns} ns differs over RPC");
    }
    Ok(())
}
