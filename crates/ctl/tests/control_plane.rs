//! Control-plane acceptance tests: scenario round-trips, typed rejection,
//! checkpoint/restore determinism at multiple worker counts, and the RPC
//! dispatch layer.

use openoptics_core::json;
use openoptics_ctl::{
    Checkpoint, ControlPlane, FaultEntry, Op, Scenario, Session, Subscriptions, TmSpec,
    MAX_CALENDAR_QUEUES, MAX_HOSTS, MAX_NODES, MAX_SLICES,
};

/// A small faulted run that exercises every subsystem the bundle exports:
/// flows, a fault window, telemetry.
const SCENARIO: &str = r#"{
    "version": 1,
    "description": "determinism probe",
    "config": {
        "node_num": 8, "uplink": 2, "hosts_per_node": 1,
        "slice_ns": 10000, "guard_ns": 1000,
        "uplink_gbps": 25, "host_link_gbps": 100,
        "sync_err_ns": 0, "queue_capacity": 8388608,
        "seed": 7, "telemetry": true
    },
    "architecture": { "name": "rotornet" },
    "routing": { "algo": "vlb", "lookup": "per_hop", "multipath": "per_packet" },
    "workloads": [
        { "kind": "flow", "at_ns": 100, "src": 0, "dst": 5, "bytes": 400000 },
        { "kind": "flow", "at_ns": 100, "src": 2, "dst": 6, "bytes": 400000 }
    ],
    "faults": [
        { "kind": "link_down", "node": 0, "port": 0, "start_ns": 50000, "end_ns": 900000 }
    ],
    "stop_ns": 2000000
}"#;

/// The probe scenario plus live sampling, service tags and an SLO target —
/// what the streaming-subscription and SLO-accounting tests drive.
const SLO_SCENARIO: &str = r#"{
    "version": 1,
    "description": "slo probe",
    "config": {
        "node_num": 8, "uplink": 2, "hosts_per_node": 1,
        "slice_ns": 10000, "guard_ns": 1000,
        "uplink_gbps": 25, "host_link_gbps": 100,
        "sync_err_ns": 0, "queue_capacity": 8388608,
        "seed": 7, "telemetry": true, "sample_every_ns": 100000
    },
    "architecture": { "name": "rotornet" },
    "routing": { "algo": "vlb", "lookup": "per_hop", "multipath": "per_packet" },
    "workloads": [
        { "kind": "flow", "at_ns": 100, "src": 0, "dst": 5, "bytes": 400000, "service": "bulk" },
        { "kind": "memcached", "server": 7, "clients": [1, 2], "stop_ns": 1500000,
          "service": "cache" }
    ],
    "slos": [
        { "service": "cache", "latency_ns": 400000, "objective_milli": 990,
          "window_ns": 500000 }
    ],
    "faults": [
        { "kind": "link_down", "node": 0, "port": 0, "start_ns": 50000, "end_ns": 900000 }
    ],
    "stop_ns": 2000000
}"#;

fn scenario() -> Scenario {
    Scenario::parse(SCENARIO).expect("probe scenario parses")
}

// --- scenario format ---

#[test]
fn normalized_form_is_a_fixed_point() {
    for text in [
        SCENARIO,
        include_str!("../../../examples/scenarios/fig8a_testbed.json"),
        include_str!("../../../examples/scenarios/rotornet_faulted.json"),
        include_str!("../../../examples/scenarios/sweep_cell.json"),
        include_str!("../../../examples/scenarios/slo_live.json"),
    ] {
        let once = Scenario::parse(text).expect("example parses").to_json();
        let twice = Scenario::parse(&once).expect("normalized form parses").to_json();
        assert_eq!(once, twice, "parse -> render must be a fixed point");
    }
}

#[test]
fn comment_keys_are_preserved_in_config_and_ignored_by_validation() {
    let s = scenario();
    // The probe scenario has no comments; add one through the raw document.
    let commented =
        SCENARIO.replacen(r#""node_num": 8,"#, r##""#": "eight ToRs", "node_num": 8,"##, 1);
    let parsed = Scenario::parse(&commented).expect("commented scenario parses");
    assert!(parsed.to_json().contains("eight ToRs"), "config comments survive normalization");
    assert_eq!(parsed.config.node_num, s.config.node_num);
}

#[test]
fn integers_beyond_f64_precision_are_not_a_different_scenario() {
    // 2^53 + 1: the first integer an f64 cannot hold.
    let big = SCENARIO.replacen(r#""seed": 7"#, r#""seed": 9007199254740993"#, 1);
    let parsed = Scenario::parse(&big).map(|s| (s.config.seed, s.to_json()));
    assert!(
        matches!(&parsed, Ok((9_007_199_254_740_993, text)) if text.contains(r#""seed": 9007199254740993"#)),
        "{parsed:?}"
    );
    // A value no u64 holds is refused, not saturated.
    let huge = SCENARIO.replacen(r#""seed": 7"#, r#""seed": 18446744073709551616"#, 1);
    assert_eq!(Scenario::parse(&huge).expect_err("2^64 is not a u64").field, "scenario");
    // And one too wide for its field is refused, not truncated.
    let wide = SCENARIO.replacen(r#""node_num": 8"#, r#""node_num": 4294967304"#, 1);
    assert_eq!(Scenario::parse(&wide).expect_err("2^32 + 8 is not a u32").field, "config");
}

#[test]
fn version_mismatch_is_rejected_with_the_field_named() {
    let err = Scenario::parse(&SCENARIO.replacen(r#""version": 1"#, r#""version": 2"#, 1))
        .expect_err("future version must be rejected");
    assert_eq!(err.field, "version");
    assert!(err.reason.contains("unsupported scenario version 2"), "{err}");
}

#[test]
fn reserved_worker_count_is_rejected_unless_one() {
    let with = |w: u32| {
        format!(
            r#"{{"version": 1, "architecture": {{"name": "clos"}},
                "config": {{"workers": {w}}}, "stop_ns": 10}}"#
        )
    };
    let err = Scenario::parse(&with(4)).expect_err("workers: 4 must be rejected");
    assert_eq!(err.field, "config");
    assert!(err.reason.contains("invalid `workers`"), "{err}");
    assert!(Scenario::parse(&with(1)).is_ok(), "workers: 1 loads as before");
}

#[test]
fn typed_rejections_name_the_offending_field() {
    let cases = [
        ("not json at all", "scenario"),
        (r#"{"version": 1, "stop_ns": 10}"#, "architecture"),
        (
            r#"{"version": 1, "architecture": {"name": "torus3d"}, "stop_ns": 10}"#,
            "architecture.name",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "routing": {"algo": "bgp"}, "stop_ns": 10}"#,
            "routing.algo",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "config": {"node_num": "eight"}, "stop_ns": 10}"#,
            "config",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "workloads": [{"kind": "flow", "src": 0, "dst": 1}], "stop_ns": 10}"#,
            "workloads[0].bytes",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "workloads": [{"kind": "flow", "src": 0, "dst": 9999, "bytes": 1}], "stop_ns": 10}"#,
            "workloads[0].dst",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "faults": [{"kind": "gamma_ray", "node": 0, "start_ns": 1, "end_ns": 2}],
                "stop_ns": 10}"#,
            "faults[0].kind",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "faults": [{"kind": "link_down", "node": 0, "start_ns": 5, "end_ns": 5}],
                "stop_ns": 10}"#,
            "faults",
        ),
        (r#"{"version": 1, "architecture": {"name": "clos"}}"#, "stop_ns"),
    ];
    for (text, field) in cases {
        let err = Scenario::parse(text).expect_err(text);
        assert_eq!(err.field, field, "wrong field for `{text}`: {err}");
    }
}

// --- shape bounds ---

/// A document with `config` and `architecture` spliced in.
fn shaped(config: &str, architecture: &str) -> String {
    format!(
        r#"{{"version": 1, "config": {{{config}}}, "architecture": {{{architecture}}},
            "stop_ns": 10}}"#
    )
}

/// Every bound, just past it and exactly at it: `(past, at, field)`.
fn bound_cases() -> Vec<(String, String, &'static str)> {
    let clos = r#""name": "clos""#;
    let nodes = |n: u64| shaped(&format!(r#""node_num": {n}"#), clos);
    // 1024 nodes x 64 uplinks x 32 queues is exactly the calendar bound.
    let queues = |q: u64| {
        shaped(&format!(r#""node_num": {MAX_NODES}, "uplink": 64, "num_queues": {q}"#), clos)
    };
    let hosts =
        |h: u64| shaped(&format!(r#""node_num": {MAX_NODES}, "hosts_per_node": {h}"#), clos);
    let mordia = |s: u32| shaped("", &format!(r#""name": "mordia", "num_slices": {s}"#));
    let sorn = |s: u32| shaped("", &format!(r#""name": "semi_oblivious", "extra_slices": {s}"#));
    let per_node_hosts = MAX_HOSTS / u64::from(MAX_NODES);
    let per_node_queues = MAX_CALENDAR_QUEUES / u64::from(MAX_NODES) / 64;
    vec![
        (nodes(u64::from(MAX_NODES) + 1), nodes(MAX_NODES.into()), "config.node_num"),
        (nodes(u32::MAX.into()), nodes(MAX_NODES.into()), "config.node_num"),
        (queues(per_node_queues + 1), queues(per_node_queues), "config"),
        (hosts(per_node_hosts + 1), hosts(per_node_hosts), "config"),
        (mordia(MAX_SLICES + 1), mordia(MAX_SLICES), "architecture.num_slices"),
        (sorn(MAX_SLICES + 1), sorn(MAX_SLICES), "architecture.extra_slices"),
    ]
}

#[test]
fn each_shape_bound_is_refused_past_it_and_accepted_at_it() {
    for (past, at, field) in bound_cases() {
        let err = Scenario::parse(&past).expect_err(&past);
        assert_eq!(err.field, field, "wrong field for `{past}`: {err}");
        assert!(err.reason.contains("a scenario may ask for at most"), "{err}");
        Scenario::parse(&at).unwrap_or_else(|e| panic!("`{at}` is at the bound: {e}"));
    }
}

#[test]
fn a_refused_load_leaves_the_server_answering() {
    let mut cp = ControlPlane::new();
    for (i, (past, _, field)) in bound_cases().into_iter().enumerate() {
        let refused = cp.handle_line(&format!(
            r#"{{"id":{i},"method":"load","params":{{"name":"big","scenario":{past}}}}}"#
        ));
        assert!(refused.contains(r#""error""#) && refused.contains(field), "{refused}");
    }
    let missing = cp.handle_line(r#"{"id":7,"method":"status","params":{"name":"big"}}"#);
    assert!(missing.contains("no session named"), "{missing}");
    let load = cp.handle_line(&format!(
        r#"{{"id":8,"method":"load","params":{{"name":"s","scenario":{SCENARIO}}}}}"#
    ));
    assert!(load.contains(r#""result""#), "{load}");
    let status = cp.handle_line(r#"{"id":9,"method":"status","params":{"name":"s"}}"#);
    assert!(status.contains(r#""now_ns":0"#), "{status}");
}

/// A `shale` scenario whose nodes do not form a `dim`-dimensional grid
/// used to pass `check` and then panic building its schedule, taking a
/// `load`ing server down with it. It is refused at `architecture.dim`,
/// and the server keeps answering.
#[test]
fn a_shale_shape_that_is_not_a_grid_is_refused_at_its_dim() {
    let shale = |nodes: u32, dim: &str| {
        shaped(&format!(r#""node_num": {nodes}, "uplink": 1"#), &format!(r#""name": "shale"{dim}"#))
    };
    let refused =
        [shale(10, r#", "dim": 2"#), shale(9, r#", "dim": 0"#), shale(9, ""), shale(1, "")];
    let mut cp = ControlPlane::new();
    for (i, doc) in refused.iter().enumerate() {
        let err = Scenario::parse(doc).expect_err(doc);
        assert_eq!(err.field, "architecture.dim", "{err}");
        let reply = cp.handle_line(&format!(
            r#"{{"id":{i},"method":"load","params":{{"name":"grid","scenario":{doc}}}}}"#
        ));
        assert!(reply.contains(r#""error""#) && reply.contains("architecture.dim"), "{reply}");
    }
    let missing = cp.handle_line(r#"{"id":7,"method":"status","params":{"name":"grid"}}"#);
    assert!(missing.contains("no session named"), "{missing}");
    for (i, doc) in
        [shale(9, r#", "dim": 2"#), shale(8, ""), shale(5, r#", "dim": 1"#)].iter().enumerate()
    {
        let load = cp.handle_line(&format!(
            r#"{{"id":{i},"method":"load","params":{{"name":"g{i}","scenario":{doc}}}}}"#
        ));
        assert!(load.contains(r#""result""#), "{load}");
        let status =
            cp.handle_line(&format!(r#"{{"id":9,"method":"status","params":{{"name":"g{i}"}}}}"#));
        assert!(status.contains(r#""now_ns":0"#), "{status}");
    }
}

// --- determinism ---

#[test]
fn export_bundle_is_reproducible() {
    let mut a = Session::new(scenario()).unwrap();
    let mut b = Session::new(scenario()).unwrap();
    a.run_until(2_000_000);
    b.run_until(2_000_000);
    assert_eq!(a.export_bundle(), b.export_bundle());
}

#[test]
fn restore_then_run_matches_an_uninterrupted_run() {
    let mut straight = Session::new(scenario()).unwrap();
    straight.run_until(2_000_000);
    let reference = straight.export_bundle();

    // Checkpoint mid-fault-window, serialize, reparse, restore; the
    // continuation must land on the reference bytes.
    let mut half = Session::new(scenario()).unwrap();
    half.run_until(600_000);
    let doc = half.checkpoint().to_json();
    let reparsed = Checkpoint::parse(&doc).expect("checkpoint parses");
    assert_eq!(reparsed.to_json(), doc, "checkpoint render is a fixed point");

    let mut resumed = Session::restore(reparsed, None).unwrap();
    assert_eq!(resumed.now_ns(), 600_000);
    resumed.run_until(2_000_000);
    assert_eq!(resumed.export_bundle(), reference);
}

#[test]
fn fork_matches_an_uninterrupted_run() {
    let mut straight = Session::new(scenario()).unwrap();
    straight.run_until(2_000_000);

    let mut base = Session::new(scenario()).unwrap();
    base.run_until(600_000);
    let mut branch = base.fork();
    branch.run_until(2_000_000);
    assert_eq!(branch.export_bundle(), straight.export_bundle());

    // The fork is independent: running the branch did not move the base.
    assert_eq!(base.now_ns(), 600_000);
}

#[test]
fn forked_branches_diverge_only_through_their_own_mutations() {
    let mut base = Session::new(scenario()).unwrap();
    base.run_until(600_000);
    let mut faulted = base.fork();
    faulted
        .apply(Op::InjectFaults {
            faults: vec![FaultEntry {
                kind: openoptics_core::FaultKind::LinkDown,
                node: 2,
                port: 1,
                start_ns: 700_000,
                end_ns: 1_500_000,
            }],
        })
        .unwrap();
    base.run_until(2_000_000);
    faulted.run_until(2_000_000);
    assert_ne!(base.export_bundle(), faulted.export_bundle());
    assert!(
        faulted.net().fault_report().per_fault.len() > base.net().fault_report().per_fault.len()
    );
}

#[test]
fn pausing_is_invisible_and_journals_merge() {
    let mut straight = Session::new(scenario()).unwrap();
    straight.run_until(2_000_000);

    let mut chunked = Session::new(scenario()).unwrap();
    for t in [123_456, 800_000, 1_111_111, 2_000_000] {
        chunked.run_until(t);
    }
    assert_eq!(chunked.export_bundle(), straight.export_bundle());
    // Four pauses, one journal entry: consecutive advances merge.
    assert_eq!(chunked.journal().len(), 1);
    assert_eq!(chunked.journal()[0], Op::RunUntil { ns: 2_000_000 });
}

#[test]
fn mid_run_mutations_replay_exactly() {
    let drive = |s: &mut Session| {
        s.run_until(300_000);
        s.apply(Op::AddFlow {
            at_ns: 350_000,
            src: 1,
            dst: 7,
            bytes: 120_000,
            transport: Default::default(),
        })
        .unwrap();
        s.run_until(700_000);
        s.apply(Op::Reconfigure { tm: TmSpec::Uniform(5.0) }).unwrap();
        s.run_until(2_000_000);
    };
    let mut live = Session::new(scenario()).unwrap();
    drive(&mut live);

    let doc = live.checkpoint().to_json();
    let restored = Session::restore(Checkpoint::parse(&doc).unwrap(), None).unwrap();
    assert_eq!(restored.export_bundle(), live.export_bundle());
    // And the restored journal re-serializes to the same document.
    assert_eq!(restored.checkpoint().to_json(), doc);
}

#[test]
fn a_reconfigure_before_the_first_run_keeps_the_attached_workloads(
) -> Result<(), Box<dyn std::error::Error>> {
    // Attach-then-adapt through the control plane: `sweep_cell.json` is
    // c-Through scheduled for its own demand records, so reconfiguring to
    // those records before the first `run_until` regenerates the deployed
    // schedule — and must leave the scenario's flows and probe train in
    // place. (It used to swap in an empty engine: 0 packets, 0 flows.)
    let text = include_str!("../../../examples/scenarios/sweep_cell.json");
    let mut plain = Session::new(Scenario::parse(text)?)?;
    plain.run_until(20_000_000);
    assert!(plain.net().engine.counters.host_tx_packets > 1_000);
    assert_eq!(plain.net().fct().completed().len(), 2);

    let mut adapted = Session::new(Scenario::parse(text)?)?;
    adapted.apply(Op::Reconfigure { tm: adapted.scenario().architecture.tm.clone() })?;
    adapted.run_until(20_000_000);
    assert_eq!(adapted.export_bundle(), plain.export_bundle());

    let doc = adapted.checkpoint().to_json();
    let restored = Session::restore(Checkpoint::parse(&doc)?, None)?;
    assert_eq!(restored.export_bundle(), adapted.export_bundle());
    Ok(())
}

/// c-Through with a 200 us OCS, scheduled for 1 -> 0 and 2 -> 0. Host 3's
/// elephant has no circuit and waits, paused, for the redeploy that gives
/// it one; host 1's is on the wire when the fabric goes dark.
const REDEPLOY_SCENARIO: &str = r#"{
    "version": 1,
    "config": {
        "node_num": 8, "uplink": 2, "hosts_per_node": 1, "sync_err_ns": 0,
        "ocs_reconfig_ns": 200000, "seed": 7, "telemetry": true
    },
    "architecture": { "name": "cthrough", "tm": [[1, 0, 1000.0], [2, 0, 1000.0]] },
    "workloads": [
        { "kind": "flow", "at_ns": 100, "src": 1, "dst": 0, "bytes": 5000000 },
        { "kind": "flow", "at_ns": 100, "src": 3, "dst": 0, "bytes": 2000000 }
    ],
    "stop_ns": 30000000
}"#;

#[test]
fn a_flow_in_flight_across_a_reconfigure_survives_checkpoint_and_fork(
) -> Result<(), Box<dyn std::error::Error>> {
    // The redeploy moves a circuit (2 <-> 0 becomes 3 <-> 0) under live
    // traffic; the checkpoint and the fork are taken while the OCS is still
    // moving, so the swap, the route refresh and the host re-notification
    // all happen on the far side of them.
    let until_mid_move = |s: &mut Session| {
        s.run_until(300_000);
        s.apply(Op::Reconfigure { tm: TmSpec::Records(vec![(1, 0, 1000.0), (3, 0, 1000.0)]) })?;
        s.run_until(400_000);
        Ok::<_, openoptics_ctl::ScenarioError>(())
    };
    let mut straight = Session::new(Scenario::parse(REDEPLOY_SCENARIO)?)?;
    until_mid_move(&mut straight)?;
    straight.run_until(30_000_000);
    let net = straight.net();
    assert!(net.telemetry_snapshot().counter("fabric.lost_reconfig") > 0, "nothing was in flight");
    let (n0, n3) = (openoptics_proto::NodeId(0), openoptics_proto::NodeId(3));
    assert!(net.engine.schedule().port_to(n3, n0, 0).is_some(), "the redeploy landed");
    assert_eq!(net.fct().completed().len(), 2, "both elephants finish on the new circuits");
    assert_eq!(net.engine.counters.no_route_drops, 0);

    let mut base = Session::new(Scenario::parse(REDEPLOY_SCENARIO)?)?;
    until_mid_move(&mut base)?;
    let mut forked = base.fork();
    let mut restored = Session::restore(Checkpoint::parse(&base.checkpoint().to_json())?, None)?;
    assert_eq!(restored.now_ns(), 400_000);
    for branch in [&mut forked, &mut restored] {
        branch.run_until(30_000_000);
        assert_eq!(branch.export_bundle(), straight.export_bundle());
    }
    Ok(())
}

#[test]
fn a_running_session_refuses_a_redeploy_that_changes_the_slice_count() {
    // Semi-oblivious over an all-zero demand is the bare round robin; the
    // mesh asks for three more slices. Before the first run that is a plain
    // redeploy; on a running network it is a typed error like any other,
    // and the session carries on untouched.
    let sorn = SCENARIO.replacen(
        r#"{ "name": "rotornet" }"#,
        r#"{ "name": "semi_oblivious", "extra_slices": 3, "tm": 0 }"#,
        1,
    );
    let load = |cp: &mut ControlPlane| {
        let loaded = cp.handle_line(&format!(
            r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{sorn}}}}}"#
        ));
        assert!(loaded.contains(r#""result""#), "{loaded}");
    };
    let reconfigure = r#"{"id":3,"method":"reconfigure","params":{"name":"s","tm":"mesh"}}"#;

    let mut fresh = ControlPlane::new();
    load(&mut fresh);
    let ok = fresh.handle_line(reconfigure);
    assert!(ok.contains(r#""result""#), "{ok}");

    let mut cp = ControlPlane::new();
    load(&mut cp);
    cp.handle_line(r#"{"id":2,"method":"run_until","params":{"name":"s","ns":500000}}"#);
    let status = r#"{"id":4,"method":"status","params":{"name":"s"}}"#;
    let before = cp.handle_line(status);
    let refused = cp.handle_line(reconfigure);
    assert!(
        refused.starts_with(
            r#"{"id":3,"error":{"field":"reconfigure","reason":"deploy: slice structure: "#
        ),
        "{refused}"
    );
    assert!(refused.contains("7 slice(s)") && refused.contains("has 10"), "{refused}");
    assert_eq!(cp.handle_line(status), before, "a refused op is not journaled");
}

#[test]
fn invalid_operations_are_rejected_and_not_journaled() {
    let mut s = Session::new(scenario()).unwrap();
    s.run_until(500_000);
    let journal_len = s.journal().len();

    let past = s.apply(Op::AddFlow {
        at_ns: 100, // before current sim time
        src: 0,
        dst: 1,
        bytes: 1,
        transport: Default::default(),
    });
    assert_eq!(past.unwrap_err().field, "add_flow.at_ns");

    let bad_host = s.apply(Op::AddFlow {
        at_ns: 600_000,
        src: 0,
        dst: 999,
        bytes: 1,
        transport: Default::default(),
    });
    assert_eq!(bad_host.unwrap_err().field, "add_flow.dst");
    assert_eq!(s.journal().len(), journal_len, "failed ops must not journal");
}

#[test]
fn checkpoint_version_mismatch_is_rejected() {
    let mut s = Session::new(scenario()).unwrap();
    s.run_until(100_000);
    let doc = s.checkpoint().to_json().replacen(r#""version": 1"#, r#""version": 9"#, 1);
    let err = Checkpoint::parse(&doc).expect_err("future checkpoint version must be rejected");
    assert_eq!(err.field, "version");
}

// --- RPC dispatch ---

#[test]
fn rpc_round_trip_matches_direct_session_use() {
    let mut direct = Session::new(scenario()).unwrap();
    direct.run_until(2_000_000);

    let mut cp = ControlPlane::new();
    let load = cp.handle_line(&format!(
        r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{SCENARIO}}}}}"#
    ));
    assert!(load.contains(r#""result""#), "{load}");
    cp.handle_line(r#"{"id":2,"method":"run_until","params":{"name":"s","ns":2000000}}"#);
    let export =
        cp.handle_line(r#"{"id":3,"method":"export","params":{"name":"s","what":"bundle"}}"#);
    let doc = json::parse(&export).unwrap();
    let text = doc
        .get("result")
        .and_then(|r| r.get("text"))
        .and_then(|t| t.as_str().ok().map(str::to_string))
        .expect("bundle text");
    assert_eq!(text, direct.export_bundle());
}

#[test]
fn rpc_checkpoint_travels_inline_and_restores() {
    let mut cp = ControlPlane::new();
    cp.handle_line(&format!(
        r#"{{"id":1,"method":"load","params":{{"name":"a","scenario":{SCENARIO}}}}}"#
    ));
    cp.handle_line(r#"{"id":2,"method":"run_until","params":{"name":"a","ns":600000}}"#);
    let resp = cp.handle_line(r#"{"id":3,"method":"checkpoint","params":{"name":"a"}}"#);
    let doc = json::parse(&resp).unwrap();
    let ckpt = doc.get("result").and_then(|r| r.get("checkpoint")).expect("inline checkpoint");
    let restore = cp.handle_line(&format!(
        r#"{{"id":4,"method":"restore","params":{{"name":"b","checkpoint":{ckpt}}}}}"#
    ));
    assert!(restore.contains(r#""now_ns":600000"#), "{restore}");
    let sessions = cp.handle_line(r#"{"id":5,"method":"sessions","params":{}}"#);
    assert!(sessions.contains(r#"["a","b"]"#), "{sessions}");
}

/// One connection to a control plane: every call must succeed, and its
/// turn's lines come back.
struct Client {
    cp: ControlPlane,
    subs: Subscriptions,
    id: u64,
}

impl Client {
    fn new() -> Client {
        Client { cp: ControlPlane::new(), subs: Subscriptions::new(), id: 0 }
    }

    fn call(&mut self, method: &str, params: &str) -> Vec<String> {
        self.id += 1;
        let request = format!(r#"{{"id":{},"method":"{method}","params":{params}}}"#, self.id);
        let lines = self.cp.handle_request(&request, &mut self.subs);
        let response = lines.last().expect("a turn ends with its response");
        assert!(response.contains(r#""result""#), "{method} {params}: {response}");
        lines
    }

    /// The `result` member of a call's response.
    fn result(&mut self, method: &str, params: &str) -> json::Json {
        let lines = self.call(method, params);
        let doc = json::parse(lines.last().expect("a response")).expect("a JSON response");
        doc.get("result").expect("a result").clone()
    }

    fn export(&mut self, name: &str, what: &str) -> String {
        let result = self.result("export", &format!(r#"{{"name":"{name}","what":"{what}"}}"#));
        result.get("text").and_then(|t| t.as_str().ok()).expect("an export text").to_string()
    }

    /// `name`'s `now_ns` after restoring `doc` into it.
    fn restore(&mut self, name: &str, doc: &json::Json) -> u64 {
        let params = format!(r#"{{"name":"{name}","checkpoint":{doc}}}"#);
        let now = self.result("restore", &params).get("now_ns").map(|n| n.as_u64());
        now.expect("restore answers now_ns").expect("an integer")
    }

    /// Run `name` to `ns`, returning the frames the run streamed to it.
    fn run_until(&mut self, name: &str, ns: u64) -> Vec<String> {
        let lines = self.call("run_until", &format!(r#"{{"name":"{name}","ns":{ns}}}"#));
        let prefix = format!(r#"{{"sub":"{name}","frame":"#);
        lines.iter().filter_map(|l| l.strip_prefix(&prefix).map(str::to_string)).collect()
    }

    /// What a finished session has to show: its bundle and time series.
    fn exports(&mut self, name: &str) -> (String, String) {
        (self.export(name, "bundle"), self.export(name, "timeseries"))
    }
}

/// `restore` of a checkpoint a live session still sits at forks that
/// session (its *twin*); any other checkpoint is replayed. Both paths,
/// and the source that never stopped, continue with the same exports and
/// the same streamed frames, and no session that differs from the
/// checkpoint — one step further with a journal as long, or at the same
/// instant with one journal entry more or a different one — is taken for
/// its twin.
#[test]
fn rpc_restore_forks_a_live_twin_and_replays_the_rest() {
    let scenario = SLO_SCENARIO.replace(
        r#""sample_every_ns": 100000"#,
        r#""sample_every_ns": 100000, "span_sample_every": 2"#,
    );
    let stop = 2_000_000;
    let mut c = Client::new();
    c.call("load", &format!(r#"{{"name":"src","scenario":{scenario}}}"#));
    c.call("subscribe", r#"{"name":"src"}"#);
    // Every journaled op before the checkpoint, with exports between them.
    c.run_until("src", 200_000);
    c.call("add_flow", r#"{"name":"src","at_ns":250000,"src":1,"dst":6,"bytes":60000}"#);
    for what in ["bundle", "spans", "timeseries"] {
        c.export("src", what);
    }
    c.call(
        "inject_faults",
        r#"{"name":"src","faults":[{"kind":"link_down","node":2,"port":1,"start_ns":450000,"end_ns":900000}]}"#,
    );
    c.run_until("src", 400_000);
    c.call("reconfigure", r#"{"name":"src","tm":"mesh"}"#);
    for what in ["bundle", "spans", "timeseries"] {
        c.export("src", what);
    }
    c.run_until("src", 700_000);
    let at = 700_000;
    let doc = c.result("checkpoint", r#"{"name":"src"}"#).get("checkpoint").cloned().unwrap();

    // Two siblings at the same instant, one `add_flow` further than `src`
    // and named before it: `alt` and `sib` differ only in that flow.
    for (name, bytes) in [("alt", 30_000), ("sib", 90_000)] {
        c.call("fork", &format!(r#"{{"name":"{name}","from":"src"}}"#));
        c.call(
            "add_flow",
            &format!(r#"{{"name":"{name}","at_ns":750000,"src":3,"dst":4,"bytes":{bytes}}}"#),
        );
    }
    let sib_doc = c.result("checkpoint", r#"{"name":"sib"}"#).get("checkpoint").cloned().unwrap();

    // The twin restore (of `src`) and a replay of the same document in a
    // control plane that holds no session at all.
    assert_eq!(c.restore("twin", &doc), at);
    let mut fresh = Client::new();
    assert_eq!(fresh.restore("replay", &doc), at);
    c.call("subscribe", r#"{"name":"twin"}"#);
    fresh.call("subscribe", r#"{"name":"replay"}"#);
    let twin_frames = c.run_until("twin", stop);
    let replay_frames = fresh.run_until("replay", stop);
    // `src` one step further keeps its journal length (the advance merges
    // into its last `run_until`); with `twin` at the end too, nothing sits
    // at `doc` any more, and this restore replays.
    let mut frames = c.run_until("src", at + 100_000);
    assert_eq!(c.restore("late", &doc), at);
    frames.extend(c.run_until("src", stop));
    c.run_until("late", stop);
    assert!(frames.len() >= 10, "{} frames after the checkpoint", frames.len());
    assert!(twin_frames == frames, "the twin restore streams other frames than its source");
    assert!(replay_frames == frames, "the replay streams other frames than the source");
    let source = c.exports("src");
    assert!(source.0.contains("-- spans --") && source.1.len() > 1000);
    for name in ["twin", "late"] {
        assert!(c.exports(name) == source, "restore `{name}` exports differ from the source");
    }
    assert!(fresh.exports("replay") == source, "the replay exports differ from the source");

    // `sib`'s document: `alt` is at the same instant with a journal as
    // long, and comes first; only `sib` itself is its twin.
    assert_eq!(c.restore("sib_twin", &sib_doc), at);
    assert_eq!(fresh.restore("sib_replay", &sib_doc), at);
    let mut ends = Vec::new();
    for name in ["sib", "sib_twin"] {
        c.run_until(name, stop);
        ends.push(c.exports(name));
    }
    fresh.run_until("sib_replay", stop);
    ends.push(fresh.exports("sib_replay"));
    assert!(ends[0] != source, "the extra flow left no trace in the bundle");
    assert!(ends[1] == ends[0], "the twin restore of `sib`'s document continues differently");
    assert!(ends[2] == ends[0], "the replay of `sib`'s document continues differently");
}

// --- streaming subscriptions ---

#[test]
fn slo_scenario_is_a_fixed_point_and_declares_services() {
    let once = Scenario::parse(SLO_SCENARIO).expect("slo scenario parses").to_json();
    let twice = Scenario::parse(&once).expect("normalized form parses").to_json();
    assert_eq!(once, twice);
    assert!(once.contains(r#""slos""#) && once.contains(r#""service": "cache""#), "{once}");

    let mut s = Session::new(Scenario::parse(SLO_SCENARIO).unwrap()).unwrap();
    s.run_until(2_000_000);
    let report = s.net().export_slo_report().expect("telemetry is on");
    // SLO-bearing services are declared before tag-only ones.
    assert!(report.contains("cache") && report.contains("bulk"), "{report}");
    let bundle = s.export_bundle();
    assert!(bundle.contains("-- slo --"), "{bundle}");
}

#[test]
fn subscription_stream_is_reproducible() -> Result<(), Box<dyn std::error::Error>> {
    // The second case names its service `ca"che<newline>`: a user string
    // must come back escaped, as written, from every frame and export.
    let hostile = SLO_SCENARIO.replace(r#""cache""#, r#""ca\"che\n""#);
    for (scenario, service) in [(SLO_SCENARIO, "cache"), (hostile.as_str(), "ca\"che\n")] {
        let drive = || {
            let mut cp = ControlPlane::new();
            let mut subs = Subscriptions::new();
            let mut lines = Vec::new();
            for req in [
                format!(
                    r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{scenario}}}}}"#
                ),
                r#"{"id":2,"method":"subscribe","params":{"name":"s"}}"#.to_string(),
                r#"{"id":3,"method":"run_until","params":{"name":"s","ns":700000}}"#.to_string(),
                r#"{"id":4,"method":"run_until","params":{"name":"s","ns":2000000}}"#.to_string(),
                r#"{"id":5,"method":"export","params":{"name":"s","what":"timeseries"}}"#
                    .to_string(),
                r#"{"id":6,"method":"export","params":{"name":"s","what":"slo"}}"#.to_string(),
                r#"{"id":7,"method":"export","params":{"name":"s","what":"bundle"}}"#.to_string(),
            ] {
                lines.extend(cp.handle_request(&req, &mut subs));
            }
            lines
        };
        let first = drive();
        let joined = first.join("\n");
        assert!(joined.contains(r#""frame":"sample""#), "no sample frames streamed:\n{joined}");
        assert!(joined.contains(r#""sub":"s""#), "frames must name their subscription:\n{joined}");
        assert_eq!(first, drive(), "the frame stream and exports must reproduce");

        // Every line is one JSON document, and so is every JSON line inside
        // an export's text (the SLO report is a plain-text table). A parsed
        // line renders back to itself, so the name inside it round-trips;
        // frames, time series and the bundle's SLO section all carry it.
        let spelled = json::render(service);
        let (mut frames, mut exports) = (0, 0);
        for line in &first {
            let doc = json::parse(line).map_err(|e| format!("{e}: {line}"))?;
            assert_eq!(&doc.to_string(), line);
            let Some(text) = doc.get("result").and_then(|r| r.get("text")) else {
                frames += usize::from(doc.get("frame").is_some() && line.contains(&spelled));
                continue;
            };
            let text = text.as_str()?;
            for inner in text.lines().filter(|l| l.starts_with('{')) {
                let doc = json::parse(inner).map_err(|e| format!("{e}: {inner}"))?;
                assert_eq!(doc.to_string(), inner);
            }
            exports += usize::from(text.contains(&spelled));
        }
        assert!(frames > 0 && exports == 2, "{frames} frames, {exports} exports name {service:?}");
    }
    Ok(())
}

/// A sample is stored once, as its row, and rendered where it is read: the
/// frame a subscriber drains and the `export timeseries` line with the same
/// `t_ns` are the same bytes, event frames keep their place between the
/// samples, and a fork's or a restored session's frames index that
/// session's own rows — all three continue with the same stream.
#[test]
fn streamed_sample_frames_are_the_exported_rows() -> Result<(), Box<dyn std::error::Error>> {
    let mut cp = ControlPlane::new();
    let mut subs = Subscriptions::new();
    let mut call = |req: String| cp.handle_request(&req, &mut subs);
    let text_of = |response: &str| -> Result<String, Box<dyn std::error::Error>> {
        let doc = json::parse(response)?;
        Ok(doc.get("result").and_then(|r| r.get("text")).ok_or("no text")?.as_str()?.to_string())
    };
    call(format!(
        r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{SLO_SCENARIO}}}}}"#
    ));
    call(r#"{"id":2,"method":"subscribe","params":{"name":"s"}}"#.to_string());
    // Mid-stream: the fault window (and its flight dump) is open at 700 us.
    let mut streams = vec![call(
        r#"{"id":3,"method":"run_until","params":{"name":"s","ns":700000}}"#.to_string(),
    )];
    let ckpt = call(r#"{"id":4,"method":"checkpoint","params":{"name":"s"}}"#.to_string());
    let ckpt = json::parse(&ckpt[0])?;
    let ckpt = ckpt.get("result").and_then(|r| r.get("checkpoint")).ok_or("no checkpoint")?;
    call(format!(r#"{{"id":5,"method":"restore","params":{{"name":"r","checkpoint":{ckpt}}}}}"#));
    call(r#"{"id":6,"method":"fork","params":{"name":"f","from":"s"}}"#.to_string());
    for name in ["r", "f"] {
        call(format!(r#"{{"id":7,"method":"subscribe","params":{{"name":"{name}"}}}}"#));
    }
    // One session per turn, so each turn's frames are one session's; the
    // second fault window puts a flight dump into every continuation.
    for name in ["s", "r", "f"] {
        call(format!(
            r#"{{"id":8,"method":"inject_faults","params":{{"name":"{name}","faults":[{{"kind":"link_down","node":1,"port":1,"start_ns":1250000,"end_ns":1600000}}]}}}}"#
        ));
        streams.push(call(format!(
            r#"{{"id":9,"method":"run_until","params":{{"name":"{name}","ns":2000000}}}}"#
        )));
    }
    let mut tails = Vec::new();
    for (name, turns) in [("s", &streams[..2]), ("r", &streams[2..3]), ("f", &streams[3..])] {
        let export = call(format!(
            r#"{{"id":10,"method":"export","params":{{"name":"{name}","what":"timeseries"}}}}"#
        ));
        let rows = text_of(&export[0])?;
        let prefix = format!(r#"{{"sub":"{name}","frame":"#);
        let (mut samples, mut events, mut last_ns) = (0, 0, 0);
        let mut tail = Vec::new();
        for line in turns.iter().flat_map(|turn| &turn[..turn.len() - 1]) {
            let frame = line
                .strip_prefix(&prefix)
                .and_then(|l| l.strip_suffix('}'))
                .ok_or_else(|| format!("not a frame of `{name}`: {line}"))?;
            let doc = json::parse(frame)?;
            let t_ns = doc.get("t_ns").ok_or("a frame without t_ns")?.as_u64()?;
            assert!(t_ns >= last_ns, "frames out of order at {t_ns}: {line}");
            last_ns = t_ns;
            if doc.get("frame").ok_or("no kind")?.as_str()? == "sample" {
                let row = rows.lines().find(|r| r.contains(&format!(r#""t_ns":{t_ns},"#)));
                assert_eq!(Some(frame), row, "frame and exported row differ at {t_ns}");
                samples += 1;
            } else {
                events += 1;
            }
            if t_ns > 700_000 {
                tail.push(frame.to_string());
            }
        }
        assert!(samples >= if name == "s" { 19 } else { 12 }, "{name}: {samples} samples");
        assert!(events > 0, "{name}: no slo or flight frame between the samples");
        tails.push(tail);
    }
    assert!(tails[0] == tails[1] && tails[0] == tails[2], "s, r and f continue differently");
    Ok(())
}

#[test]
fn unsubscribe_stops_the_stream_and_frames_only_flow_while_subscribed() {
    let mut cp = ControlPlane::new();
    let mut subs = Subscriptions::new();
    cp.handle_request(
        &format!(r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{SLO_SCENARIO}}}}}"#),
        &mut subs,
    );
    // Not subscribed: running produces a bare response, no frames.
    let out = cp.handle_request(
        r#"{"id":2,"method":"run_until","params":{"name":"s","ns":300000}}"#,
        &mut subs,
    );
    assert_eq!(out.len(), 1, "no frames before subscribe: {out:?}");
    // Subscribed: the next run's frames ride along before the response.
    cp.handle_request(r#"{"id":3,"method":"subscribe","params":{"name":"s"}}"#, &mut subs);
    let out = cp.handle_request(
        r#"{"id":4,"method":"run_until","params":{"name":"s","ns":600000}}"#,
        &mut subs,
    );
    assert!(out.len() > 1, "expected frames: {out:?}");
    assert!(out.last().unwrap().contains(r#""id":4"#), "response comes last: {out:?}");
    // Unsubscribed: silence again.
    cp.handle_request(r#"{"id":5,"method":"unsubscribe","params":{"name":"s"}}"#, &mut subs);
    let out = cp.handle_request(
        r#"{"id":6,"method":"run_until","params":{"name":"s","ns":900000}}"#,
        &mut subs,
    );
    assert_eq!(out.len(), 1, "no frames after unsubscribe: {out:?}");
}

#[test]
fn client_disconnect_mid_stream_does_not_poison_the_server() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let server = std::thread::spawn(move || openoptics_ctl::serve_on(listener, None));

    // Client 1 loads a session, subscribes, floods pipelined run requests
    // and vanishes without reading a byte: the server's frame writes land
    // on a reset socket mid-stream.
    {
        let mut c1 = TcpStream::connect(addr).expect("client 1 connects");
        let one_line = SLO_SCENARIO.replace('\n', " ");
        c1.write_all(
            format!(
                "{{\"id\":1,\"method\":\"load\",\"params\":{{\"name\":\"s\",\"scenario\":{one_line}}}}}\n"
            )
            .as_bytes(),
        )
        .expect("client 1 loads");
        // Wait for the load response so the session definitely exists
        // before the abrupt exit (a reset can discard unread input).
        let mut r1 = BufReader::new(c1.try_clone().expect("clone client 1"));
        let mut ack = String::new();
        r1.read_line(&mut ack).expect("load response");
        assert!(ack.contains(r#""result""#), "{ack}");
        let mut msg =
            String::from("{\"id\":2,\"method\":\"subscribe\",\"params\":{\"name\":\"s\"}}\n");
        for i in 0..64u64 {
            msg.push_str(&format!(
                "{{\"id\":{},\"method\":\"run_for\",\"params\":{{\"name\":\"s\",\"dur_ns\":100000}}}}\n",
                i + 3
            ));
        }
        c1.write_all(msg.as_bytes()).expect("client 1 floods");
        // Dropped here, unread frame stream and all.
    }

    // Client 2 must still be served by the same control plane — including
    // the session client 1 loaded — and shutdown must still work.
    let mut c2 = TcpStream::connect(addr).expect("client 2 connects");
    c2.write_all(
        b"{\"id\":1,\"method\":\"sessions\",\"params\":{}}\n{\"id\":2,\"method\":\"shutdown\"}\n",
    )
    .expect("client 2 writes");
    let mut reader = BufReader::new(c2);
    let mut line = String::new();
    reader.read_line(&mut line).expect("sessions response");
    assert!(line.contains(r#"["s"]"#), "session must survive the disconnect: {line}");
    let mut line = String::new();
    reader.read_line(&mut line).expect("shutdown response");
    assert!(line.contains(r#""ok":true"#), "{line}");
    server.join().expect("server thread").expect("serve_on exits cleanly");
}

#[test]
fn rpc_errors_are_typed_and_echo_the_id() {
    let mut cp = ControlPlane::new();
    let missing = cp.handle_line(r#"{"id":7,"method":"status","params":{"name":"ghost"}}"#);
    assert!(missing.contains(r#""id":7"#) && missing.contains("no session named"), "{missing}");
    let unknown = cp.handle_line(r#"{"id":8,"method":"teleport","params":{}}"#);
    assert!(unknown.contains("unknown method"), "{unknown}");
    let garbage = cp.handle_line("{not json");
    assert!(garbage.contains(r#""error""#), "{garbage}");
    // Hostile nesting is a typed error with a null id, not a stack overflow.
    let deep = cp.handle_line(&"[".repeat(300_000));
    assert!(deep.starts_with(r#"{"id":null,"error":{"field":"request""#), "{deep}");
    assert!(deep.contains("nesting deeper than 128"), "{deep}");
    assert!(!cp.shutdown_requested());
    let bye = cp.handle_line(r#"{"id":9,"method":"shutdown"}"#);
    assert!(bye.contains(r#""ok":true"#), "{bye}");
    assert!(cp.shutdown_requested());
}
