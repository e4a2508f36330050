//! The hierarchical TA+TO design of Fig. 5(d).
//!
//! "GPU machines within a rack can be interconnected through a TO scale-up
//! network, leveraging its rich connectivity, while ToRs can be further
//! interconnected through a TA scale-out network to manage traffic
//! locality across racks." The paper's program creates one network object
//! per level from separate static configurations; this example does the
//! same — each rack's scale-up fabric and the inter-rack scale-out fabric
//! are independent OpenOptics networks, exactly as the two-level config
//! composition in Fig. 5(d).

use openoptics::prelude::*;

/// Scale-up (intra-rack) config: GPU hosts as endpoint nodes on a fast TO
/// rotor (the paper's JSON says `"node": "host"`; every endpoint node is
/// modeled the same way, one host per node).
fn rack_conf() -> NetConfig {
    NetConfig::builder()
        .node_num(8) // 8 GPUs per rack
        .uplink(2)
        .slice_ns(5_000) // fast scale-up slices
        .guard_ns(200)
        .uplink_gbps(100)
        .build()
        .expect("valid config")
}

/// Scale-out (inter-rack) config: racks as endpoint nodes on a TA mesh.
fn core_conf() -> NetConfig {
    NetConfig::builder()
        .node_num(4) // 4 racks
        .uplink(2)
        .slice_ns(1_000_000)
        .ocs_reconfig_ns(25_000_000)
        .build()
        .expect("valid config")
}

fn main() {
    // for rack in net.nodes: rack.deploy_topo(round_robin(...)); vlb(...)
    let mut racks: Vec<OpenOpticsNet> = (0..core_conf().node_num)
        .map(|_| {
            OpenOpticsNet::deploy_preset(rack_conf(), Architecture::rotornet())
                .expect("rotornet deploys")
        })
        .collect();

    // Core inter-rack network: Jupiter-style evolving mesh with WCMP.
    let mut core = OpenOpticsNet::deploy_preset(core_conf(), Architecture::jupiter())
        .expect("jupiter deploys");

    // Workload: an all-to-all burst inside rack 0 (scale-up traffic) and
    // rack-to-rack shuffles on the core (scale-out traffic).
    for (i, rack) in racks.iter_mut().enumerate() {
        for g in 0..8u32 {
            rack.add_flow(
                SimTime::from_ns(100 + g as u64),
                HostId(g),
                HostId((g + 1) % 8),
                200_000,
                TransportKind::Paced,
            );
        }
        let _ = i;
    }
    for r in 0..4u32 {
        core.add_flow(
            SimTime::from_ns(100),
            HostId(r),
            HostId((r + 1) % 4),
            10_000_000,
            TransportKind::Paced,
        );
    }

    // Run the scale-up level.
    let mut rack_fcts = vec![];
    for rack in &mut racks {
        rack.run_for(SimTime::from_ms(60));
        let v: Vec<u64> = rack.fct().completed().iter().map(|r| r.fct_ns()).collect();
        rack_fcts.extend(v);
    }

    // Run the scale-out level: collect traffic, evolve the mesh (the
    // `while TM = net.collect("1h")` loop of Fig. 5d), continue.
    let tm: TrafficMatrix = core.collect(SimTime::from_ms(5));
    core.reconfigure(&tm).expect("jupiter evolution stays valid");
    core.run_for(SimTime::from_ms(40));

    rack_fcts.sort_unstable();
    println!("hierarchical TA+TO (4 racks x 8 GPUs):");
    println!(
        "  scale-up  (TO rotor, 5us slices): {} intra-rack flows, median FCT {:.0} us",
        rack_fcts.len(),
        FctStats::percentile(&rack_fcts, 50.0).unwrap_or(0) as f64 / 1e3
    );
    println!(
        "  scale-out (TA mesh, WCMP)       : {} inter-rack flows completed, TM total {:.1} MB",
        core.fct().completed().len(),
        tm.total() / 1e6
    );
    println!("  inter-rack demand drove one Jupiter evolution step (Fig. 5d loop)");
}
