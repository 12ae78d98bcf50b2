//! Table 1: the architectural parameters used for evaluation.

use lad_bench::{emit_json, figure_json, harness_system};
use lad_common::json::JsonValue;
use lad_replication::config::ReplicationConfig;

fn main() {
    let system = harness_system();
    let replication = ReplicationConfig::paper_default();
    println!("Table 1: architectural parameters");
    println!("{:<38} {}", "Number of cores", system.num_cores);
    println!("{:<38} In-Order, Single-Issue", "Compute pipeline per core");
    println!(
        "{:<38} {} KB, {}-way, {} cycle",
        "L1-I cache per core",
        system.l1i.capacity_bytes / 1024,
        system.l1i.associativity,
        system.l1i.access_latency()
    );
    println!(
        "{:<38} {} KB, {}-way, {} cycle",
        "L1-D cache per core",
        system.l1d.capacity_bytes / 1024,
        system.l1d.associativity,
        system.l1d.access_latency()
    );
    println!(
        "{:<38} {} KB, {}-way, {} cycle tag, {} cycle data, R-NUCA",
        "L2 (LLC) slice per core",
        system.llc_slice.capacity_bytes / 1024,
        system.llc_slice.associativity,
        system.llc_slice.tag_latency,
        system.llc_slice.data_latency
    );
    println!(
        "{:<38} Invalidation-based MESI, ACKwise{}",
        "Directory protocol", system.ackwise_pointers
    );
    println!(
        "{:<38} {} controllers, {} B/cycle each, {} cycle latency",
        "DRAM",
        system.dram.num_controllers,
        system.dram.bandwidth_bytes_per_cycle,
        system.dram.access_latency
    );
    println!(
        "{:<38} {}x{} mesh, XY routing, {}-cycle hop, {}-bit flits",
        "Electrical 2-D mesh",
        system.network.mesh_width,
        system.network.mesh_height,
        system.network.hop_latency,
        system.network.flit_width_bits
    );
    println!(
        "{:<38} {} flits",
        "Cache line",
        system.network.data_message_flits(system.cache_line_bytes) - system.network.header_flits
    );
    println!(
        "{:<38} RT = {}, {:?} classifier, cluster size {}",
        "Locality-aware replication",
        replication.replication_threshold(),
        replication.classifier,
        replication.cluster_size
    );

    emit_json(&figure_json(
        "table1_config",
        JsonValue::object([
            ("num_cores", JsonValue::from(system.num_cores)),
            ("l1i_kb", JsonValue::from(system.l1i.capacity_bytes / 1024)),
            (
                "l1i_associativity",
                JsonValue::from(system.l1i.associativity),
            ),
            ("l1d_kb", JsonValue::from(system.l1d.capacity_bytes / 1024)),
            (
                "l1d_associativity",
                JsonValue::from(system.l1d.associativity),
            ),
            (
                "llc_slice_kb",
                JsonValue::from(system.llc_slice.capacity_bytes / 1024),
            ),
            (
                "llc_associativity",
                JsonValue::from(system.llc_slice.associativity),
            ),
            (
                "llc_tag_latency",
                JsonValue::from(system.llc_slice.tag_latency),
            ),
            (
                "llc_data_latency",
                JsonValue::from(system.llc_slice.data_latency),
            ),
            ("ackwise_pointers", JsonValue::from(system.ackwise_pointers)),
            (
                "dram_controllers",
                JsonValue::from(system.dram.num_controllers),
            ),
            (
                "dram_bandwidth_bytes_per_cycle",
                JsonValue::from(system.dram.bandwidth_bytes_per_cycle),
            ),
            (
                "dram_access_latency",
                JsonValue::from(system.dram.access_latency),
            ),
            ("mesh_width", JsonValue::from(system.network.mesh_width)),
            ("mesh_height", JsonValue::from(system.network.mesh_height)),
            ("hop_latency", JsonValue::from(system.network.hop_latency)),
            (
                "flit_width_bits",
                JsonValue::from(system.network.flit_width_bits),
            ),
            (
                "replication_threshold",
                JsonValue::from(replication.replication_threshold()),
            ),
            (
                "classifier",
                JsonValue::from(format!("{:?}", replication.classifier)),
            ),
            ("cluster_size", JsonValue::from(replication.cluster_size)),
        ]),
    ));
}
