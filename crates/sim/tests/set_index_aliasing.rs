//! Characterization of a known reproduction defect: address-interleaved
//! homes alias with the LLC set index.
//!
//! An interleaved line's home slice is `line mod N` (N tiles) and its set
//! within that slice is `line mod S` (S sets).  With N dividing S, every
//! line homed at a slice has the same residue mod N, so it can only land in
//! the S/N sets with that residue.  All S-NUCA lines, and R-NUCA's shared
//! and unclassified ones, are homed this way: the chip holds at most one
//! slice's worth of them, and capacity misses go off-chip far earlier than
//! the paper's aggregate LLC would allow.

use std::collections::BTreeSet;

use lad_common::config::SystemConfig;
use lad_replication::config::ReplicationConfig;
use lad_replication::entry::LlcEntry;
use lad_sim::engine::Simulator;
use lad_trace::benchmarks::Benchmark;
use lad_trace::generator::TraceGenerator;

/// Pins the aliasing as it stands today: under S-NUCA on the 16-tile,
/// 256-set test system, each slice's home lines sit in at most 256/16 = 16
/// sets, and a working set larger than that fills exactly those sets, so
/// the whole chip holds one slice's worth of home lines.
///
/// ROADMAP item 1 (reproduction fidelity) must invert this test when it
/// changes the home or set-index mapping: afterwards a slice's home lines
/// must be able to reach all of its sets.
#[test]
fn interleaved_home_lines_reach_only_one_nth_of_their_slices_sets() {
    let system = SystemConfig::small_test();
    let tiles = system.num_cores;
    let sets = system.llc_slice.num_sets(system.cache_line_bytes);
    let ways = system.llc_slice.associativity;
    let trace = TraceGenerator::new(Benchmark::Barnes.profile()).generate(tiles, 2000, 11);
    let mut sim = Simulator::new(system, ReplicationConfig::static_nuca());
    sim.run(&trace);

    let mut home_lines = 0;
    for (slice, tile) in sim.tiles().iter().enumerate() {
        let home_slots: Vec<usize> = tile
            .llc
            .slots()
            .filter(|(.., entry)| matches!(entry, LlcEntry::Home(_)))
            .map(|(slot, ..)| slot)
            .collect();
        let home_sets: BTreeSet<usize> = home_slots.iter().map(|slot| slot / ways).collect();
        assert_eq!(
            home_sets.len(),
            sets / tiles,
            "slice {slice}: home lines span {home_sets:?}"
        );
        assert!(home_sets.iter().all(|set| set % tiles == slice));
        home_lines += home_slots.len();
    }
    assert_eq!(home_lines, sets * ways, "one slice's worth of home lines");
}
