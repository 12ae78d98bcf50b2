//! Golden report digests: every scheme of the paper's comparison, run on a
//! fixed trace, must produce a report whose JSON rendering hashes to the
//! digest recorded below.  A change that claims to leave the model alone
//! (a refactor, a host-speed optimisation) must pass this table unedited;
//! a change that moves the model must re-record it and say why.
//!
//! The cells run WATER-NSQ on `SystemConfig::small_test()` with a single
//! ACKwise pointer, so sharer lists overflow into broadcast invalidation
//! and global-mode home entries get evicted, on a square 4×4 mesh and on a
//! non-square 4×3 one.

use std::io::Cursor;

use locality_replication::prelude::*;
use locality_replication::trace::generator::WorkloadTrace;
use locality_replication::traceio::digest::{fnv1a, FNV_OFFSET_BASIS};

const BENCHMARK: Benchmark = Benchmark::WaterNsquared;
const ACCESSES_PER_CORE: usize = 600;
const SEED: u64 = 42;

/// `(cores, scheme, FNV-1a 64 of report.to_json().to_string())`.
const GOLDEN: [(usize, SchemeId, u64); 14] = [
    (16, SchemeId::StaticNuca, 0x1461_d68f_c1a4_d282),
    (16, SchemeId::ReactiveNuca, 0xdee5_2194_e48a_d187),
    (16, SchemeId::VictimReplication, 0xc7e1_c8c0_6f46_1709),
    (16, SchemeId::Asr, 0x74dd_cca1_d6c4_452f),
    (16, SchemeId::Rt(1), 0x9989_ceb1_149e_e485),
    (16, SchemeId::Rt(3), 0xf38d_dc10_de8c_3ba2),
    (16, SchemeId::Rt(8), 0x8583_d473_c714_6c5e),
    (12, SchemeId::StaticNuca, 0x18ed_257c_1fbb_d9f4),
    (12, SchemeId::ReactiveNuca, 0xc0dc_dca9_720b_c029),
    (12, SchemeId::VictimReplication, 0x6472_4781_b7e6_fac0),
    (12, SchemeId::Asr, 0x7963_3d50_5b70_3cad),
    (12, SchemeId::Rt(1), 0x530f_d444_2ba5_d0e5),
    (12, SchemeId::Rt(3), 0xdc00_6edc_30ab_cf44),
    (12, SchemeId::Rt(8), 0x1421_3f45_6ba0_67b4),
];

/// One configuration per column of [`SchemeComparison::SCHEME_ORDER`]
/// (ASR at level 0.5).
fn config_for(scheme: SchemeId) -> ReplicationConfig {
    match scheme {
        SchemeId::StaticNuca => ReplicationConfig::static_nuca(),
        SchemeId::ReactiveNuca => ReplicationConfig::reactive_nuca(),
        SchemeId::VictimReplication => ReplicationConfig::victim_replication(),
        SchemeId::Asr => ReplicationConfig::asr(0.5),
        SchemeId::AsrAt(level) => ReplicationConfig::asr(f64::from(level) / 100.0),
        SchemeId::Rt(rt) => ReplicationConfig::locality_aware(rt),
        SchemeId::Custom(other) => panic!("no built-in configuration for {other:?}"),
    }
}

fn system(cores: usize) -> SystemConfig {
    let mut system = SystemConfig::small_test().with_num_cores(cores);
    system.ackwise_pointers = 1;
    system
}

fn generator() -> TraceGenerator {
    TraceGenerator::new(BENCHMARK.profile())
}

fn trace(cores: usize) -> WorkloadTrace {
    generator().generate(cores, ACCESSES_PER_CORE, SEED)
}

fn digest(report: &SimulationReport) -> u64 {
    fnv1a(FNV_OFFSET_BASIS, report.to_json().to_string().as_bytes())
}

fn golden(cores: usize, scheme: SchemeId) -> u64 {
    GOLDEN
        .iter()
        .find(|&&(c, s, _)| c == cores && s == scheme)
        .map(|&(_, _, digest)| digest)
        .expect("every cell has a golden digest")
}

#[test]
fn golden_table_covers_every_scheme_on_both_meshes() {
    for cores in [16, 12] {
        for scheme in SchemeComparison::SCHEME_ORDER {
            golden(cores, scheme);
        }
    }
    assert_eq!(system(12).network.mesh_width, 4);
    assert_eq!(system(12).network.mesh_height, 3);
}

#[test]
fn every_scheme_reports_its_golden_digest() {
    let mut mismatches = Vec::new();
    for cores in [16, 12] {
        let trace = trace(cores);
        for scheme in SchemeComparison::SCHEME_ORDER {
            let mut sim = Simulator::new(system(cores), config_for(scheme));
            let actual = digest(&sim.run(&trace));
            if actual != golden(cores, scheme) {
                mismatches.push(format!("({cores}, {scheme:?}, {actual:#018x}),"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "reports moved; actual digests:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn reader_and_generator_sources_replay_to_the_in_memory_digest() {
    let cores = 16;
    let scheme = SchemeId::Rt(3);
    let expected = golden(cores, scheme);
    let mut sim = Simulator::new(system(cores), config_for(scheme));

    let bytes = locality_replication::traceio::encode_workload(&trace(cores), SEED)
        .expect("in-memory recording cannot fail");
    let mut reader = ReaderSource::new(Cursor::new(bytes)).expect("recorded bytes must open");
    let replayed = sim
        .run_source(&mut reader)
        .expect("recorded bytes must replay");
    assert_eq!(digest(&replayed), expected, "ReaderSource replay");

    let mut generated = GeneratorSource::new(generator(), cores, ACCESSES_PER_CORE, SEED);
    let generated = sim
        .run_source(&mut generated)
        .expect("generated traces cannot fail");
    assert_eq!(digest(&generated), expected, "GeneratorSource replay");
}
