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
//!
//! A second table pins the 16-core trace through the two other ways
//! simulators get built: every id of the paper's sweep resolved through the
//! built-in scheme registry (the `run_matrix` and `lad-serve` path, with
//! all five ASR levels), and the `Simulator::new` variants the figure
//! binaries run (a cluster size, two classifier organizations and plain
//! LRU replacement).

use std::io::Cursor;
use std::sync::Arc;

use locality_replication::cache::llc_slice::LlcReplacementPolicy;
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

/// `(label, FNV-1a 64 of report.to_json().to_string())` on the 16-core
/// trace: the registry cells under their scheme labels, then the
/// figure-binary variants under the names [`variant_configs`] gives them.
const GOLDEN_BUILD_PATHS: [(&str, u64); 15] = [
    ("S-NUCA", 0x1461_d68f_c1a4_d282),
    ("R-NUCA", 0xdee5_2194_e48a_d187),
    ("VR", 0xc7e1_c8c0_6f46_1709),
    ("RT-1", 0x9989_ceb1_149e_e485),
    ("RT-3", 0xf38d_dc10_de8c_3ba2),
    ("RT-8", 0x8583_d473_c714_6c5e),
    ("ASR-0.00", 0x8a29_a47d_5e66_c7cf),
    ("ASR-0.25", 0x75f2_98ab_472b_c202),
    ("ASR-0.50", 0x74dd_cca1_d6c4_452f),
    ("ASR-0.75", 0x6d06_91ad_571e_9d0c),
    ("ASR-1.00", 0xcc4f_1753_6512_12a9),
    ("RT-3/C-4", 0x9377_c66f_8c5d_330e),
    ("RT-3 Complete", 0x46ac_a4f4_16e7_3a54),
    ("RT-3 Limited-1", 0x4033_1342_b4b2_fab3),
    ("RT-3 PlainLru", 0x4cb6_d77e_a623_bb19),
];

/// Cluster-level replication trips the engine's debug-build SWMR check on
/// this trace (a known fault, ROADMAP item 1), so this cell is pinned in
/// release builds only, where the check is compiled out and the report is
/// what `fig10_cluster_size` prints.
const RELEASE_ONLY: &str = "RT-3/C-4";

/// The `Simulator::new` configurations of the cluster-size (Figure 10),
/// classifier (Figure 9) and LLC-replacement (Section 4.2) binaries that
/// differ from a sweep column.
fn variant_configs() -> [(&'static str, ReplicationConfig); 4] {
    let rt3 = ReplicationConfig::locality_aware(3);
    [
        ("RT-3/C-4", rt3.clone().with_cluster_size(4)),
        (
            "RT-3 Complete",
            rt3.clone().with_classifier(ClassifierKind::Complete),
        ),
        (
            "RT-3 Limited-1",
            rt3.clone().with_classifier(ClassifierKind::Limited(1)),
        ),
        (
            "RT-3 PlainLru",
            rt3.with_llc_replacement(LlcReplacementPolicy::PlainLru),
        ),
    ]
}

#[test]
fn registry_and_figure_variant_cells_report_their_golden_digests() {
    let cores = 16;
    let trace = trace(cores);
    let registry = SchemeRegistry::builtin();
    let mut cells = Vec::new();
    for id in ExperimentRunner::paper_sweep() {
        let entry = registry
            .get(id)
            .unwrap_or_else(|err| panic!("the paper sweep is registered: {err}"));
        let mut sim = Simulator::with_policy_and_energy_model(
            system(cores),
            entry.config.clone(),
            Arc::clone(&entry.policy),
            EnergyModel::paper_default(),
        );
        let report = sim.run(&trace);
        assert_eq!(report.scheme, id.label());
        cells.push((id.label(), report));
    }
    for (name, config) in variant_configs() {
        if cfg!(debug_assertions) && name == RELEASE_ONLY {
            continue;
        }
        let mut sim = Simulator::new(system(cores), config);
        cells.push((name.to_string(), sim.run(&trace)));
    }

    let actual: Vec<(String, u64)> = cells
        .iter()
        .map(|(name, report)| (name.clone(), digest(report)))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN_BUILD_PATHS
        .iter()
        .filter(|&&(name, _)| !(cfg!(debug_assertions) && name == RELEASE_ONLY))
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert!(
        actual == expected,
        "reports moved; actual digests:\n{}",
        actual
            .iter()
            .map(|(name, digest)| format!("(\"{name}\", {digest:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
