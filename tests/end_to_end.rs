//! End-to-end integration tests spanning every crate: trace generation,
//! placement, coherence, replication, NoC, DRAM, energy and metrics.
//!
//! These use the scaled-down 16-core test configuration so they stay fast in
//! debug builds while exercising the same protocol paths as the 64-core
//! target.

use locality_replication::prelude::*;

fn trace(benchmark: Benchmark, accesses: usize) -> lad_trace::generator::WorkloadTrace {
    TraceGenerator::new(benchmark.profile()).generate(
        SystemConfig::small_test().num_cores,
        accesses,
        2024,
    )
}

fn run(benchmark: Benchmark, accesses: usize, config: ReplicationConfig) -> SimulationReport {
    let mut sim = Simulator::new(SystemConfig::small_test(), config);
    sim.run(&trace(benchmark, accesses))
}

#[test]
fn every_scheme_runs_every_quick_benchmark() {
    let configs = [
        ReplicationConfig::static_nuca(),
        ReplicationConfig::reactive_nuca(),
        ReplicationConfig::victim_replication(),
        ReplicationConfig::asr(0.5),
        ReplicationConfig::locality_aware(3),
    ];
    for benchmark in BenchmarkSuite::quick().benchmarks() {
        for config in &configs {
            let report = run(*benchmark, 400, config.clone());
            // Every access is either an L1 hit or classified by where it was
            // served.
            assert_eq!(
                report.total_accesses,
                report.misses.l1_hits + report.misses.l1_misses(),
                "{benchmark} under {} loses accesses",
                config.label()
            );
            assert!(report.completion_time.value() > 0);
            assert!(report.energy.total() > 0.0);
            // Compute plus memory latency must be attributed somewhere.
            assert!(report.latency.total() > 0);
        }
    }
}

#[test]
fn non_replicating_schemes_never_create_replicas() {
    for config in [
        ReplicationConfig::static_nuca(),
        ReplicationConfig::reactive_nuca(),
    ] {
        let report = run(Benchmark::Barnes, 800, config);
        assert_eq!(report.replicas_created, 0, "{}", report.scheme);
        assert_eq!(report.misses.llc_replica_hits, 0);
    }
}

#[test]
fn locality_aware_converts_home_hits_into_replica_hits() {
    let baseline = run(Benchmark::Barnes, 1600, ReplicationConfig::static_nuca());
    let locality = run(
        Benchmark::Barnes,
        1600,
        ReplicationConfig::locality_aware(3),
    );
    assert!(locality.misses.llc_replica_hits > 0);
    // Replica hits displace traffic that previously had to travel to the home
    // slices or off-chip.
    assert!(
        locality.misses.llc_home_hits + locality.misses.offchip_misses
            < baseline.misses.llc_home_hits + baseline.misses.offchip_misses,
        "replication must reduce traffic to the home slices and off-chip"
    );
    // The off-chip miss count must not explode from replication pressure on a
    // benchmark whose working set fits in the LLC.
    assert!(
        locality.misses.offchip_misses
            <= baseline.misses.offchip_misses + baseline.misses.offchip_misses / 2 + 64
    );
}

#[test]
fn replication_threshold_trades_replicas_for_pressure() {
    let rt1 = run(
        Benchmark::Barnes,
        1600,
        ReplicationConfig::locality_aware(1),
    );
    let rt3 = run(
        Benchmark::Barnes,
        1600,
        ReplicationConfig::locality_aware(3),
    );
    let rt8 = run(
        Benchmark::Barnes,
        1600,
        ReplicationConfig::locality_aware(8),
    );
    assert!(rt1.replicas_created >= rt3.replicas_created);
    assert!(rt3.replicas_created >= rt8.replicas_created);
}

#[test]
fn low_reuse_benchmark_sees_little_replication_under_rt3() {
    let report = run(
        Benchmark::Fluidanimate,
        1600,
        ReplicationConfig::locality_aware(3),
    );
    let rt1 = run(
        Benchmark::Fluidanimate,
        1600,
        ReplicationConfig::locality_aware(1),
    );
    // RT-3 filters out most of the single-use lines RT-1 would replicate.
    assert!(report.replicas_created < rt1.replicas_created);
}

#[test]
fn reports_are_deterministic_across_runs() {
    let a = run(
        Benchmark::LuNonContiguous,
        600,
        ReplicationConfig::locality_aware(3),
    );
    let b = run(
        Benchmark::LuNonContiguous,
        600,
        ReplicationConfig::locality_aware(3),
    );
    assert_eq!(a.completion_time, b.completion_time);
    assert_eq!(a.misses.llc_replica_hits, b.misses.llc_replica_hits);
    assert_eq!(a.replicas_created, b.replicas_created);
    assert!((a.energy.total() - b.energy.total()).abs() < 1e-9);
}

#[test]
fn energy_breakdown_covers_expected_components() {
    let report = run(Benchmark::Barnes, 800, ReplicationConfig::locality_aware(3));
    assert!(report.energy.component(Component::L1D) > 0.0);
    assert!(report.energy.component(Component::L2Cache) > 0.0);
    assert!(report.energy.component(Component::Directory) > 0.0);
    assert!(report.energy.component(Component::NetworkRouter) > 0.0);
    assert!(report.energy.component(Component::NetworkLink) > 0.0);
    let fractions: f64 = report.energy.fractions().iter().map(|(_, f)| f).sum();
    assert!((fractions - 1.0).abs() < 1e-9);
}

#[test]
fn experiment_runner_produces_a_full_comparison() {
    let suite = BenchmarkSuite::custom(vec![Benchmark::Barnes, Benchmark::Dedup], 500, 5);
    let runner = ExperimentRunner::new(SystemConfig::small_test(), suite).with_threads(4);
    let comparison = runner.run_paper_comparison();
    for scheme in SchemeComparison::SCHEME_ORDER {
        for benchmark in comparison.benchmarks().to_vec() {
            assert!(
                comparison.report(benchmark, scheme).is_ok(),
                "missing {benchmark} under {scheme}"
            );
            let normalized = comparison
                .normalized_energy(benchmark, scheme, SchemeId::StaticNuca)
                .unwrap_or_else(|err| panic!("{err}"));
            assert!(normalized > 0.0 && normalized.is_finite());
        }
    }
    // S-NUCA normalized to itself is exactly 1.
    let self_normalized = comparison
        .average_normalized_energy(SchemeId::StaticNuca, SchemeId::StaticNuca)
        .unwrap();
    assert!((self_normalized - 1.0).abs() < 1e-12);
}

#[test]
fn missing_schemes_surface_as_typed_errors_not_silent_defaults() {
    // Regression for the old string-keyed API, which mapped a missing
    // scheme or baseline to a silent 1.0: a matrix that never ran VR must
    // report the lookup as an UnknownScheme error.
    let suite = BenchmarkSuite::custom(vec![Benchmark::Dedup], 200, 5);
    let runner = ExperimentRunner::new(SystemConfig::small_test(), suite).with_threads(2);
    let results = runner
        .run_matrix(&[SchemeId::StaticNuca, SchemeId::Rt(3)])
        .unwrap();
    let comparison = SchemeComparison::from_results(vec![Benchmark::Dedup], results);

    let err = comparison
        .normalized_energy(
            Benchmark::Dedup,
            SchemeId::VictimReplication,
            SchemeId::StaticNuca,
        )
        .unwrap_err();
    assert_eq!(err.scheme, SchemeId::VictimReplication);
    let err = comparison
        .normalized_completion_time(Benchmark::Dedup, SchemeId::Rt(3), SchemeId::Asr)
        .unwrap_err();
    assert_eq!(
        err.scheme,
        SchemeId::Asr,
        "missing baseline must name the baseline"
    );
    // Present cells still work.
    let ok = comparison
        .normalized_energy(Benchmark::Dedup, SchemeId::Rt(3), SchemeId::StaticNuca)
        .unwrap();
    assert!(ok.is_finite() && ok > 0.0);
}

/// An out-of-crate policy: replicate every line at the requester's slice on
/// every home fill, never consulting any classifier — the kind of scheme the
/// registry exists for.  It notes each thread that builds its simulators.
#[derive(Debug, Default)]
struct AlwaysReplicate(std::sync::Mutex<std::collections::BTreeSet<String>>);

impl ReplicationPolicy for AlwaysReplicate {
    fn id(&self) -> SchemeId {
        SchemeId::Custom("ALWAYS")
    }
    fn placement(&self) -> PlacementPolicy {
        let thread = format!("{:?}", std::thread::current().id());
        self.0.lock().unwrap().insert(thread);
        PlacementPolicy::AddressInterleaved
    }
    fn replicates(&self) -> bool {
        true
    }
    fn replicate_on_fill(&self, _: FillDecision<'_>) -> bool {
        true
    }
    fn replicate_on_l1_evict(&self, _: EvictDecision<'_>) -> bool {
        false
    }
}

#[test]
fn custom_policy_registered_in_the_registry_runs_through_run_matrix() {
    let suite = BenchmarkSuite::custom(vec![Benchmark::Barnes], 600, 5);
    let mut runner = ExperimentRunner::new(SystemConfig::small_test(), suite).with_threads(2);
    let policy = std::sync::Arc::new(AlwaysReplicate::default());
    runner.register_scheme(policy.clone(), ReplicationConfig::static_nuca());

    let results = runner
        .run_matrix(&[SchemeId::StaticNuca, SchemeId::Custom("ALWAYS")])
        .expect("registered custom scheme must resolve");
    let custom = &results[&(Benchmark::Barnes, SchemeId::Custom("ALWAYS"))];
    let baseline = &results[&(Benchmark::Barnes, SchemeId::StaticNuca)];

    assert_eq!(custom.scheme, "ALWAYS");
    assert_eq!(custom.scheme_id, SchemeId::Custom("ALWAYS"));
    assert!(
        custom.replicas_created > 0,
        "always-replicate must create replicas"
    );
    assert!(custom.misses.llc_replica_hits > 0);
    assert_eq!(baseline.replicas_created, 0);
    assert_eq!(custom.total_accesses, baseline.total_accesses);

    // The same custom scheme also flows through the comparison machinery.
    let comparison = SchemeComparison::from_results(vec![Benchmark::Barnes], results);
    let normalized = comparison
        .normalized_energy(
            Benchmark::Barnes,
            SchemeId::Custom("ALWAYS"),
            SchemeId::StaticNuca,
        )
        .unwrap();
    assert!(normalized.is_finite() && normalized > 0.0);

    // Later matrices run on the same two workers, not on new threads.
    for _ in 0..2 {
        runner.run_matrix(&[SchemeId::Custom("ALWAYS")]).unwrap();
    }
    assert!(policy.0.lock().unwrap().len() <= 2);
}

#[test]
fn run_length_characterization_distinguishes_benchmarks() {
    let barnes = run(Benchmark::Barnes, 1600, ReplicationConfig::static_nuca());
    let dist = barnes.run_lengths.distribution();
    let srw: f64 = dist
        .iter()
        .find(|(c, _)| *c == DataClass::SharedReadWrite)
        .map(|(_, b)| b.iter().sum())
        .unwrap();
    let total: f64 = dist.iter().flat_map(|(_, b)| b.iter()).sum();
    assert!(
        srw / total > 0.5,
        "BARNES LLC accesses must be dominated by shared read-write data"
    );
}
