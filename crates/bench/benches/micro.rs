//! Criterion micro-benchmarks for the building blocks of the reproduction:
//! the locality classifier, the directory, the cache array, the mesh network
//! and a small end-to-end simulation.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use lad_common::config::SystemConfig;
use lad_common::types::{CacheLine, CoreId, Cycle};
use lad_energy::model::EnergyModel;
use lad_noc::message::MessageKind;
use lad_noc::Network;
use lad_replication::classifier::{ClassifierKind, LocalityClassifier};
use lad_replication::config::ReplicationConfig;
use lad_replication::policy::SchemeRegistry;
use lad_replication::scheme::SchemeId;
use lad_sim::engine::Simulator;
use lad_trace::benchmarks::Benchmark;
use lad_trace::generator::TraceGenerator;

fn bench_classifier(c: &mut Criterion) {
    c.bench_function("classifier/limited3_read_train", |b| {
        b.iter_batched(
            || LocalityClassifier::new(ClassifierKind::Limited(3), 3),
            |mut classifier| {
                for i in 0..64usize {
                    classifier.on_home_read(CoreId::new(i % 8));
                }
                classifier
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("classifier/complete_read_train", |b| {
        b.iter_batched(
            || LocalityClassifier::new(ClassifierKind::Complete, 3),
            |mut classifier| {
                for i in 0..64usize {
                    classifier.on_home_read(CoreId::new(i));
                }
                classifier
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_cache_array(c: &mut Criterion) {
    use lad_cache::replacement::PlainLru;
    use lad_cache::set_assoc::SetAssocCache;
    c.bench_function("cache/set_assoc_fill_and_lookup", |b| {
        b.iter_batched(
            || SetAssocCache::<u64>::new(512, 8),
            |mut cache| {
                for i in 0..2048u64 {
                    cache.insert(CacheLine::from_index(i), i, &PlainLru);
                    cache.get(CacheLine::from_index(i / 2));
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_directory(c: &mut Criterion) {
    use lad_coherence::directory::DirectoryEntry;
    c.bench_function("directory/read_write_churn", |b| {
        b.iter_batched(
            || DirectoryEntry::new(4),
            |mut entry| {
                for i in 0..32usize {
                    entry.handle_read(CoreId::new(i % 16));
                    if i % 5 == 0 {
                        entry.handle_write(CoreId::new(i % 16));
                    }
                }
                entry
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("noc/mesh_send_64core", |b| {
        let config = SystemConfig::paper_default();
        b.iter_batched(
            || Network::new(&config.network, config.cache_line_bytes),
            |mut network| {
                for i in 0..128usize {
                    network.send(
                        CoreId::new(i % 64),
                        CoreId::new((i * 7) % 64),
                        if i % 2 == 0 {
                            MessageKind::Control
                        } else {
                            MessageKind::Data
                        },
                        Cycle::new(i as u64),
                    );
                }
                network
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_ladt_codec(c: &mut Criterion) {
    use lad_traceio::reader::TraceReader;
    use lad_traceio::writer::encode_workload;

    // 4 cores x 2000 accesses: big enough that the per-access cost
    // dominates framing, small enough for the CI smoke run.  Mean ns/iter
    // divided by 8000 gives ns/access (throughput = 1e9 / that, acc/s).
    let trace = TraceGenerator::new(Benchmark::Barnes.profile()).generate(4, 2000, 5);
    let accesses = trace.total_accesses();
    let bytes = encode_workload(&trace, 5).expect("encoding to memory cannot fail");
    println!(
        "traceio corpus: {accesses} accesses, {} bytes encoded ({:.2} bytes/access)",
        bytes.len(),
        bytes.len() as f64 / accesses as f64
    );

    c.bench_function("traceio/ladt_encode_8000_accesses", |b| {
        b.iter(|| encode_workload(&trace, 5).expect("encoding to memory cannot fail"))
    });
    c.bench_function("traceio/ladt_decode_8000_accesses", |b| {
        b.iter(|| {
            let mut reader = TraceReader::new(bytes.as_slice()).expect("valid header");
            let mut count = 0u64;
            while reader.next_access().expect("valid stream").is_some() {
                count += 1;
            }
            count
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let system = SystemConfig::small_test();
    let trace = TraceGenerator::new(Benchmark::Barnes.profile()).generate(system.num_cores, 400, 3);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("barnes_16core_locality_aware", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(system.clone(), ReplicationConfig::locality_aware(3));
            sim.run(&trace)
        })
    });
    group.bench_function("barnes_16core_snuca", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(system.clone(), ReplicationConfig::static_nuca());
            sim.run(&trace)
        })
    });
    group.finish();
}

/// The observability-overhead guard: a 64-core RT-3 BARNES run with
/// engine metrics recording into the armed process-wide registry versus a
/// no-op registry (disarmed handles skip the atomics entirely).
/// The acceptance bar is armed within 3% of no-op — the hot path is one
/// local increment per access plus two atomics per dispatch batch.
///
/// Back-to-back 5-iteration blocks drift with machine noise far more than
/// 3%, so the headline number is a *paired* comparison: the two arms
/// alternate run for run and each keeps its best wall clock (the
/// workspace's best-of-N convention — interference slows runs, nothing
/// speeds them up).  The group's own armed/noop entries are kept for the
/// usual shim report, but the `metrics overhead` line is the guard.
fn bench_metrics_overhead(c: &mut Criterion) {
    let cores: usize = std::env::var("LAD_CORES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let per_core: usize = std::env::var("LAD_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let system = SystemConfig::paper_default().with_num_cores(cores);
    let trace = TraceGenerator::new(Benchmark::Barnes.profile()).generate(cores, per_core, 7);
    let accesses = trace.total_accesses();
    let registry = SchemeRegistry::builtin();
    let entry = registry
        .get(SchemeId::Rt(3))
        .unwrap_or_else(|err| panic!("builtin registry must cover RT-3: {err}"));
    let noop = lad_obs::MetricsRegistry::noop();

    let timed_run = |metrics: &lad_obs::MetricsRegistry| {
        let mut sim = Simulator::with_policy_and_energy_model(
            system.clone(),
            entry.config.clone(),
            Arc::clone(&entry.policy),
            EnergyModel::paper_default(),
        );
        sim.set_metrics_registry(metrics);
        let start = std::time::Instant::now();
        criterion::black_box(sim.run(&trace));
        start.elapsed().as_secs_f64()
    };

    let reps = 7usize;
    let mut armed_best = f64::INFINITY;
    let mut noop_best = f64::INFINITY;
    for _ in 0..reps {
        armed_best = armed_best.min(timed_run(lad_obs::global()));
        noop_best = noop_best.min(timed_run(&noop));
    }
    let armed_rate = accesses as f64 / armed_best;
    let noop_rate = accesses as f64 / noop_best;
    let overhead = (armed_best / noop_best - 1.0) * 100.0;
    println!(
        "metrics overhead (paired best-of-{reps}, {cores}c RT-3, {accesses} accesses): \
         armed {armed_rate:.0} acc/s vs noop {noop_rate:.0} acc/s ({overhead:+.2}% wall clock)"
    );

    let mut group = c.benchmark_group(&format!("metrics_overhead/{cores}c"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(accesses as u64));
    group.bench_function("armed", |b| {
        b.iter(|| {
            let mut sim = Simulator::with_policy_and_energy_model(
                system.clone(),
                entry.config.clone(),
                Arc::clone(&entry.policy),
                EnergyModel::paper_default(),
            );
            sim.set_metrics_registry(lad_obs::global());
            sim.run(&trace)
        })
    });
    group.bench_function("noop", |b| {
        b.iter(|| {
            let mut sim = Simulator::with_policy_and_energy_model(
                system.clone(),
                entry.config.clone(),
                Arc::clone(&entry.policy),
                EnergyModel::paper_default(),
            );
            sim.set_metrics_registry(&noop);
            sim.run(&trace)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_classifier,
    bench_cache_array,
    bench_directory,
    bench_network,
    bench_ladt_codec,
    bench_end_to_end,
    bench_metrics_overhead
);
criterion_main!(benches);
