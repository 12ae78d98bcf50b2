//! `replay-256c`: a BARNES trace at 256 cores × 2 500 accesses per core,
//! recorded to a LADT file during set-up and replayed back to back under
//! RT-3 with `Simulator::run_source` on a `FileSource`.
//!
//! Single-threaded, read-mostly and widely shared, so at 256 tiles the
//! home/directory fan-out and the NoC do most of the work, and every replay
//! decodes the file twice (profiling pass, then execution).  Trace
//! generation does no work inside the measured window.

use std::path::Path;
use std::time::Instant;

use lad_common::config::SystemConfig;
use lad_replication::config::ReplicationConfig;
use lad_sim::Simulator;
use lad_trace::{Benchmark, TraceGenerator};
use lad_traceio::{encode_workload, FileSource};

use crate::host::HostClock;
use crate::metrics::{
    end_to_end, median, ratio, set_model, set_sim_layers, set_tracing, timed_setup,
    warn_degenerate, Budget, Jobs, MetricSet, Tally,
};
use crate::stepper::{self, LayerTimes};
use crate::{Args, Outcome};

const SETUP_REPS: usize = 3;

pub fn run(args: &Args, dir: &Path, clock: &mut HostClock) -> Result<Outcome, String> {
    let (cores, per_core) = if args.tiny { (16, 200) } else { (256, 2_500) };
    let system = SystemConfig::paper_default().with_num_cores(cores);
    let path = dir.join("barnes.ladt");

    // Set-up records the trace: generate, encode, write.
    let (mut generate_s, mut encode_s) = (Vec::new(), Vec::new());
    let (setup_s, (trace, file_bytes)) = timed_setup(SETUP_REPS, clock, || {
        let started = Instant::now();
        let trace =
            TraceGenerator::new(Benchmark::Barnes.profile()).generate(cores, per_core, args.seed);
        generate_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let bytes = encode_workload(&trace, args.seed).map_err(|err| err.to_string())?;
        encode_s.push(started.elapsed().as_secs_f64());
        std::fs::write(&path, &bytes).map_err(|err| format!("{}: {err}", path.display()))?;
        Ok((trace, bytes.len()))
    })?;
    let accesses = trace.total_accesses() as u64;
    let new_sim = || Simulator::new(system.clone(), ReplicationConfig::locality_aware(3));

    // The output check: every replay must match the in-memory run.
    let reference_report = new_sim().run(&trace);
    let reference = reference_report.to_json().to_string();
    drop(trace);
    warn_degenerate(&[("BARNES", &reference_report)]);

    let mut tally = Tally::default();
    let replay_untraced = |tally: &mut Tally| -> Option<f64> {
        let started = Instant::now();
        let report =
            FileSource::open(&path).and_then(|mut source| new_sim().run_source(&mut source));
        let secs = started.elapsed().as_secs_f64();
        match report {
            Ok(report) => {
                let ok = report.to_json().to_string() == reference;
                tally.record(ok, || "replay differs from the in-memory run".to_string());
                ok.then_some(secs)
            }
            Err(err) => {
                tally.record(false, || format!("replay failed: {err}"));
                None
            }
        }
    };

    let budget = Budget::start(args.seconds);
    if !args.trace {
        let mut jobs = Jobs::default();
        while budget.fits(&jobs.secs) {
            let segment = clock.segment();
            match replay_untraced(&mut tally) {
                Some(secs) => jobs.push(secs, accesses, segment),
                None if jobs.secs.is_empty() => break,
                None => {}
            }
        }
        let metrics = end_to_end(setup_s, &jobs, &tally, clock);
        return Ok(Outcome { tally, metrics });
    }

    // Traced: alternate untraced and traced replays.
    let clock_ns = stepper::clock_overhead_ns();
    let mut times = LayerTimes::default();
    let (mut plain, mut traced, mut attributed, mut all) = (vec![], vec![], vec![], vec![]);
    while budget.fits(&all) || traced.is_empty() {
        if plain.len() <= traced.len() {
            let Some(secs) = replay_untraced(&mut tally) else {
                break;
            };
            plain.push(secs);
            all.push(secs);
            continue;
        }
        let before = times.attributed_ns(clock_ns);
        let started = Instant::now();
        let result = FileSource::open(&path)
            .and_then(|mut source| stepper::replay(new_sim, &mut source, &mut times));
        let secs = started.elapsed().as_secs_f64();
        match result {
            Ok((_, json)) => tally.record(json == reference, || {
                "traced replay differs from the untraced run".to_string()
            }),
            Err(err) => {
                tally.record(false, || format!("traced replay failed: {err}"));
                break;
            }
        }
        attributed.push((times.attributed_ns(clock_ns) - before) / (secs * 1e9));
        traced.push(secs);
        all.push(secs);
    }

    let mut metrics = MetricSet::per_layer();
    set_sim_layers(&mut metrics, &times, clock_ns);
    metrics.set(
        "trace.generate_ns_per_access",
        ratio(median(&generate_s) * 1e9, accesses as f64),
    );
    metrics.set(
        "traceio.encode_ns_per_access",
        ratio(median(&encode_s) * 1e9, accesses as f64),
    );
    metrics.set(
        "traceio.bytes_per_access",
        ratio(file_bytes as f64, accesses as f64),
    );
    set_model(&mut metrics, &[&reference_report]);
    set_tracing(&mut metrics, &plain, &traced, &attributed);
    Ok(Outcome { tally, metrics })
}
