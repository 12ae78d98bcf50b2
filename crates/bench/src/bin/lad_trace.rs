//! `lad-trace` — record, replay, inspect and convert LADT memory-access
//! traces.
//!
//! ```text
//! lad-trace record  --out <DIR> [--suite quick|full|figure9|figure10]
//!                   [--cores N] [--accesses N] [--seed N]
//! lad-trace replay  <FILE.ladt> --scheme <SCHEME> [--json <PATH>]
//! lad-trace inspect <FILE.ladt>
//! lad-trace convert --to text <IN.ladt> <OUT.txt>
//! lad-trace convert --to ladt <IN.txt> <OUT.ladt> [--name NAME] [--cores N] [--seed N]
//! ```
//!
//! `record` captures a benchmark suite as one `.ladt` file per benchmark;
//! `replay` streams a file through the full simulator under any scheme of
//! the registry (`S-NUCA`, `R-NUCA`, `VR`, `ASR-0.75`, `RT-3`, ...) and
//! prints a report (plus machine-readable JSON with `--json`); `inspect`
//! prints the header and per-core stream statistics without simulating;
//! `convert` bridges the plain-text `core addr is_write` interchange form.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lad_common::cli::{no_leftovers, parse_number, print_stdout, take_flag};
use lad_common::config::SystemConfig;
use lad_replication::scheme::SchemeId;
use lad_sim::experiment::ExperimentRunner;
use lad_sim::metrics::SimulationReport;
use lad_trace::suite::BenchmarkSuite;
use lad_traceio::reader::TraceReader;
use lad_traceio::suite::record_suite;
use lad_traceio::text::{ladt_to_text, scan_text_cores, text_to_ladt};
use lad_traceio::TraceHeader;

const USAGE: &str = "\
lad-trace: record, replay, inspect and convert LADT memory-access traces

USAGE:
  lad-trace record  --out <DIR> [--suite quick|full|figure9|figure10]
                    [--cores N] [--accesses N] [--seed N]
  lad-trace replay  <FILE.ladt> --scheme <SCHEME> [--json <PATH>]
  lad-trace inspect <FILE.ladt>
  lad-trace convert --to text <IN.ladt> <OUT.txt>
  lad-trace convert --to ladt <IN.txt> <OUT.ladt> [--name NAME] [--cores N] [--seed N]

Schemes are the registry labels: S-NUCA, R-NUCA, VR, ASR-<level>, RT-<k>.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "inspect" => cmd_inspect(&args[1..]),
        "convert" => cmd_convert(&args[1..]),
        "--help" | "-h" | "help" => print_stdout(&format!("{USAGE}\n")),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("lad-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

fn suite_by_name(name: &str) -> Result<BenchmarkSuite, String> {
    match name {
        "quick" => Ok(BenchmarkSuite::quick()),
        "full" => Ok(BenchmarkSuite::full()),
        "figure9" => Ok(BenchmarkSuite::figure9()),
        "figure10" => Ok(BenchmarkSuite::figure10()),
        other => Err(format!(
            "unknown suite {other:?} (expected quick|full|figure9|figure10)"
        )),
    }
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out")?.ok_or("record requires --out <DIR>")?;
    let mut suite =
        suite_by_name(&take_flag(&mut args, "--suite")?.unwrap_or_else(|| "quick".into()))?;
    let cores = match take_flag(&mut args, "--cores")? {
        Some(v) => parse_number(&v, "--cores")?,
        None => 8usize,
    };
    if let Some(accesses) = take_flag(&mut args, "--accesses")? {
        suite = suite.with_accesses_per_core(parse_number(&accesses, "--accesses")?);
    }
    if let Some(seed) = take_flag(&mut args, "--seed")? {
        suite = suite.with_seed(parse_number(&seed, "--seed")?);
    }
    no_leftovers(&args, USAGE)?;

    let dir = PathBuf::from(out);
    let recorded = record_suite(&suite, cores, &dir).map_err(|e| e.to_string())?;
    for entry in &recorded {
        let bytes = std::fs::metadata(&entry.path).map(|m| m.len()).unwrap_or(0);
        print_stdout(&format!(
            "recorded {:<12} -> {} ({} bytes)\n",
            entry.benchmark,
            entry.path.display(),
            bytes
        ))?;
    }
    print_stdout(&format!(
        "{} benchmarks, {} cores, {} accesses/core, seed 0x{:x}\n",
        recorded.len(),
        cores,
        suite.accesses_per_core(),
        suite.seed()
    ))
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let scheme_label =
        take_flag(&mut args, "--scheme")?.ok_or("replay requires --scheme <SCHEME>")?;
    let json = take_flag(&mut args, "--json")?;
    if args.len() != 1 {
        return Err(format!("replay takes exactly one trace file\n\n{USAGE}"));
    }
    let path = PathBuf::from(args.remove(0));

    let header = read_header(&path)?;
    let scheme = SchemeId::parse(&scheme_label);
    let system = SystemConfig::paper_default().with_num_cores(header.num_cores);
    // The suite is irrelevant for replay; the trace file is the workload.
    let runner = ExperimentRunner::new(system, BenchmarkSuite::quick());
    let report = runner
        .replay_file(&path, scheme)
        .map_err(|e| e.to_string())?;
    print_stdout(&report_text(&report))?;
    if let Some(json_path) = json {
        lad_common::fs::atomic_write(
            std::path::Path::new(&json_path),
            report.to_json().pretty().as_bytes(),
        )
        .map_err(|e| format!("cannot write {json_path}: {e}"))?;
        eprintln!("wrote JSON report to {json_path}");
    }
    Ok(())
}

fn read_header(path: &Path) -> Result<TraceHeader, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let reader = TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    Ok(reader.header().clone())
}

fn report_text(report: &SimulationReport) -> String {
    format!(
        "benchmark        {}\n\
         scheme           {}\n\
         accesses         {}\n\
         completion       {}\n\
         l1 hit rate      {:.2}%\n\
         replica hits     {}\n\
         home hits        {}\n\
         off-chip misses  {}\n\
         replicas created {}\n\
         energy           {:.1} nJ\n",
        report.benchmark,
        report.scheme,
        report.total_accesses,
        report.completion_time,
        100.0 * report.misses.l1_hits as f64 / report.total_accesses.max(1) as f64,
        report.misses.llc_replica_hits,
        report.misses.llc_home_hits,
        report.misses.offchip_misses,
        report.replicas_created,
        report.energy.total() / 1000.0
    )
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    if args.len() != 1 {
        return Err(format!("inspect takes exactly one trace file\n\n{USAGE}"));
    }
    let path = PathBuf::from(&args[0]);
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let file = File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let header = reader.header().clone();
    print_stdout(&format!(
        "file        {} ({} bytes)\n\
         format      LADT v{}\n\
         benchmark   {}\n\
         cores       {}\n\
         seed        0x{:x}\n",
        path.display(),
        bytes,
        lad_traceio::FORMAT_VERSION,
        header.benchmark,
        header.num_cores,
        header.seed
    ))?;

    #[derive(Default, Clone, Copy)]
    struct CoreStats {
        accesses: u64,
        reads: u64,
        writes: u64,
        ifetches: u64,
        min_address: u64,
        max_address: u64,
    }
    let mut stats = vec![CoreStats::default(); header.num_cores];
    let mut digest = lad_traceio::digest::DigestBuilder::new(header.num_cores, &header.benchmark);
    loop {
        match reader.next_access() {
            Ok(Some(access)) => {
                digest.record(&access);
                let s = &mut stats[access.core.index()];
                if s.accesses == 0 {
                    s.min_address = access.address.value();
                    s.max_address = access.address.value();
                } else {
                    s.min_address = s.min_address.min(access.address.value());
                    s.max_address = s.max_address.max(access.address.value());
                }
                s.accesses += 1;
                if access.op.is_instruction() {
                    s.ifetches += 1;
                } else if access.op.is_write() {
                    s.writes += 1;
                } else {
                    s.reads += 1;
                }
            }
            Ok(None) => break,
            Err(err) => return Err(err.to_string()),
        }
    }
    let total = reader.accesses_read();
    print_stdout(&format!(
        "digest      {}\naccesses    {total}\n",
        digest.finish().to_hex()
    ))?;
    if total > 0 {
        print_stdout(&format!("bytes/acc   {:.2}\n", bytes as f64 / total as f64))?;
    }
    print_stdout("core  accesses     reads    writes  ifetches  address range\n")?;
    for (core, s) in stats.iter().enumerate() {
        print_stdout(&format!(
            "{core:>4}  {:>8}  {:>8}  {:>8}  {:>8}  0x{:x}..0x{:x}\n",
            s.accesses, s.reads, s.writes, s.ifetches, s.min_address, s.max_address
        ))?;
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let to = take_flag(&mut args, "--to")?.ok_or("convert requires --to ladt|text")?;
    let name = take_flag(&mut args, "--name")?.unwrap_or_else(|| "EXTERNAL".into());
    let cores = take_flag(&mut args, "--cores")?;
    let seed = match take_flag(&mut args, "--seed")? {
        Some(v) => parse_number(&v, "--seed")?,
        None => 0u64,
    };
    if args.len() != 2 {
        return Err(format!(
            "convert takes an input and an output path\n\n{USAGE}"
        ));
    }
    let (input, output) = (PathBuf::from(args.remove(0)), PathBuf::from(args.remove(0)));
    let open_input = || -> Result<BufReader<File>, String> {
        Ok(BufReader::new(File::open(&input).map_err(|e| {
            format!("cannot open {}: {e}", input.display())
        })?))
    };
    // Conversions stream through `atomic_stream` (temp file + fsync +
    // rename), so an interrupted convert never leaves a torn output file.
    match to.as_str() {
        "text" => {
            let reader = open_input()?;
            let written = lad_common::fs::atomic_stream(&output, |file| {
                ladt_to_text(reader, BufWriter::new(file)).map_err(std::io::Error::other)
            })
            .map_err(|e| format!("cannot write {}: {e}", output.display()))?;
            print_stdout(&format!(
                "converted {written} accesses to text: {}\n",
                output.display()
            ))?;
        }
        "ladt" => {
            let num_cores = match cores {
                Some(v) => parse_number(&v, "--cores")?,
                None => scan_text_cores(open_input()?).map_err(|e| e.to_string())?,
            };
            let header = TraceHeader::new(num_cores, name, seed);
            let reader = open_input()?;
            let written = lad_common::fs::atomic_stream(&output, |file| {
                text_to_ladt(reader, BufWriter::new(file), header).map_err(std::io::Error::other)
            })
            .map_err(|e| format!("cannot write {}: {e}", output.display()))?;
            print_stdout(&format!(
                "converted {written} accesses ({num_cores} cores) to LADT: {}\n",
                output.display()
            ))?;
        }
        other => {
            return Err(format!(
                "unknown conversion target {other:?} (expected ladt|text)"
            ))
        }
    }
    Ok(())
}
