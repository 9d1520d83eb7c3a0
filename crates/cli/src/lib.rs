//! Implementation of the `hk` command-line tool.
//!
//! Subcommands:
//!
//! * `hk generate` — write a synthetic trace to disk (Zipf /
//!   campus-like / CAIDA-like / adversarial shapes).
//! * `hk run` — stream a trace through the batch-first ingest pipeline
//!   (`--batch` chunks, optionally `--shards` engine shards) and report
//!   throughput plus top-k accuracy.
//! * `hk analyze` — run one algorithm over a trace file and print its
//!   top-k with accuracy against the exact oracle.
//! * `hk compare` — run the full algorithm suite over a trace file and
//!   print a precision/ARE/AAE/throughput table.
//! * `hk pcap-gen` — synthesize a `.pcap` capture (real Ethernet/IPv4
//!   frames) from a Zipf workload.
//! * `hk pcap` — read a `.pcap` capture and report top-k flows by
//!   packets or by bytes.
//! * `hk change` — split a trace into epochs and report heavy changes
//!   (eruptions/disappearances) at every epoch boundary.
//! * `hk fleet` — the windowed telemetry scenario: S sliding-window
//!   switches exporting window frames (full or dirty) over a lossy
//!   channel to a collector answering the network-wide windowed top-k.
//! * `hk lint` — the workspace invariant lint (`crates/lint`): checks
//!   hot-path allocation, lock-poison discipline, worker-path panics,
//!   `#![forbid(unsafe_code)]` pins, wire determinism and wire-constant
//!   consistency; `--deny` makes findings fatal.
//!
//! The argument parser is a small hand-rolled `--flag value` scanner so
//! the workspace stays within its sanctioned dependency set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{Args, CliError};

/// Entry point shared by the binary and the tests.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "generate" => commands::generate(&args),
        "run" => commands::run_stream(&args),
        "analyze" => commands::analyze(&args),
        "compare" => commands::compare(&args),
        "pcap-gen" => commands::pcap_gen(&args),
        "pcap" => commands::pcap(&args),
        "change" => commands::change(&args),
        "fleet" => commands::fleet(&args),
        "lint" => commands::lint(&args),
        "help" | "" => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}
