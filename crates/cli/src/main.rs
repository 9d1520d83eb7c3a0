//! The `hk` binary: see `hk help`.
#![forbid(unsafe_code)]

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = hk_cli::run(&argv) {
        eprintln!("error: {e}");
        // Only a malformed invocation is a usage error. A run that
        // failed (I/O, a dead worker, a missed floor, lint findings)
        // exits 1 with its message alone.
        if !matches!(e, hk_cli::CliError::Usage(_)) {
            std::process::exit(1);
        }
        eprint!("{}", hk_cli::commands::USAGE);
        std::process::exit(2);
    }
}
