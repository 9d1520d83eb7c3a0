//! Metric names, the text report, the JSON result line and `compare`.

use crate::{Args, Passes, Run, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every end-to-end metric: name, unit, which direction is better.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("throughput_mpps", "Mpps", "higher"),
    ("read_p50_us", "us", "lower"),
    ("read_p95_us", "us", "lower"),
    ("precision", "ratio", "higher"),
    ("are", "ratio", "lower"),
    ("export_bytes_per_rotation", "bytes", "lower"),
    ("setup_s", "s", "lower"),
    ("mem_mb", "MiB", "lower"),
    ("failed_frac", "ratio", "lower"),
];

/// The end-to-end metrics of the untraced JSON result line, which carry
/// regression bounds: those that every workload reports, that are never
/// zero, and whose spread across seeds stays inside a bound on a shared
/// host. `are` can be exactly 0 and `export_bytes_per_rotation` exists
/// only for the fleet; the read latencies move with host load by more
/// than any bound. These ride, unbounded, with the per-layer metrics;
/// `failed_frac` is also the result line's `failed / attempted`.
pub const RESULT_END_TO_END: &[&str] = &["throughput_mpps", "precision", "setup_s", "mem_mb"];

/// Every per-layer metric of the traced JSON result line.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("prepared.hash_ns_per_pkt", "ns", "lower"),
    ("parallel.insert_ns_per_pkt", "ns", "lower"),
    ("sketch.touch_ns_per_pkt", "ns", "lower"),
    ("parallel.match_rate", "ratio", "higher"),
    ("parallel.decay_hit_rate", "ratio", "lower"),
    ("parallel.replacements_per_kpkt", "count", "lower"),
    ("parallel.blocked_per_kpkt", "count", "lower"),
    ("store.admissions_per_kpkt", "count", "lower"),
    ("store.admit_rejected_ratio", "ratio", "lower"),
    ("sharded.dispatch_ns_per_pkt", "ns", "lower"),
    ("sharded.flush_wait_us", "us", "lower"),
    ("sharded.dispatch_buffers_allocated", "count", "lower"),
    ("sharded.lost_packets", "count", "lower"),
    ("sharded.shed_packets", "count", "lower"),
    ("spsc.handoff_ns", "ns", "lower"),
    ("spsc.full_push_frac", "ratio", "lower"),
    ("sliding.insert_ns_per_pkt", "ns", "lower"),
    ("sliding.rotate_us", "us", "lower"),
    ("wire.export_dirty_us", "us", "lower"),
    ("wire.export_dirty_bytes", "bytes", "lower"),
    ("wire.export_full_us", "us", "lower"),
    ("wire.export_full_bytes", "bytes", "lower"),
    ("wire.export_delta_bytes", "bytes", "lower"),
    ("wire.bytes_per_rotation", "bytes", "lower"),
    ("collector.apply_us", "us", "lower"),
    ("collector.window_topk_us", "us", "lower"),
    ("collector.frames_rejected", "count", "lower"),
    ("fleet.ingest_ns_per_pkt", "ns", "lower"),
    ("fleet.rotate_ms", "ms", "lower"),
    ("engine.dispatch_over_worker", "ratio", "lower"),
    ("leftover_frac", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("read_p50_us", "us", "lower"),
    ("read_p95_us", "us", "lower"),
    ("are", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
];

/// The commit the checkout came from, when it is a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().into();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints the text report and the JSON result line; exits 1 when an
/// output check failed.
pub fn print(args: &Args, w: &dyn Workload, run: &Run, passes: &Passes) -> ExitCode {
    println!(
        "provenance workload={} seed={} tracing={} available_parallelism={} git_rev={} run_seconds={}",
        args.workload,
        args.seed,
        if args.trace { "on" } else { "off" },
        available_parallelism(),
        git_rev(),
        args.seconds
    );
    println!("trace {}", w.trace_spec());
    println!("geometry {}", w.geometry());
    println!(
        "passes untraced={} traced={} read_samples={} loop=closed",
        passes.untraced, passes.traced, passes.read_samples
    );
    for (name, unit, better) in END_TO_END {
        match run.e2e.get(name) {
            Some(v) => println!("e2e {name} {v} {unit} {better}"),
            None => println!("e2e {name} n/a {unit} {better}"),
        }
    }
    if args.trace {
        for (name, unit, better) in PER_LAYER {
            match run.layers.get(name) {
                Some(v) => println!("layer {name} {v} {unit} {better}"),
                None => println!("layer {name} n/a {unit} {better}"),
            }
        }
    }
    for n in &run.notes {
        println!("{n}");
    }

    let (names, source): (Vec<&str>, _) = if args.trace {
        (PER_LAYER.iter().map(|m| m.0).collect(), &run.layers)
    } else {
        (RESULT_END_TO_END.to_vec(), &run.e2e)
    };
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.0 == name)
            .map_or("", |m| m.1)
    };
    let mut correct = true;
    let mut metrics = Vec::new();
    for name in names {
        match source.get(name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit(name)
            )),
            other => {
                println!("check metric_{name} FAIL value {other:?}");
                correct = false;
            }
        }
    }
    for c in &run.checks {
        let verdict = if c.ok { "ok" } else { "FAIL" };
        println!("check {} {verdict} {}", c.name, c.detail);
        correct &= c.ok;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        passes.attempted,
        passes.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The provenance fields and metric values of a saved text report.
struct Saved {
    provenance: BTreeMap<String, String>,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut saved = Saved {
        provenance: BTreeMap::new(),
        metrics: BTreeMap::new(),
    };
    for line in text.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("provenance") => {
                for kv in words {
                    if let Some((k, v)) = kv.split_once('=') {
                        saved.provenance.insert(k.into(), v.into());
                    }
                }
            }
            Some("e2e" | "layer") => {
                if let (Some(name), Some(Ok(v))) = (words.next(), words.next().map(str::parse)) {
                    saved.metrics.insert(name.into(), v);
                }
            }
            _ => {}
        }
    }
    if saved.provenance.is_empty() {
        return Err(format!("{path}: no provenance line; not a ledger report"));
    }
    Ok(saved)
}

/// `compare A B`: prints B/A for every metric both reports carry, and
/// refuses reports from hosts with different `available_parallelism`
/// or from different workloads.
pub fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: hk-ledger compare <report-a> <report-b>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("hk-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    for key in ["available_parallelism", "workload"] {
        let (x, y) = (a.provenance.get(key), b.provenance.get(key));
        if x != y {
            eprintln!("hk-ledger: refusing to compare: {key} differs ({x:?} vs {y:?})");
            return ExitCode::from(2);
        }
    }
    println!("{:<40} {:>16} {:>16} {:>8}", "metric", "a", "b", "b/a");
    for (name, va) in &a.metrics {
        if let Some(vb) = b.metrics.get(name) {
            let r = if *va == 0.0 { f64::NAN } else { vb / va };
            println!("{name:<40} {va:>16.6} {vb:>16.6} {r:>8.4}");
        }
    }
    ExitCode::SUCCESS
}
