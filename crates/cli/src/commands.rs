//! The `hk` subcommands.

use crate::args::{Args, CliError};
use heavykeeper::{BasicTopK, FaultPlan, MinimumTopK, ParallelTopK, ShardedEngine, SlidingTopK};
use hk_baselines::{
    CmSketchTopK, ColdFilterTopK, CountSketchTopK, CounterTreeTopK, CssTopK, ElasticTopK,
    FrequentTopK, HeavyGuardianTopK, LossyCountingTopK, SpaceSavingTopK,
};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_metrics::accuracy::{evaluate_topk, AccuracyReport};
use hk_traffic::oracle::ExactCounter;
use hk_traffic::synthetic::{all_distinct, exact_zipf, sampled_zipf, uniform, Trace};
use hk_traffic::trace_io::{read_trace, write_trace};
use std::fs::File;
use std::time::Instant;

/// Help text (also printed on usage errors).
pub const USAGE: &str = "\
hk — HeavyKeeper trace tools

USAGE:
  hk generate --out FILE [--kind zipf|exact-zipf|uniform|all-distinct]
              [--packets N] [--flows M] [--skew S] [--seed X]
  hk run      --trace FILE [--algo NAME] [--memory-kb KB] [--k K] [--seed X]
              [--batch N] [--shards S] [--window W] [--epoch-packets N]
              [--layout-report] [--fault PLAN] [--recover]
              [--checkpoint-every N] [--reshard M@P[,M@P...]]
              [--min-recall R] [--stats-json FILE]
  hk analyze  --trace FILE [--algo NAME] [--memory-kb KB] [--k K] [--seed X]
  hk compare  --trace FILE [--memory-kb KB] [--k K] [--seed X]
  hk pcap-gen --out FILE [--packets N] [--flows M] [--skew S] [--seed X]
              [--payload BYTES]
  hk pcap     --in FILE [--by packets|bytes] [--memory-kb KB] [--k K] [--seed X]
  hk change   --trace FILE [--epochs N] [--threshold T] [--memory-kb KB]
              [--k K] [--seed X] [--batch N]
  hk fleet    [--switches S] [--window W] [--epoch-packets N] [--periods P]
              [--flows M] [--skew Z] [--memory-kb KB] [--k K] [--seed X]
              [--delta-mode full|dirty] [--delta] [--loss p]
              [--reorder q] [--lease N] [--outage S@A..B] [--min-recall R]
  hk lint     [--root DIR] [--json] [--deny]
  hk help

Algorithms for --algo:
  parallel (default), minimum, basic, space-saving, lossy-counting,
  frequent, css, cm-sketch, count-sketch, elastic, cold-filter,
  counter-tree, heavy-guardian

Fault injection (--algo parallel only):
  --fault takes a comma-separated plan of kind:shard@packets entries,
  e.g. `kill:2@50000,wedge:1@90000` (kinds: kill, wedge).
  With --recover the engine checkpoints every --checkpoint-every
  batches (default 8) and respawns dead shards from their last
  checkpoint; --min-recall R fails the run if precision drops below R.

Live resharding (--algo parallel, steady path only):
  --reshard takes comma-separated shards@packets steps, e.g.
  `4@200000` (grow to 4 shards once 200000 packets streamed). Each
  step is a drain/split/swap migration under traffic; it implies
  checkpointing and composes with --fault/--recover.

Fleet leases:
  --lease N evicts a switch after N rotations of silence; a returning
  switch is re-admitted through a full-snapshot resync. --outage S@A..B
  silences switch S's uplink during periods [A, B) to exercise the
  evict/re-admit cycle from the driver.

Observability:
  Every hk run streams through the sharded engine (--shards 1 by
  default), and --stats-json FILE writes the engine's built-in obs
  snapshot: stage counters, latency/batch histograms and the event
  journal as JSON after the stream. hk fleet prints a per-period obs
  stat line.
";

/// Builds an algorithm by CLI name. The box is `Send` so instances can
/// be handed to sharded-engine worker threads, and carries the
/// [`PreparedInsert`] capability so same-seed shards ride the engine's
/// hash-once prepared handoff (algorithms without a prepared pipeline
/// fall back to their own `insert_batch` behind it).
pub fn make_algo(
    name: &str,
    mem: usize,
    k: usize,
    seed: u64,
) -> Result<Box<dyn PreparedInsert<u64> + Send>, CliError> {
    Ok(match name {
        "parallel" => Box::new(ParallelTopK::<u64>::with_memory(mem, k, seed)),
        "minimum" => Box::new(MinimumTopK::<u64>::with_memory(mem, k, seed)),
        "basic" => Box::new(BasicTopK::<u64>::with_memory(mem, k, seed)),
        "space-saving" => Box::new(SpaceSavingTopK::<u64>::with_memory(mem, k)),
        "lossy-counting" => Box::new(LossyCountingTopK::<u64>::with_memory(mem, k)),
        "frequent" => Box::new(FrequentTopK::<u64>::with_memory(mem, k)),
        "css" => Box::new(CssTopK::<u64>::with_memory(mem, k)),
        "cm-sketch" => Box::new(CmSketchTopK::<u64>::with_memory(mem, k, seed)),
        "count-sketch" => Box::new(CountSketchTopK::<u64>::with_memory(mem, k, seed)),
        "elastic" => Box::new(ElasticTopK::<u64>::with_memory(mem, k, seed)),
        "cold-filter" => Box::new(ColdFilterTopK::<u64>::with_memory(mem, k, seed)),
        "counter-tree" => Box::new(CounterTreeTopK::<u64>::with_memory(mem, k, seed)),
        "heavy-guardian" => Box::new(HeavyGuardianTopK::<u64>::with_memory(mem, k, seed)),
        other => return Err(CliError::Usage(format!("unknown algorithm `{other}`"))),
    })
}

/// Every algorithm name accepted by [`make_algo`].
pub const ALGO_NAMES: &[&str] = &[
    "parallel",
    "minimum",
    "basic",
    "space-saving",
    "lossy-counting",
    "frequent",
    "css",
    "cm-sketch",
    "count-sketch",
    "elastic",
    "cold-filter",
    "counter-tree",
    "heavy-guardian",
];

/// `hk run`: stream a trace through the batch-first ingest pipeline —
/// `insert_batch` over `--batch`-sized chunks into a [`ShardedEngine`]
/// of `--shards` shards (one by default) — and report throughput plus
/// top-k accuracy.
///
/// With `--window W` the run is *windowed*: the trace is cut into
/// `--epoch-packets`-sized periods (default: the trace split into
/// `2·W` periods, so the window actually slides) and fed into
/// [`SlidingTopK`] rings of `W` epochs; every interior period boundary
/// rotates the window on all shards, phase-aligned. Accuracy is
/// evaluated against an exact oracle over the *window-covered suffix*
/// of the trace, the part the sliding view is supposed to see.
///
/// `--fault PLAN` arms the engine's deterministic fault-injection
/// harness (see [`FaultPlan::parse`]) and `--recover` turns on
/// checkpoint/respawn recovery: shards checkpoint every
/// `--checkpoint-every` batches (and at every rotation barrier) and a
/// dying worker is respawned from its last checkpoint, with the dark
/// window reported after the stream. Both ride the concrete
/// checkpointable shards, so they require `--algo parallel`.
pub fn run_stream(args: &Args) -> Result<(), CliError> {
    let trace = load(args)?;
    let algo_name = args.get_or("algo", "parallel");
    let mem = args.num_or::<usize>("memory-kb", 50)? * 1024;
    let k: usize = args.num_or("k", 100)?;
    let seed: u64 = args.num_or("seed", 1)?;
    let batch: usize = args.num_or("batch", 4096)?;
    let shards: usize = args.num_or("shards", 1)?;
    let window: usize = args.num_or("window", 0)?;
    if batch == 0 {
        return Err(CliError::Usage("--batch must be positive".into()));
    }
    if shards == 0 {
        return Err(CliError::Usage("--shards must be positive".into()));
    }
    let fault = match args.get_or("fault", "") {
        "" => None,
        spec => Some(FaultPlan::parse(spec).map_err(CliError::Usage)?),
    };
    let recover = args.is_set("recover");
    let ckpt_every: u64 = args.num_or("checkpoint-every", 8)?;
    let reshard_steps = match args.get_or("reshard", "") {
        "" => Vec::new(),
        spec => parse_reshard_schedule(spec).map_err(CliError::Usage)?,
    };
    let stats_path = args.get_or("stats-json", "").to_string();
    // Fault injection, recovery and live resharding need concrete
    // checkpointable shards (ParallelTopK / SlidingTopK), not a boxed
    // algorithm.
    let harness = fault.is_some() || recover || !reshard_steps.is_empty();
    if harness && algo_name != "parallel" {
        return Err(CliError::Usage(format!(
            "--fault/--recover/--reshard ride the checkpointable engines \
             and support --algo parallel only (got `{algo_name}`)"
        )));
    }
    if window > 0 && algo_name != "parallel" {
        return Err(CliError::Usage(format!(
            "--window rides the SlidingTopK epoch ring and currently \
             supports --algo parallel only (got `{algo_name}`)"
        )));
    }
    if !reshard_steps.is_empty() && window > 0 {
        return Err(CliError::Usage(
            "--reshard rides the steady engine path and does not combine \
             with --window yet"
                .into(),
        ));
    }

    if args.is_set("layout-report") {
        if matches!(algo_name, "parallel" | "minimum" | "basic") {
            // Mirror of the HK variants' `with_memory` split (k·(ID+4)
            // bytes of top-k store, remainder to the sketch) — computed
            // from the config alone, no throwaway matrix allocation.
            use heavykeeper::sketch::LayoutReport;
            use hk_common::key::FlowKey;
            let store_bytes = k * (<u64 as FlowKey>::ENCODED_LEN + 4);
            let cfg = heavykeeper::HkConfig::builder()
                .memory_bytes(
                    (mem / shards / window.max(1))
                        .saturating_sub(store_bytes)
                        .max(8),
                )
                .k(k)
                .seed(seed)
                .build();
            match (shards > 1, window > 0) {
                (true, true) => println!("layout (per epoch, {shards} shards x {window} epochs):"),
                (true, false) => println!("layout (per shard, {shards} shards):"),
                (false, true) => println!("layout (per epoch, window of {window}):"),
                (false, false) => {}
            }
            println!("{}", LayoutReport::for_config(&cfg));
        } else {
            println!("--layout-report: algorithm `{algo_name}` has no HK bucket matrix");
        }
    }

    let len = trace.len() as u64;
    let precision = if window > 0 {
        let epoch_packets: usize = match args.num_or("epoch-packets", 0)? {
            0 => trace.len().div_ceil(2 * window).max(1),
            n => n,
        };
        let mut engine = ShardedEngine::from_fn(shards, k, |_| {
            SlidingTopK::<u64>::with_memory(mem / shards, k, seed, window)
        });
        if harness {
            arm_fault_harness(&mut engine, fault.as_ref(), recover, ckpt_every)?;
        }
        let report = stream_windowed(&mut engine, &trace, batch, epoch_packets, window, shards, k);
        finish_engine_run(&mut engine, recover, len, &stats_path)?;
        report.precision
    } else if algo_name == "parallel" {
        // Concrete ParallelTopK shards (not boxed) so the engine can
        // checkpoint, respawn and reshard them. `--reshard` implies
        // the checkpoint plane — the migration moves state as
        // checkpoint bytes.
        let mut engine = ShardedEngine::from_fn(shards, k, |_| {
            ParallelTopK::<u64>::with_memory(mem / shards, k, seed)
        });
        if harness {
            arm_fault_harness(&mut engine, fault.as_ref(), recover, ckpt_every)?;
        }
        let mut steps = reshard_steps.iter().copied().peekable();
        let report = stream_steady(&mut engine, &trace, batch, shards, k, |eng, fed| {
            while steps.peek().is_some_and(|&(_, at)| at <= fed) {
                let (to, at) = steps.next().expect("peeked");
                match eng.reshard(to) {
                    Ok(rep) => println!("@{at} pkts: {rep}"),
                    Err(e) => println!("@{at} pkts: reshard refused: {e}"),
                }
            }
        });
        finish_engine_run(&mut engine, recover, len, &stats_path)?;
        report.precision
    } else {
        // One boxed instance per shard, each charged an equal share of
        // the memory budget so the total matches a one-shard run.
        let instances = (0..shards)
            .map(|_| make_algo(algo_name, mem / shards, k, seed))
            .collect::<Result<Vec<_>, _>>()?;
        let mut engine = ShardedEngine::from_shards(instances, k);
        let report = stream_steady(&mut engine, &trace, batch, shards, k, |_, _| {});
        finish_engine_run(&mut engine, recover, len, &stats_path)?;
        report.precision
    };
    enforce_min_recall(args, "run precision", precision)
}

/// Arms the checkpoint/respawn plane and the deterministic fault plan
/// on a freshly built engine, before the first packet flows.
fn arm_fault_harness<A>(
    engine: &mut ShardedEngine<u64, A>,
    fault: Option<&FaultPlan>,
    recover: bool,
    ckpt_every: u64,
) -> Result<(), CliError>
where
    A: PreparedInsert<u64> + hk_common::algorithm::ShardCheckpoint + Send + 'static,
{
    engine
        .enable_checkpoints(ckpt_every)
        .map_err(|e| CliError::Run(e.to_string()))?;
    if let Some(plan) = fault {
        engine.set_fault_plan(plan);
    }
    engine.set_auto_recover(recover);
    Ok(())
}

/// Post-stream wrap-up of every engine run: with `--recover`, heal any
/// shard that died after the last ingest (auto-recovery only triggers
/// on the next insert); print the journal's recovery and reshard
/// accounting and — always, so a lossy run never reads as clean — the
/// packets lost to dead workers (a full ring blocks, it never sheds);
/// fail a run with an *unrecovered* death; write the `--stats-json`
/// snapshot.
fn finish_engine_run<A>(
    engine: &mut ShardedEngine<u64, A>,
    recover: bool,
    stream_packets: u64,
    stats_path: &str,
) -> Result<(), CliError>
where
    A: PreparedInsert<u64> + Send + 'static,
{
    if recover {
        engine.recover().map_err(|e| CliError::Run(e.to_string()))?;
    }
    let journal = engine.obs_snapshot().journal;
    let acc = journal.recovery_accounting();
    if recover && acc.recoveries > 0 {
        println!(
            "recovery: {acc} | {:.4}% of stream dark",
            100.0 * acc.dark_fraction(stream_packets)
        );
    }
    let racc = journal.reshard_accounting();
    if racc.migrations > 0 {
        println!(
            "reshard: {racc} | {:.4}% of stream dark",
            100.0 * racc.dark_fraction(stream_packets)
        );
    }
    println!("lost to dead workers: {} packet(s)", engine.lost_packets());
    // Results over partial data must never read as healthy: name the
    // dead shards and the dropped-packet count.
    engine
        .flush()
        .map_err(|e| CliError::Run(format!("{e}; {} packet(s) dropped", engine.lost_packets())))?;
    if !stats_path.is_empty() {
        std::fs::write(stats_path, engine.obs_snapshot().render_json())
            .map_err(|e| CliError::Run(format!("--stats-json {stats_path}: {e}")))?;
        println!("stats: obs snapshot written to {stats_path}");
    }
    Ok(())
}

/// Parses `--reshard`'s comma-separated `shards@packets` steps into a
/// schedule sorted by trigger point.
fn parse_reshard_schedule(s: &str) -> Result<Vec<(usize, u64)>, String> {
    let mut steps = Vec::new();
    for entry in s.split(',').filter(|e| !e.is_empty()) {
        let bad = || format!("bad reshard step `{entry}` (want shards@packets)");
        let (m, p) = entry.split_once('@').ok_or_else(bad)?;
        let to: usize = m.parse().map_err(|_| bad())?;
        let at: u64 = p.parse().map_err(|_| bad())?;
        if to == 0 {
            return Err(format!("reshard step `{entry}` asks for zero shards"));
        }
        steps.push((to, at));
    }
    steps.sort_by_key(|&(_, at)| at);
    Ok(steps)
}

/// Parses `--outage`'s `switch@from..to` spec: switch index plus the
/// half-open period range during which its uplink is down.
fn parse_outage(s: &str) -> Result<(usize, usize, usize), String> {
    let bad = || format!("bad outage `{s}` (want switch@from..to)");
    let (sw, range) = s.split_once('@').ok_or_else(bad)?;
    let (from, to) = range.split_once("..").ok_or_else(bad)?;
    Ok((
        sw.parse().map_err(|_| bad())?,
        from.parse().map_err(|_| bad())?,
        to.parse().map_err(|_| bad())?,
    ))
}

/// Applies the `--min-recall` floor to a run's score, turning it into
/// an exit status for CI; `label` names the score in the failure
/// message (`run precision`, `fleet recall`).
fn enforce_min_recall(args: &Args, label: &str, score: f64) -> Result<(), CliError> {
    let bound: f64 = args.num_or("min-recall", -1.0)?;
    if bound >= 0.0 {
        if score < bound {
            return Err(CliError::Run(format!(
                "{label} {score:.4} below --min-recall {bound:.4}"
            )));
        }
        println!("recall bound {bound:.2} satisfied");
    }
    Ok(())
}

/// The steady-state ingest + report body of `hk run`, with an
/// after-each-chunk hook carrying the cumulative packet count — the
/// `--reshard` schedule trigger rides it, firing its migrations at
/// exact points of the stream.
fn stream_steady<A: TopKAlgorithm<u64>>(
    algo: &mut A,
    trace: &Trace<u64>,
    batch: usize,
    shards: usize,
    k: usize,
    mut after_chunk: impl FnMut(&mut A, u64),
) -> AccuracyReport {
    let oracle = ExactCounter::from_packets(&trace.packets);
    let start = Instant::now();
    let mut fed = 0u64;
    for chunk in trace.packets.chunks(batch) {
        algo.insert_batch(chunk);
        fed += chunk.len() as u64;
        after_chunk(algo, fed);
    }
    // top_k flushes the sharded engine, so the clock covers every packet.
    let top = algo.top_k();
    let secs = start.elapsed().as_secs_f64();

    println!(
        "{} on {} ({} packets, {} flows) — batch {batch}, {shards} shard(s)",
        algo.name(),
        trace.name,
        trace.len(),
        oracle.distinct_flows()
    );
    let pps = trace.len() as f64 / secs;
    print_report(algo.memory_bytes(), &top, &oracle, k, pps, "true")
}

/// The windowed ingest + report body of `hk run --window`; the
/// engine's `rotate_epoch` is the phase-aligned
/// [`ShardedEngine::rotate_all`].
fn stream_windowed<A>(
    algo: &mut A,
    trace: &Trace<u64>,
    batch: usize,
    epoch_packets: usize,
    window: usize,
    shards: usize,
    k: usize,
) -> AccuracyReport
where
    A: TopKAlgorithm<u64> + hk_common::algorithm::EpochRotate,
{
    let start = Instant::now();
    // The one shared definition of the windowed ingest discipline
    // (periods, interior-boundary rotations) lives in hk-metrics.
    hk_metrics::throughput::ingest_windowed(
        algo,
        &trace.packets,
        hk_metrics::throughput::IngestMode::Batched(batch),
        epoch_packets,
    );
    let total_periods = trace.len().div_ceil(epoch_packets).max(1);
    // top_k flushes the sharded engine, so the clock covers every packet.
    let top = algo.top_k();
    let secs = start.elapsed().as_secs_f64();

    // The window sees only the last `window` periods (the current one
    // included); score against the exact counts of that suffix.
    let live = window.min(total_periods);
    let covered_from = (total_periods - live) * epoch_packets;
    let covered = &trace.packets[covered_from..];
    let oracle = ExactCounter::from_packets(covered);

    println!(
        "{} on {} ({} packets, {} windowed) — window {window} x {epoch_packets} pkts, \
         batch {batch}, {shards} shard(s)",
        algo.name(),
        trace.name,
        trace.len(),
        covered.len(),
    );
    let pps = trace.len() as f64 / secs;
    print_report(algo.memory_bytes(), &top, &oracle, k, pps, "window-true")
}

/// Scores `top` against `oracle` and prints the accuracy line and the
/// rank table (at most 20 rows) that end every `hk run` and
/// `hk analyze` report; `truth` heads the oracle's column.
fn print_report(
    memory_bytes: usize,
    top: &[(u64, u64)],
    oracle: &ExactCounter<u64>,
    k: usize,
    pps: f64,
    truth: &str,
) -> AccuracyReport {
    let report = evaluate_topk(top, oracle, k);
    println!(
        "memory: {memory_bytes} bytes | precision {:.4} | ARE {:.4} | AAE {:.1} | {:.2} Mps",
        report.precision,
        report.are,
        report.aae,
        pps / 1e6
    );
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "rank", "flow", "estimated", truth
    );
    for (rank, (flow, est)) in top.iter().take(k.min(20)).enumerate() {
        println!(
            "{:>6} {flow:>14} {est:>14} {:>14}",
            rank + 1,
            oracle.count(flow)
        );
    }
    report
}

/// `hk generate`.
pub fn generate(args: &Args) -> Result<(), CliError> {
    let out = args.require("out")?;
    let kind = args.get_or("kind", "zipf");
    let packets: u64 = args.num_or("packets", 1_000_000)?;
    let flows: usize = args.num_or("flows", 100_000)?;
    let skew: f64 = args.num_or("skew", 1.0)?;
    let seed: u64 = args.num_or("seed", 1)?;

    let trace: Trace<u64> = match kind {
        "zipf" => sampled_zipf(packets, flows, skew, seed),
        "exact-zipf" => exact_zipf(packets, flows, skew, seed),
        "uniform" => uniform(packets, flows, seed),
        "all-distinct" => all_distinct(packets),
        other => return Err(CliError::Usage(format!("unknown trace kind `{other}`"))),
    };
    let mut file = File::create(out)?;
    write_trace(&trace, &mut file).map_err(|e| CliError::Run(e.to_string()))?;
    println!("wrote {} packets ({}) to {out}", trace.len(), trace.name);
    Ok(())
}

fn load(args: &Args) -> Result<Trace<u64>, CliError> {
    let path = args.require("trace")?;
    let mut file = File::open(path)?;
    read_trace(&mut file, path).map_err(|e| CliError::Run(e.to_string()))
}

/// `hk analyze`.
pub fn analyze(args: &Args) -> Result<(), CliError> {
    let trace = load(args)?;
    let algo_name = args.get_or("algo", "parallel");
    let mem = args.num_or::<usize>("memory-kb", 50)? * 1024;
    let k: usize = args.num_or("k", 100)?;
    let seed: u64 = args.num_or("seed", 1)?;

    let oracle = ExactCounter::from_packets(&trace.packets);
    let mut algo = make_algo(algo_name, mem, k, seed)?;
    let start = Instant::now();
    algo.insert_all(&trace.packets);
    let secs = start.elapsed().as_secs_f64();

    println!(
        "{} on {} ({} packets, {} flows)",
        algo.name(),
        trace.name,
        trace.len(),
        oracle.distinct_flows()
    );
    let pps = trace.len() as f64 / secs;
    print_report(algo.memory_bytes(), &algo.top_k(), &oracle, k, pps, "true");
    Ok(())
}

/// `hk compare`.
pub fn compare(args: &Args) -> Result<(), CliError> {
    let trace = load(args)?;
    let mem = args.num_or::<usize>("memory-kb", 50)? * 1024;
    let k: usize = args.num_or("k", 100)?;
    let seed: u64 = args.num_or("seed", 1)?;
    let oracle = ExactCounter::from_packets(&trace.packets);

    println!(
        "{} — {} packets, {} flows, {} KB, k = {k}",
        trace.name,
        trace.len(),
        oracle.distinct_flows(),
        mem / 1024
    );
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>8}",
        "algorithm", "precision", "ARE", "AAE", "Mps"
    );
    for name in ALGO_NAMES {
        let mut algo = make_algo(name, mem, k, seed)?;
        let start = Instant::now();
        algo.insert_all(&trace.packets);
        let secs = start.elapsed().as_secs_f64();
        let r = evaluate_topk(&algo.top_k(), &oracle, k);
        println!(
            "{:<16} {:>10.4} {:>12.4} {:>12.1} {:>8.2}",
            algo.name(),
            r.precision,
            r.are,
            r.aae,
            trace.len() as f64 / secs / 1e6
        );
    }
    Ok(())
}

/// `hk pcap-gen`: synthesize a capture file from a Zipf workload with
/// real Ethernet/IPv4/TCP/UDP frames (openable by standard pcap tools).
pub fn pcap_gen(args: &Args) -> Result<(), CliError> {
    use hk_traffic::flow::FiveTuple;
    use hk_traffic::packet::build_frame;
    use hk_traffic::pcap::PcapWriter;

    let out = args.require("out")?;
    let packets: u64 = args.num_or("packets", 100_000)?;
    let flows: usize = args.num_or("flows", 10_000)?;
    let skew: f64 = args.num_or("skew", 1.0)?;
    let seed: u64 = args.num_or("seed", 1)?;
    let payload: usize = args.num_or("payload", 64)?;

    let trace = sampled_zipf(packets, flows, skew, seed).map_keys(FiveTuple::from_index);
    let file = File::create(out)?;
    let mut w =
        PcapWriter::new(std::io::BufWriter::new(file)).map_err(|e| CliError::Run(e.to_string()))?;
    for (n, flow) in trace.packets.iter().enumerate() {
        let ts_sec = (n / 1_000_000) as u32;
        let ts_usec = (n % 1_000_000) as u32;
        w.write_packet(ts_sec, ts_usec, &build_frame(flow, payload))
            .map_err(|e| CliError::Run(e.to_string()))?;
    }
    w.finish().map_err(|e| CliError::Run(e.to_string()))?;
    println!("wrote {} frames to {out}", trace.len());
    Ok(())
}

/// `hk pcap`: read a capture and report top-k flows by packets or bytes.
pub fn pcap(args: &Args) -> Result<(), CliError> {
    use heavykeeper::WeightedTopK;
    use hk_traffic::flow::FiveTuple;
    use hk_traffic::pcap::PcapReader;

    let path = args.require("in")?;
    let by = args.get_or("by", "packets");
    let mem = args.num_or::<usize>("memory-kb", 50)? * 1024;
    let k: usize = args.num_or("k", 20)?;
    let seed: u64 = args.num_or("seed", 1)?;

    let file = File::open(path)?;
    let cap = PcapReader::new(std::io::BufReader::new(file))
        .map_err(|e| CliError::Run(e.to_string()))?
        .read_flows()
        .map_err(|e| CliError::Run(e.to_string()))?;
    println!(
        "{path}: {} frames parsed, {} skipped",
        cap.flows.len(),
        cap.skipped
    );

    let top: Vec<(FiveTuple, u64)> = match by {
        "packets" => {
            let mut hk = MinimumTopK::<FiveTuple>::with_memory(mem, k, seed);
            for &(flow, _) in &cap.flows {
                hk.insert(&flow);
            }
            hk.top_k()
        }
        "bytes" => {
            let mut hk = WeightedTopK::<FiveTuple>::with_memory(mem, k, seed);
            for &(flow, bytes) in &cap.flows {
                hk.insert_weighted(&flow, bytes);
            }
            hk.top_k()
        }
        other => {
            return Err(CliError::Usage(format!(
                "--by must be packets|bytes, got `{other}`"
            )))
        }
    };

    let unit = if by == "bytes" { "bytes" } else { "pkts" };
    println!("{:>4}  {:<46} {:>14}", "rank", "flow", unit);
    for (rank, (f, est)) in top.iter().enumerate() {
        let flow = format!(
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{} p{}",
            f.src_ip[0],
            f.src_ip[1],
            f.src_ip[2],
            f.src_ip[3],
            f.src_port,
            f.dst_ip[0],
            f.dst_ip[1],
            f.dst_ip[2],
            f.dst_ip[3],
            f.dst_port,
            f.protocol,
        );
        println!("{:>4}  {flow:<46} {est:>14}", rank + 1);
    }
    Ok(())
}

/// `hk change`: split a trace into epochs and report heavy changes at
/// every epoch boundary.
pub fn change(args: &Args) -> Result<(), CliError> {
    use heavykeeper::change::HeavyChangeDetector;
    use heavykeeper::HkConfig;

    let trace = load(args)?;
    let epochs: usize = args.num_or("epochs", 10)?;
    let threshold: u64 = args.num_or("threshold", 1000)?;
    let mem = args.num_or::<usize>("memory-kb", 50)? * 1024;
    let k: usize = args.num_or("k", 100)?;
    let seed: u64 = args.num_or("seed", 1)?;
    let batch: usize = args.num_or("batch", 4096)?;
    if epochs == 0 {
        return Err(CliError::Usage("--epochs must be positive".into()));
    }
    if threshold == 0 {
        return Err(CliError::Usage("--threshold must be positive".into()));
    }
    if batch == 0 {
        return Err(CliError::Usage("--batch must be positive".into()));
    }

    let cfg = HkConfig::builder()
        .memory_bytes(mem)
        .k(k)
        .seed(seed)
        .build();
    let mut det = HeavyChangeDetector::<u64>::new(cfg, threshold);
    let chunk = trace.packets.len().div_ceil(epochs).max(1);
    println!(
        "{}: {} packets, {epochs} epochs of ~{chunk}, threshold {threshold}, batch {batch}",
        trace.name,
        trace.len()
    );
    for (e, packets) in trace.packets.chunks(chunk).enumerate() {
        // Batch-first ingest: each epoch streams through insert_batch
        // (prepared-batch prolog + pre-touched walk), like `hk run`.
        for b in packets.chunks(batch) {
            det.insert_batch(b);
        }
        let changes = det.end_epoch();
        println!("epoch {e}: {} heavy change(s)", changes.len());
        for c in changes.iter().take(20) {
            println!(
                "  flow {:>14}: {:>8} -> {:>8} ({:?})",
                c.flow, c.before, c.after, c.kind
            );
        }
    }
    Ok(())
}

/// `hk fleet`: the windowed telemetry scenario — `--switches` sliding
/// windows over hash-partitioned Zipf traffic, rotating every
/// `--epoch-packets` packets for `--periods` periods, exporting wire
/// frames per `--delta-mode full|dirty` (full snapshots, or
/// changed-bucket dirty patches; `--delta` is shorthand for
/// `--delta-mode dirty`) through a channel that drops
/// each frame with probability `--loss` and reorders adjacent frames
/// with probability `--reorder`. The collector reassembles per-switch
/// rings (resync requests are serviced in-band) and its network-wide
/// windowed top-k is scored against the loss-free merged oracle;
/// `--min-recall` turns that score into an exit status for CI.
pub fn fleet(args: &Args) -> Result<(), CliError> {
    use hk_telemetry::{ExportMode, Fleet, FleetConfig};

    let switches: usize = args.num_or("switches", 3)?;
    let window: usize = args.num_or("window", 4)?;
    let epoch_packets: usize = args.num_or("epoch-packets", 10_000)?;
    let periods: usize = args.num_or("periods", 3 * window.max(1))?;
    let flows: usize = args.num_or("flows", 10_000)?;
    let skew: f64 = args.num_or("skew", 1.1)?;
    let mem = args.num_or::<usize>("memory-kb", 50)? * 1024;
    let k: usize = args.num_or("k", 20)?;
    let seed: u64 = args.num_or("seed", 1)?;
    let mode_default = if args.is_set("delta") {
        "dirty"
    } else {
        "full"
    };
    let mode_name = args.get_or("delta-mode", mode_default);
    let mode = match mode_name {
        "full" => ExportMode::Full,
        "dirty" => ExportMode::Dirty,
        other => {
            return Err(CliError::Usage(format!(
                "--delta-mode must be full or dirty, got {other:?}"
            )))
        }
    };
    let loss: f64 = args.num_or("loss", 0.0)?;
    let reorder: f64 = args.num_or("reorder", 0.0)?;
    let lease: u64 = args.num_or("lease", 0)?;
    let outage = match args.get_or("outage", "") {
        "" => None,
        spec => Some(parse_outage(spec).map_err(CliError::Usage)?),
    };
    if switches == 0 || window == 0 || epoch_packets == 0 || periods == 0 {
        return Err(CliError::Usage(
            "--switches/--window/--epoch-packets/--periods must be positive".into(),
        ));
    }
    if !(0.0..1.0).contains(&loss) || !(0.0..1.0).contains(&reorder) {
        return Err(CliError::Usage(
            "--loss and --reorder must be in [0, 1)".into(),
        ));
    }
    if let Some((sw, from, to)) = outage {
        if sw >= switches {
            return Err(CliError::Usage(format!(
                "--outage names switch {sw} but the fleet has {switches}"
            )));
        }
        if from >= to {
            return Err(CliError::Usage(
                "--outage wants a non-empty period range A..B".into(),
            ));
        }
    }

    let trace = sampled_zipf((periods * epoch_packets) as u64, flows, skew, seed);
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches,
        window,
        epoch_packets,
        k,
        memory_bytes: mem / switches.max(1),
        seed,
        mode,
        loss,
        reorder,
        lease,
    });
    let start = Instant::now();
    // The per-period loop (instead of `run_trace`) lets an `--outage`
    // silence one switch's uplink for a stretch of rotations — the
    // switch keeps measuring, the collector stops hearing from it.
    for (period, chunk) in trace.packets.chunks(epoch_packets).enumerate() {
        if let Some((sw, from, to)) = outage {
            fleet.set_muted(sw, (from..to).contains(&period));
        }
        fleet.ingest(chunk);
        if chunk.len() == epoch_packets {
            fleet.rotate();
            let snap = fleet.obs().snapshot();
            println!(
                "obs: period {period} | exports {} | frame bytes p50 {} p95 {} p99 {} | \
                 journal {} event(s)",
                snap.stages.exports,
                snap.export_bytes.p50,
                snap.export_bytes.p95,
                snap.export_bytes.p99,
                snap.journal.events.len(),
            );
        }
    }
    let secs = start.elapsed().as_secs_f64();
    // One oracle build serves both the recall score and the
    // comparison table below.
    let oracle = fleet.oracle_collector();
    let recall = fleet.recall_against(&oracle);
    let s = *fleet.stats();
    let journal = fleet.obs().journal.snapshot();
    let evictions = journal.count_of("eviction");

    println!(
        "fleet: {switches} switch(es) x window {window} x {epoch_packets} pkts/epoch, \
         {} packets, mode {mode_name}, loss {loss}, reorder {reorder}",
        trace.len(),
    );
    println!(
        "rotations {} | frames {} sent / {} delivered / {} lost / {} reordered | \
         {} full, {} dirty, {} resync, {} duplicate",
        s.rotations,
        s.frames_sent,
        s.frames_delivered,
        s.frames_lost,
        s.frames_reordered,
        s.full_frames,
        s.dirty_frames,
        journal.count_of("resync"),
        s.duplicates,
    );
    if lease > 0 || evictions > 0 {
        println!(
            "lease {lease}: {evictions} eviction(s), {} re-admission(s)",
            journal.count_of("readmission"),
        );
    }
    println!(
        "export: {} bytes total, {} bytes last rotation ({} per switch) | {:.2} Mps end-to-end",
        s.bytes_sent,
        s.bytes_last_rotation,
        s.bytes_last_rotation / switches as u64,
        trace.len() as f64 / secs / 1e6,
    );
    println!("recall vs loss-free merged oracle: {recall:.4}");

    let top = fleet.collector().window_top_k();
    let oracle_top = oracle.window_top_k();
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "rank", "flow", "collector", "oracle"
    );
    for (rank, (flow, est)) in top.iter().take(k.min(20)).enumerate() {
        let oracle_est = oracle_top
            .iter()
            .find(|(f, _)| f == flow)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        println!("{:>6} {flow:>14} {est:>14} {oracle_est:>14}", rank + 1);
    }

    enforce_min_recall(args, "fleet recall", recall)
}

/// `hk lint`: run the workspace invariant lint (see `crates/lint`).
/// Prints findings as text (or `--json`); with `--deny` a dirty
/// workspace is an error (exit code 1 — the CI gate).
pub fn lint(args: &Args) -> Result<(), CliError> {
    let root = match args.get_or("root", "") {
        "" => hk_lint::find_workspace_root(),
        p => std::path::PathBuf::from(p),
    };
    let cfg = hk_lint::LintConfig::for_workspace(root);
    let report = hk_lint::run(&cfg);
    if args.is_set("json") {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if args.is_set("deny") && !report.is_clean() {
        return Err(CliError::LintFindings(report.findings.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn make_algo_covers_all_names() {
        for name in ALGO_NAMES {
            let a = make_algo(name, 10 * 1024, 10, 1).unwrap();
            assert!(!a.name().is_empty());
        }
        assert!(make_algo("nope", 1024, 1, 1).is_err());
    }

    #[test]
    fn generate_analyze_compare_roundtrip() {
        let dir = std::env::temp_dir().join("hk-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.to_str().unwrap();

        let gen = Args::parse(&sv(&[
            "generate",
            "--out",
            path_s,
            "--kind",
            "zipf",
            "--packets",
            "20000",
            "--flows",
            "2000",
            "--skew",
            "1.1",
            "--seed",
            "3",
        ]))
        .unwrap();
        generate(&gen).unwrap();

        let ana = Args::parse(&sv(&[
            "analyze",
            "--trace",
            path_s,
            "--algo",
            "minimum",
            "--memory-kb",
            "8",
            "--k",
            "10",
        ]))
        .unwrap();
        analyze(&ana).unwrap();

        let cmp = Args::parse(&sv(&[
            "compare",
            "--trace",
            path_s,
            "--memory-kb",
            "8",
            "--k",
            "10",
        ]))
        .unwrap();
        compare(&cmp).unwrap();

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_stats_json_snapshots_a_faulted_resharded_engine() {
        let dir = std::env::temp_dir().join("hk-cli-stats-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.trace");
        let trace_s = trace.to_str().unwrap();
        let stats = dir.join("stats.json");
        let stats_s = stats.to_str().unwrap();

        let gen = Args::parse(&sv(&[
            "generate",
            "--out",
            trace_s,
            "--kind",
            "zipf",
            "--packets",
            "30000",
            "--flows",
            "2000",
            "--seed",
            "3",
        ]))
        .unwrap();
        generate(&gen).unwrap();

        // Every run writes the engine's built-in snapshot.
        let run_json = |extra: &[&str]| {
            let mut argv = vec![
                "run",
                "--trace",
                trace_s,
                "--memory-kb",
                "64",
                "--k",
                "10",
                "--stats-json",
                stats_s,
            ];
            argv.extend_from_slice(extra);
            run_stream(&Args::parse(&sv(&argv)).unwrap()).unwrap();
            std::fs::read_to_string(&stats).unwrap()
        };

        // A plain run, with no setup, at the default one shard and at
        // two: every packet dispatched and ingested, none lost.
        for extra in [&[][..], &["--shards", "2"]] {
            let json = run_json(extra);
            assert!(json.contains("\"dispatch_packets\": 30000,"), "{json}");
            assert!(json.contains("\"lost_packets\": 0\n"), "{json}");
            let ingested: u64 = json
                .lines()
                .filter_map(|l| l.split("\"ingest_packets\": ").nth(1))
                .map(|v| v.split(',').next().unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(ingested, 30_000, "{json}");
        }

        // One faulted, recovered, resharded engine run: the snapshot
        // must tell the whole story.
        let json = run_json(&[
            "--shards",
            "2",
            "--fault",
            "kill:1@8000",
            "--recover",
            "--reshard",
            "3@16000",
        ]);
        assert!(!json.contains("\"dispatch_packets\": 0"), "{json}");
        assert!(json.contains("\"ingest_packets\""), "{json}");
        assert!(json.contains("\"kind\": \"recovery\""), "{json}");
        assert!(json.contains("\"kind\": \"reshard_phase\""), "{json}");

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&stats).ok();
    }

    #[test]
    fn run_batched_and_sharded() {
        let dir = std::env::temp_dir().join("hk-cli-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.to_str().unwrap();

        let gen = Args::parse(&sv(&[
            "generate",
            "--out",
            path_s,
            "--kind",
            "zipf",
            "--packets",
            "20000",
            "--flows",
            "2000",
            "--skew",
            "1.1",
            "--seed",
            "3",
        ]))
        .unwrap();
        generate(&gen).unwrap();

        // Batched run at the default one shard.
        let run = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--algo",
            "parallel",
            "--memory-kb",
            "16",
            "--k",
            "10",
            "--batch",
            "512",
        ]))
        .unwrap();
        run_stream(&run).unwrap();

        // Sharded run over a baseline (the engine is algorithm-generic).
        let run = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--algo",
            "space-saving",
            "--memory-kb",
            "16",
            "--k",
            "10",
            "--shards",
            "3",
        ]))
        .unwrap();
        run_stream(&run).unwrap();

        // Layout report rides along for HK variants and degrades
        // gracefully for baselines.
        let run = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--memory-kb",
            "16",
            "--k",
            "10",
            "--layout-report",
        ]))
        .unwrap();
        run_stream(&run).unwrap();
        let run = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--algo",
            "space-saving",
            "--memory-kb",
            "16",
            "--k",
            "10",
            "--layout-report",
        ]))
        .unwrap();
        run_stream(&run).unwrap();

        // Degenerate flags rejected.
        let bad = Args::parse(&sv(&["run", "--trace", path_s, "--batch", "0"])).unwrap();
        assert!(run_stream(&bad).is_err());
        let bad = Args::parse(&sv(&["run", "--trace", path_s, "--shards", "0"])).unwrap();
        assert!(run_stream(&bad).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// `hk run` streams through the engine, one shard by default. A
    /// one-shard engine must report the same name and the same (flow,
    /// estimate) set as the bare instance fed the same chunks, for
    /// every algorithm and for the sliding window. Sets, not rank
    /// order: the engine breaks count ties on key bytes, the bare
    /// store in its own order.
    #[test]
    fn one_shard_engine_answers_like_the_bare_instance() {
        use hk_common::algorithm::EpochRotate;
        use hk_metrics::throughput::{ingest_windowed, IngestMode};
        use std::collections::BTreeSet;

        type Answer = (&'static str, BTreeSet<(u64, u64)>);
        fn steady<A: TopKAlgorithm<u64>>(algo: &mut A, packets: &[u64], batch: usize) -> Answer {
            for chunk in packets.chunks(batch) {
                algo.insert_batch(chunk);
            }
            (algo.name(), algo.top_k().into_iter().collect())
        }
        fn windowed<A: TopKAlgorithm<u64> + EpochRotate>(
            algo: &mut A,
            packets: &[u64],
            batch: usize,
        ) -> Answer {
            ingest_windowed(algo, packets, IngestMode::Batched(batch), 5000);
            (algo.name(), algo.top_k().into_iter().collect())
        }

        // CI's smoke trace and its tight-sketch run geometry.
        let packets = sampled_zipf(40_000, 4000, 1.1, 3).packets;
        let (mem, k, seed, batch) = (4 * 1024, 20, 1, 1024);
        for &name in ALGO_NAMES {
            let bare = steady(&mut make_algo(name, mem, k, seed).unwrap(), &packets, batch);
            let engine = if name == "parallel" {
                let mut engine = ShardedEngine::from_fn(1, k, |_| {
                    ParallelTopK::<u64>::with_memory(mem, k, seed)
                });
                steady(&mut engine, &packets, batch)
            } else {
                let algo = make_algo(name, mem, k, seed).unwrap();
                steady(
                    &mut ShardedEngine::from_shards(vec![algo], k),
                    &packets,
                    batch,
                )
            };
            assert!(!bare.1.is_empty(), "{name}");
            assert_eq!(engine, bare, "{name}");
        }

        let ring = || SlidingTopK::<u64>::with_memory(32 * 1024, k, seed, 4);
        let bare = windowed(&mut ring(), &packets, batch);
        let engine = windowed(
            &mut ShardedEngine::from_fn(1, k, |_| ring()),
            &packets,
            batch,
        );
        assert_eq!(bare.1.len(), k);
        assert_eq!(engine, bare);
    }

    #[test]
    fn run_reshards_mid_stream() {
        let dir = std::env::temp_dir().join("hk-cli-reshard-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.to_str().unwrap();
        let gen = Args::parse(&sv(&[
            "generate",
            "--out",
            path_s,
            "--kind",
            "zipf",
            "--packets",
            "40000",
            "--flows",
            "2000",
            "--skew",
            "1.1",
            "--seed",
            "3",
        ]))
        .unwrap();
        generate(&gen).unwrap();

        // Grow 2 -> 4 a quarter of the way in, then shrink back to 2 —
        // the run still clears the recall floor.
        let run = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--memory-kb",
            "32",
            "--k",
            "10",
            "--shards",
            "2",
            "--batch",
            "512",
            "--reshard",
            "4@10000,2@30000",
            "--min-recall",
            "0.8",
        ]))
        .unwrap();
        run_stream(&run).unwrap();

        // A kill after the grow composes with --recover.
        let run = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--memory-kb",
            "32",
            "--k",
            "10",
            "--shards",
            "2",
            "--batch",
            "512",
            "--reshard",
            "4@10000",
            "--fault",
            "kill:1@15000",
            "--recover",
            "--min-recall",
            "0.8",
        ]))
        .unwrap();
        run_stream(&run).unwrap();

        // Misuse: resharding rides the steady parallel engine only.
        let bad = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--algo",
            "space-saving",
            "--reshard",
            "4@10000",
        ]))
        .unwrap();
        assert!(matches!(run_stream(&bad).unwrap_err(), CliError::Usage(_)));
        let bad = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--window",
            "4",
            "--reshard",
            "4@10000",
        ]))
        .unwrap();
        assert!(matches!(run_stream(&bad).unwrap_err(), CliError::Usage(_)));
        let bad = Args::parse(&sv(&["run", "--trace", path_s, "--reshard", "0@5"])).unwrap();
        assert!(matches!(run_stream(&bad).unwrap_err(), CliError::Usage(_)));
        let bad = Args::parse(&sv(&["run", "--trace", path_s, "--reshard", "4-500"])).unwrap();
        assert!(matches!(run_stream(&bad).unwrap_err(), CliError::Usage(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_windowed_variants() {
        let dir = std::env::temp_dir().join("hk-cli-window-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.to_str().unwrap();

        let gen = Args::parse(&sv(&[
            "generate",
            "--out",
            path_s,
            "--kind",
            "zipf",
            "--packets",
            "24000",
            "--flows",
            "2000",
            "--skew",
            "1.1",
            "--seed",
            "3",
        ]))
        .unwrap();
        generate(&gen).unwrap();

        // Batched windowed run with an explicit period length and the
        // layout report riding along (per-epoch geometry).
        let run = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--memory-kb",
            "16",
            "--k",
            "10",
            "--batch",
            "512",
            "--window",
            "3",
            "--epoch-packets",
            "4000",
            "--layout-report",
        ]))
        .unwrap();
        run_stream(&run).unwrap();

        // Sharded windowed run, default epoch length (trace / 2W).
        let run = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--memory-kb",
            "16",
            "--k",
            "10",
            "--window",
            "2",
            "--shards",
            "2",
        ]))
        .unwrap();
        run_stream(&run).unwrap();

        // The window path is SlidingTopK-backed: baselines are rejected.
        let bad = Args::parse(&sv(&[
            "run",
            "--trace",
            path_s,
            "--algo",
            "space-saving",
            "--window",
            "2",
        ]))
        .unwrap();
        assert!(run_stream(&bad).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        let dir = std::env::temp_dir();
        let path = dir.join("hk-cli-bad.trace");
        let gen = Args::parse(&sv(&[
            "generate",
            "--out",
            path.to_str().unwrap(),
            "--kind",
            "weird",
        ]))
        .unwrap();
        assert!(generate(&gen).is_err());
    }

    #[test]
    fn analyze_missing_trace_flag() {
        let ana = Args::parse(&sv(&["analyze"])).unwrap();
        assert!(analyze(&ana).is_err());
    }

    #[test]
    fn run_help_works() {
        crate::run(&sv(&["help"])).unwrap();
        assert!(crate::run(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn pcap_gen_and_pcap_roundtrip() {
        let dir = std::env::temp_dir().join("hk-cli-pcap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pcap");
        let path_s = path.to_str().unwrap();

        let gen = Args::parse(&sv(&[
            "pcap-gen",
            "--out",
            path_s,
            "--packets",
            "5000",
            "--flows",
            "500",
            "--skew",
            "1.2",
            "--seed",
            "3",
        ]))
        .unwrap();
        pcap_gen(&gen).unwrap();

        for by in ["packets", "bytes"] {
            let ana = Args::parse(&sv(&[
                "pcap",
                "--in",
                path_s,
                "--by",
                by,
                "--memory-kb",
                "8",
                "--k",
                "5",
            ]))
            .unwrap();
            pcap(&ana).unwrap();
        }

        let bad = Args::parse(&sv(&["pcap", "--in", path_s, "--by", "flops"])).unwrap();
        assert!(pcap(&bad).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pcap_missing_file_is_io_error() {
        let ana = Args::parse(&sv(&["pcap", "--in", "/nonexistent/x.pcap"])).unwrap();
        assert!(matches!(pcap(&ana).unwrap_err(), CliError::Run(_)));
    }

    #[test]
    fn fleet_scenarios_run_and_enforce_recall() {
        // Lossless full-frame fleet: recall is perfect, so the bound
        // passes.
        let f = Args::parse(&sv(&[
            "fleet",
            "--switches",
            "2",
            "--window",
            "3",
            "--epoch-packets",
            "2000",
            "--periods",
            "5",
            "--flows",
            "500",
            "--memory-kb",
            "32",
            "--k",
            "10",
            "--min-recall",
            "0.99",
        ]))
        .unwrap();
        fleet(&f).unwrap();

        // Full mode with loss + reorder still clears a sane bound
        // (resyncs pull the collector back).
        let f = Args::parse(&sv(&[
            "fleet",
            "--switches",
            "3",
            "--window",
            "4",
            "--epoch-packets",
            "2000",
            "--periods",
            "8",
            "--flows",
            "500",
            "--memory-kb",
            "32",
            "--k",
            "10",
            "--delta-mode",
            "full",
            "--loss",
            "0.05",
            "--reorder",
            "0.05",
            "--min-recall",
            "0.7",
        ]))
        .unwrap();
        fleet(&f).unwrap();

        // Dirty mode under the same abuse: patches plus resyncs still
        // reconstruct a collector view that clears the bound.
        let f = Args::parse(&sv(&[
            "fleet",
            "--switches",
            "3",
            "--window",
            "4",
            "--epoch-packets",
            "2000",
            "--periods",
            "8",
            "--flows",
            "500",
            "--memory-kb",
            "32",
            "--k",
            "10",
            "--delta-mode",
            "dirty",
            "--loss",
            "0.05",
            "--reorder",
            "0.05",
            "--min-recall",
            "0.7",
        ]))
        .unwrap();
        fleet(&f).unwrap();

        // An impossible bound fails the run.
        let f = Args::parse(&sv(&[
            "fleet",
            "--switches",
            "2",
            "--window",
            "2",
            "--epoch-packets",
            "1000",
            "--periods",
            "4",
            "--delta",
            "--loss",
            "0.6",
            "--seed",
            "9",
            "--min-recall",
            "1.1",
        ]))
        .unwrap();
        assert!(matches!(fleet(&f).unwrap_err(), CliError::Run(_)));

        // Degenerate flags rejected.
        let bad = Args::parse(&sv(&["fleet", "--switches", "0"])).unwrap();
        assert!(fleet(&bad).is_err());
        let bad = Args::parse(&sv(&["fleet", "--loss", "1.5"])).unwrap();
        assert!(fleet(&bad).is_err());
        let bad = Args::parse(&sv(&["fleet", "--delta-mode", "sparse"])).unwrap();
        assert!(matches!(fleet(&bad).unwrap_err(), CliError::Usage(_)));
        // The retired v2 delta mode is no mode at all.
        let bad = Args::parse(&sv(&["fleet", "--delta-mode", "delta"])).unwrap();
        assert!(matches!(fleet(&bad).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn fleet_lease_survives_an_outage_cycle() {
        // One switch's uplink is down for 10 rotations under a 2-round
        // lease: it gets evicted, returns, resyncs, and the fleet still
        // clears the recall floor at the end of the run.
        let f = Args::parse(&sv(&[
            "fleet",
            "--switches",
            "3",
            "--window",
            "3",
            "--epoch-packets",
            "2000",
            "--periods",
            "18",
            "--flows",
            "500",
            "--memory-kb",
            "32",
            "--k",
            "10",
            "--delta",
            "--lease",
            "2",
            "--outage",
            "1@4..14",
            "--min-recall",
            "0.7",
        ]))
        .unwrap();
        fleet(&f).unwrap();

        // Outage specs that name a missing switch or an empty range are
        // usage errors, as is a malformed spec.
        let bad = Args::parse(&sv(&["fleet", "--outage", "9@0..2"])).unwrap();
        assert!(matches!(fleet(&bad).unwrap_err(), CliError::Usage(_)));
        let bad = Args::parse(&sv(&["fleet", "--outage", "1@5..5"])).unwrap();
        assert!(matches!(fleet(&bad).unwrap_err(), CliError::Usage(_)));
        let bad = Args::parse(&sv(&["fleet", "--outage", "1:4-14"])).unwrap();
        assert!(matches!(fleet(&bad).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn change_over_generated_trace() {
        let dir = std::env::temp_dir().join("hk-cli-change-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.to_str().unwrap();
        let gen = Args::parse(&sv(&[
            "generate",
            "--out",
            path_s,
            "--kind",
            "zipf",
            "--packets",
            "30000",
            "--flows",
            "3000",
            "--skew",
            "1.2",
            "--seed",
            "3",
        ]))
        .unwrap();
        generate(&gen).unwrap();

        let ch = Args::parse(&sv(&[
            "change",
            "--trace",
            path_s,
            "--epochs",
            "3",
            "--threshold",
            "500",
            "--memory-kb",
            "16",
            "--k",
            "20",
        ]))
        .unwrap();
        change(&ch).unwrap();

        // Batched change run (the detector rides insert_batch).
        let ch = Args::parse(&sv(&[
            "change",
            "--trace",
            path_s,
            "--epochs",
            "3",
            "--threshold",
            "500",
            "--memory-kb",
            "16",
            "--k",
            "20",
            "--batch",
            "512",
        ]))
        .unwrap();
        change(&ch).unwrap();

        let bad = Args::parse(&sv(&["change", "--trace", path_s, "--epochs", "0"])).unwrap();
        assert!(change(&bad).is_err());
        let bad = Args::parse(&sv(&["change", "--trace", path_s, "--threshold", "0"])).unwrap();
        assert!(change(&bad).is_err());
        let bad = Args::parse(&sv(&["change", "--trace", path_s, "--batch", "0"])).unwrap();
        assert!(change(&bad).is_err());
        std::fs::remove_file(&path).ok();
    }
}
