//! The ledger: one in-process benchmark of the HeavyKeeper workspace.
//!
//! ```text
//! hk-ledger --workload <ingest-heavy|engine-pipeline|fleet-window>
//!           --seed <n> --seconds <s> --trace <0|1>
//! hk-ledger compare <report-a> <report-b>
//! ```
//!
//! A run generates its trace from the seed before any clock starts,
//! checks one reference pass against exact counts and reference
//! structures, then repeats closed-loop passes (each on a freshly built
//! system) for the given seconds. It prints a text report, one
//! `e2e`/`layer` line per metric, and as its last line a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). It exits 1 when an output check fails and 2 on a
//! usage error. `compare` reads two saved reports and refuses to
//! compare runs made with different `available_parallelism`.
//! See `README.md` next to this crate for every metric.

#![forbid(unsafe_code)]

mod engine;
mod fleet;
mod ingest;
mod measure;
mod probes;
mod report;

use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::FlowKey;
use hk_metrics::accuracy::evaluate_topk;
use hk_traffic::oracle::ExactCounter;
use hk_traffic::synthetic::sampled_zipf;
use hk_traffic::FiveTuple;
use measure::{canonical, insert_stats_layers, median, quantile, ratio, Check, Layers, Pass};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Reads per untraced run, so that at least ten samples lie beyond p95.
const MIN_READS: usize = 200;
/// Packets of a workload's trace on which the loops of the other
/// workloads run, to measure the layers this workload does not call.
const PROBE_PACKETS: usize = engine::PACKETS;
/// Buffers passed through the SPSC probe.
const SPSC_HANDOFFS: u64 = 200_000;

/// Everything a run reports besides its passes.
#[derive(Default)]
struct Run {
    e2e: BTreeMap<&'static str, f64>,
    layers: Layers,
    checks: Vec<Check>,
    notes: Vec<String>,
}

/// One workload: a trace, its oracle and the loop that drives it.
trait Workload: Send {
    fn trace_spec(&self) -> String;
    fn geometry(&self) -> String;
    /// The first pass, untraced, with every output check; fills the
    /// accuracy metrics and the insertion-outcome counts.
    fn reference(&mut self, run: &mut Run) -> Pass;
    fn untraced(&mut self) -> Pass;
    fn traced(&mut self) -> Pass;
    /// Per-layer metrics of the traced passes, then the probes. Returns
    /// the caller-thread time the traced spans covered and the traced
    /// wall time, for `leftover_frac`.
    fn layers(&mut self, run: &mut Run) -> (u64, u64);
}

fn accuracy<K: FlowKey>(run: &mut Run, top: &[(K, u64)], oracle: &ExactCounter<K>, k: usize) {
    let acc = evaluate_topk(top, oracle, k);
    run.e2e.insert("precision", acc.precision);
    run.e2e.insert("are", acc.are);
    run.checks.push(Check::new(
        "topk_is_full",
        acc.reported == k,
        format!("{} of {k} flows reported", acc.reported),
    ));
    run.checks.push(Check::new(
        "precision_floor",
        acc.precision >= 0.9,
        format!("precision {} against the exact oracle", acc.precision),
    ));
}

/// Runs the loops of the other workloads on a prefix of this trace for
/// the layers this workload does not call. The workload's own values
/// take precedence.
fn probe_other_loops<K: FlowKey + Send + 'static>(trace: &[K], own: &str, run: &mut Run) {
    let prefix = &trace[..PROBE_PACKETS.min(trace.len())];
    let mut probed = Layers::new();
    if own != "ingest-heavy" {
        let mut s = ingest::Spans::default();
        ingest::pass(prefix, &ingest::GEOMETRY, Some(&mut s));
        s.layers(&mut probed);
    }
    if own != "engine-pipeline" {
        let cfg = engine::config::<K>(&engine::GEOMETRY);
        let mut s = engine::Spans::default();
        engine::pass(prefix, &cfg, engine::GEOMETRY.read_every, Some(&mut s));
        engine::worker_probe(prefix, &cfg, &mut s);
        s.layers(&mut probed);
    }
    if own != "fleet-window" {
        let mut s = fleet::Spans::default();
        fleet::traced_pass(prefix, &fleet::router(), &mut s);
        s.layers(&mut probed);
    }
    let (handoff_ns, full_frac) = probes::spsc(SPSC_HANDOFFS);
    probed.insert("spsc.handoff_ns", handoff_ns);
    probed.insert("spsc.full_push_frac", full_frac);
    for (name, v) in probed {
        run.layers.entry(name).or_insert(v);
    }
}

struct IngestHeavy {
    trace: Vec<u64>,
    oracle: ExactCounter<u64>,
    spans: ingest::Spans,
    seed: u64,
}

impl Workload for IngestHeavy {
    fn trace_spec(&self) -> String {
        zipf_spec(
            ingest::PACKETS,
            ingest::FLOWS,
            ingest::SKEW,
            self.seed,
            "u64",
        )
    }

    fn geometry(&self) -> String {
        let g = ingest::GEOMETRY;
        format!(
            "ParallelTopK<u64> memory={}B k={} batch={} read_every={}batches",
            g.memory,
            g.k,
            measure::BATCH,
            g.read_every
        )
    }

    fn reference(&mut self, run: &mut Run) -> Pass {
        let (pass, hk) = ingest::pass(&self.trace, &ingest::GEOMETRY, None);
        accuracy(run, &hk.top_k(), &self.oracle, ingest::GEOMETRY.k);
        insert_stats_layers(hk.stats(), &mut run.layers);
        pass
    }

    fn untraced(&mut self) -> Pass {
        ingest::pass(&self.trace, &ingest::GEOMETRY, None).0
    }

    fn traced(&mut self) -> Pass {
        ingest::pass(&self.trace, &ingest::GEOMETRY, Some(&mut self.spans)).0
    }

    fn layers(&mut self, run: &mut Run) -> (u64, u64) {
        self.spans.layers(&mut run.layers);
        let (_, hk) = ingest::pass(&self.trace, &ingest::GEOMETRY, None);
        run.layers.insert(
            "sketch.touch_ns_per_pkt",
            probes::touch_ns_per_pkt(hk.sketch(), &self.trace),
        );
        drop(hk);
        probe_other_loops(&self.trace, "ingest-heavy", run);
        (self.spans.covered_ns(), self.spans.wall_ns)
    }
}

struct EnginePipeline {
    trace: Vec<FiveTuple>,
    oracle: ExactCounter<FiveTuple>,
    cfg: heavykeeper::HkConfig,
    spans: engine::Spans,
    seed: u64,
}

impl Workload for EnginePipeline {
    fn trace_spec(&self) -> String {
        zipf_spec(
            engine::PACKETS,
            engine::FLOWS,
            engine::SKEW,
            self.seed,
            "FiveTuple::from_index (13 B)",
        )
    }

    fn geometry(&self) -> String {
        let g = engine::GEOMETRY;
        format!(
            "ShardedEngine::parallel shards={} memory={}B k={} batch={} read_every={}batches",
            engine::SHARDS,
            g.memory,
            g.k,
            measure::BATCH,
            g.read_every
        )
    }

    fn reference(&mut self, run: &mut Run) -> Pass {
        let g = engine::GEOMETRY;
        let (pass, eng) = engine::pass(&self.trace, &self.cfg, g.read_every, None);
        let top = eng.top_k();
        accuracy(run, &top, &self.oracle, g.k);
        let stats = eng.with_shard(0, |a| *a.stats()).unwrap_or_default();
        insert_stats_layers(&stats, &mut run.layers);
        drop(eng);

        // A bare instance of the shard configuration, fed and read at
        // the same points, must answer exactly as the 1-shard engine.
        let (bare_pass, bare) = ingest::pass(&self.trace, &g, None);
        let same_reads = bare_pass.digest == pass.digest;
        let same_final = canonical(bare.top_k()) == canonical(top);
        let same_stats = *bare.stats() == stats;
        run.checks.push(Check::new(
            "engine_equals_bare_parallel",
            same_reads && same_final && same_stats,
            format!("reads {same_reads}, final top-k {same_final}, insert stats {same_stats}"),
        ));
        pass
    }

    fn untraced(&mut self) -> Pass {
        engine::pass(&self.trace, &self.cfg, engine::GEOMETRY.read_every, None).0
    }

    fn traced(&mut self) -> Pass {
        let read_every = engine::GEOMETRY.read_every;
        engine::pass(&self.trace, &self.cfg, read_every, Some(&mut self.spans)).0
    }

    fn layers(&mut self, run: &mut Run) -> (u64, u64) {
        let bare = engine::worker_probe(&self.trace, &self.cfg, &mut self.spans);
        self.spans.layers(&mut run.layers);
        // The worker's walk at this workload's own geometry.
        run.layers.insert(
            "parallel.insert_ns_per_pkt",
            self.spans.worker.ns_per(self.spans.worker_packets),
        );
        run.layers.insert(
            "sketch.touch_ns_per_pkt",
            probes::touch_ns_per_pkt(bare.sketch(), &self.trace),
        );
        drop(bare);
        let ratio = run.layers["engine.dispatch_over_worker"];
        let stage = if ratio > 1.0 { "dispatcher" } else { "worker" };
        run.notes.push(format!(
            "bottleneck stage={stage} engine.dispatch_over_worker={ratio}"
        ));
        probe_other_loops(&self.trace, "engine-pipeline", run);
        (self.spans.covered_ns(), self.spans.wall_ns)
    }
}

struct FleetWindow {
    trace: Vec<u64>,
    router: hk_telemetry::Fleet<u64>,
    spans: fleet::Spans,
    /// Replica check of the first traced pass (digests cost more than
    /// a pass, so later passes rely on the answer digest).
    replica_check: Option<Check>,
    seed: u64,
}

impl Workload for FleetWindow {
    fn trace_spec(&self) -> String {
        zipf_spec(fleet::PACKETS, fleet::FLOWS, fleet::SKEW, self.seed, "u64")
    }

    fn geometry(&self) -> String {
        format!(
            "Fleet switches={} window={} memory_per_switch={}B k={} epoch={}pkts epochs={} export=dirty loss=0 reorder=0",
            fleet::SWITCHES,
            fleet::WINDOW,
            fleet::MEMORY,
            fleet::K,
            fleet::EPOCH,
            fleet::EPOCHS
        )
    }

    fn reference(&mut self, run: &mut Run) -> Pass {
        let (mut pass, mut fleet, extras) = fleet::pass(&self.trace);
        let oracle = ExactCounter::from_packets(fleet::window_slice(&self.trace));
        accuracy(run, &fleet.collector().window_top_k(), &oracle, fleet::K);
        insert_stats_layers(&extras.stats, &mut run.layers);
        let steady = &extras.rotation_bytes[fleet::WINDOW - 1..];
        run.e2e.insert(
            "export_bytes_per_rotation",
            ratio(steady.iter().sum::<u64>() as f64, steady.len() as f64),
        );

        let shipped = fleet.reconcile();
        run.checks.push(Check::new(
            "reconcile_ships_nothing",
            shipped == 0,
            format!("{shipped} catch-up snapshots"),
        ));
        run.checks
            .push(fleet::replicas_match(fleet.collector(), fleet.switches()));
        // Recount with the catch-up snapshots `reconcile` shipped.
        let s = fleet.stats();
        pass.attempted = pass.packets + s.frames_sent + pass.reads_us.len() as u64;
        pass.failed =
            (s.frames_sent - s.frames_delivered) + fleet.collector().window_frames_rejected();
        pass
    }

    fn untraced(&mut self) -> Pass {
        fleet::pass(&self.trace).0
    }

    fn traced(&mut self) -> Pass {
        let first = self.spans.rotations == 0;
        let (pass, hand) = fleet::traced_pass(&self.trace, &self.router, &mut self.spans);
        if first {
            let check = fleet::replicas_match(&hand.collector, &hand.switches);
            self.replica_check = Some(Check {
                name: "traced_replica_digest_equals_switch".into(),
                ..check
            });
        }
        pass
    }

    fn layers(&mut self, run: &mut Run) -> (u64, u64) {
        self.spans.layers(&mut run.layers);
        run.checks.extend(self.replica_check.take());
        // The touch probe on one epoch's sketch, filled with one epoch.
        let epoch_cfg = heavykeeper::SlidingTopK::<u64>::with_memory(
            fleet::MEMORY,
            fleet::K,
            ingest::SKETCH_SEED,
            fleet::WINDOW,
        )
        .config()
        .clone();
        let mut epoch = heavykeeper::ParallelTopK::<u64>::new(epoch_cfg);
        let first_epoch = &self.trace[..fleet::EPOCH];
        epoch.insert_batch(first_epoch);
        run.layers.insert(
            "sketch.touch_ns_per_pkt",
            probes::touch_ns_per_pkt(epoch.sketch(), first_epoch),
        );
        drop(epoch);
        probe_other_loops(&self.trace, "fleet-window", run);
        (self.spans.covered_ns(), self.spans.wall_ns)
    }
}

fn zipf_spec(n: usize, flows: usize, skew: f64, seed: u64, keys: &str) -> String {
    format!("sampled_zipf(n={n}, flows={flows}, skew={skew}, seed={seed}) keys={keys}")
}

fn build(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let zipf = |n: usize, flows: usize, skew: f64| sampled_zipf(n as u64, flows, skew, seed);
    Some(match workload {
        "ingest-heavy" => {
            let trace = zipf(ingest::PACKETS, ingest::FLOWS, ingest::SKEW).packets;
            let oracle = ExactCounter::from_packets(&trace);
            Box::new(IngestHeavy {
                trace,
                oracle,
                spans: Default::default(),
                seed,
            })
        }
        "engine-pipeline" => {
            let trace = zipf(engine::PACKETS, engine::FLOWS, engine::SKEW)
                .map_keys(FiveTuple::from_index)
                .packets;
            let oracle = ExactCounter::from_packets(&trace);
            Box::new(EnginePipeline {
                trace,
                oracle,
                cfg: engine::config::<FiveTuple>(&engine::GEOMETRY),
                spans: Default::default(),
                seed,
            })
        }
        "fleet-window" => Box::new(FleetWindow {
            trace: zipf(fleet::PACKETS, fleet::FLOWS, fleet::SKEW).packets,
            router: fleet::router(),
            spans: Default::default(),
            replica_check: None,
            seed,
        }),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

const USAGE: &str = "usage: hk-ledger --workload <ingest-heavy|engine-pipeline|fleet-window> \
--seed <n> --seconds <s> --trace <0|1>\n       hk-ledger compare <report-a> <report-b>";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return report::compare(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hk-ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = build(&args.workload, args.seed) else {
        eprintln!("hk-ledger: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut run = Run::default();
    let passes = measure_run(workload.as_mut(), &args, &mut run);
    report::print(&args, workload.as_ref(), &run, &passes)
}

/// The passes a run made, for the report.
struct Passes {
    untraced: usize,
    traced: usize,
    read_samples: usize,
    attempted: u64,
    failed: u64,
}

fn measure_run(w: &mut dyn Workload, args: &Args, run: &mut Run) -> Passes {
    // The reference pass runs on a thread of its own. A new thread gets
    // a fresh allocator arena, so the system it builds cannot reuse
    // memory the trace generator freed, and its resident growth
    // (`mem_mb`) is the system's own footprint.
    let reference = std::thread::scope(|s| {
        s.spawn(|| w.reference(run))
            .join()
            .expect("the reference pass panicked")
    });
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        untraced.push(w.untraced());
        if args.trace {
            traced.push(w.traced());
        }
        let reads: usize = untraced.iter().map(|p| p.reads_us.len()).sum();
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= args.seconds && (args.trace || reads >= MIN_READS);
        if enough || elapsed >= 2.0 * args.seconds + 20.0 {
            break;
        }
    }

    let repeat = untraced.iter().all(|p| p.digest == reference.digest);
    run.checks.push(Check::new(
        "answers_repeat_across_passes",
        repeat,
        format!("{} untraced passes", untraced.len()),
    ));
    if args.trace {
        let same = traced.iter().all(|p| p.digest == reference.digest);
        run.checks.push(Check::new(
            "traced_answers_equal_untraced",
            same,
            format!("{} traced passes", traced.len()),
        ));
    }

    let col = |f: fn(&Pass) -> f64| untraced.iter().map(f).collect::<Vec<f64>>();
    let reads: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.reads_us.iter().copied())
        .collect();
    // On a shared host the speed drifts between faster and slower phases
    // that last from a pass to minutes. A median over a run's passes
    // jumps between the phases as their mix crosses one half; a mean
    // moves with the mix. So the rate is the mean rate over every timed
    // pass, and the median read latency is each pass's median averaged
    // over the passes.
    let packets: u64 = untraced.iter().map(|p| p.packets).sum();
    let wall: f64 = untraced.iter().map(|p| p.wall_s).sum();
    run.e2e
        .insert("throughput_mpps", ratio(packets as f64, wall) / 1e6);
    let pass_p50 = col(|p| median(&p.reads_us));
    run.e2e.insert(
        "read_p50_us",
        ratio(pass_p50.iter().sum(), pass_p50.len() as f64),
    );
    run.e2e.insert("read_p95_us", quantile(&reads, 0.95));
    run.e2e.insert("setup_s", median(&col(|p| p.setup_s)));
    // Only the reference pass builds its system on fresh pages, so only
    // its resident growth is the system's size.
    run.e2e
        .insert("mem_mb", reference.mem_bytes as f64 / (1u64 << 20) as f64);

    if args.trace {
        let (covered, wall) = w.layers(run);
        run.layers.insert(
            "leftover_frac",
            ratio(wall as f64 - covered as f64, wall as f64),
        );
        let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let untraced_wall = median(&col(|p| p.wall_s));
        run.layers.insert(
            "trace_overhead_frac",
            ratio(traced_wall - untraced_wall, untraced_wall),
        );
    }

    let all = std::iter::once(&reference).chain(&untraced).chain(&traced);
    let (mut attempted, mut failed) = all.fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
    attempted += run.checks.len() as u64;
    failed += run.checks.iter().filter(|c| !c.ok).count() as u64;
    run.e2e
        .insert("failed_frac", ratio(failed as f64, attempted as f64));
    for name in ["read_p50_us", "read_p95_us", "are", "failed_frac"] {
        let v = run.e2e[name];
        run.layers.insert(name, v);
    }
    Passes {
        untraced: untraced.len(),
        traced: traced.len(),
        read_samples: reads.len(),
        attempted,
        failed,
    }
}
