//! Cross-crate pipelines: trace generation → serialization → algorithms
//! → metrics, and the simulated OVS deployment end to end.

use heavykeeper::ParallelTopK;
use hk_common::TopKAlgorithm;
use hk_metrics::accuracy::evaluate_topk;
use hk_ovs::deployment::run_deployment;
use hk_traffic::flow::FiveTuple;
use hk_traffic::oracle::ExactCounter;
use hk_traffic::presets::{caida_like, campus_like};
use hk_traffic::trace_io::{read_trace, write_trace};

#[test]
fn trace_serialization_preserves_experiment_results() {
    let trace = campus_like(500, 3); // 20k packets.
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).expect("write");
    let restored = read_trace::<FiveTuple, _>(&mut buf.as_slice(), "campus").expect("read");
    assert_eq!(trace.packets, restored.packets);

    // The same experiment on original and restored traces must agree
    // exactly (same packets, same seed → same sketch state).
    let oracle = ExactCounter::from_packets(&trace.packets);
    let run = |packets: &[FiveTuple]| {
        let mut hk = ParallelTopK::<FiveTuple>::with_memory(8 * 1024, 20, 9);
        hk.insert_all(packets);
        evaluate_topk(&hk.top_k(), &oracle, 20)
    };
    assert_eq!(run(&trace.packets), run(&restored.packets));
}

#[test]
fn presets_have_distinct_flow_shapes() {
    let campus = campus_like(500, 1);
    let caida = caida_like(500, 1);
    let oc = ExactCounter::from_packets(&campus.packets);
    let oa = ExactCounter::from_packets(&caida.packets);
    // CAIDA-like is mouse-heavier: more distinct flows per packet.
    let campus_ratio = oc.distinct_flows() as f64 / oc.total_packets() as f64;
    let caida_ratio = oa.distinct_flows() as f64 / oa.total_packets() as f64;
    assert!(caida_ratio > campus_ratio * 1.5);
}

#[test]
fn ovs_deployment_equivalent_to_direct_insertion() {
    // The ring must be lossless under backpressure: running through the
    // datapath pipeline gives identical top-k to direct insertion.
    let trace = campus_like(500, 7);
    let mem = 16 * 1024;
    let (report, deployed) = run_deployment(
        &trace.packets,
        Some(ParallelTopK::<FiveTuple>::with_memory(mem, 10, 4)),
        1024,
    );
    assert_eq!(report.consumed, trace.packets.len() as u64);

    let mut direct = ParallelTopK::<FiveTuple>::with_memory(mem, 10, 4);
    direct.insert_all(&trace.packets);

    assert_eq!(deployed.unwrap().top_k(), direct.top_k());
}

#[test]
fn ovs_baseline_faster_or_equal_to_instrumented() {
    // The no-algorithm baseline processes at least as fast as with a
    // sketch attached (Figure 34's qualitative shape). Run a few times
    // and compare best-of to damp scheduler noise.
    let trace = campus_like(200, 7); // 50k packets.
    let best = |algo: bool| -> f64 {
        (0..3)
            .map(|_| {
                let a = algo.then(|| ParallelTopK::<FiveTuple>::with_memory(50 * 1024, 100, 1));
                run_deployment(&trace.packets, a, 4096).0.mps
            })
            .fold(0.0, f64::max)
    };
    let baseline = best(false);
    let with_hk = best(true);
    // Allow 30% noise headroom: the claim is "little impact", not an
    // exact ordering under CI scheduling jitter.
    assert!(
        with_hk <= baseline * 1.3,
        "instrumented ({with_hk:.2} Mps) implausibly faster than baseline ({baseline:.2} Mps)"
    );
    assert!(with_hk > 0.0 && baseline > 0.0);
}
