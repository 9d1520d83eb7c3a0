//! Standalone probes of layers whose cost no loop span can isolate:
//! the bucket-line touch pass and the SPSC ring handoff. Their time is
//! left out of the span sum that `leftover_frac` reconciles.

use crate::measure::{Acc, BATCH};
use heavykeeper::spsc::{PushError, SpscRing};
use heavykeeper::HkSketch;
use hk_common::key::FlowKey;
use hk_common::prepared::PreparedBatch;
use std::hint::spin_loop;
use std::time::Instant;

/// Pre-touch block of the batched walk (`sketch::TOUCH_BLOCK`).
const TOUCH_BLOCK: usize = 64;

/// Nanoseconds per packet of `HkSketch::touch_batch` over `trace`, on
/// a sketch already filled by a loop (so its lines are realistic). The
/// batches are prepared outside the span.
pub fn touch_ns_per_pkt<K: FlowKey>(sketch: &HkSketch, trace: &[K]) -> f64 {
    let mut batch = PreparedBatch::new();
    let mut touch = Acc::default();
    for chunk in trace.chunks(BATCH) {
        sketch.prepare_batch(chunk, &mut batch);
        touch.time(|| {
            let mut idx = 0;
            while idx < chunk.len() {
                let end = (idx + TOUCH_BLOCK).min(chunk.len());
                sketch.touch_batch(&batch, idx..end);
                idx = end;
            }
        });
    }
    touch.ns_per(trace.len() as u64)
}

/// Work-ring depth and return-ring depth of the sharded engine.
const WORK_RING: usize = 8;
const RETURN_RING: usize = WORK_RING + 2;

/// Two threads pass `handoffs` sub-batch-sized buffers over a work ring
/// and hand each back over a return ring, as dispatcher and worker do.
/// Returns the wall time per handoff in nanoseconds and the share of
/// push attempts refused because the work ring was full.
pub fn spsc(handoffs: u64) -> (f64, f64) {
    let work: SpscRing<Vec<u64>> = SpscRing::new(WORK_RING);
    let ret: SpscRing<Vec<u64>> = SpscRing::new(RETURN_RING);
    let mut full = 0u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| loop {
            match work.try_pop() {
                Some(mut buf) => loop {
                    match ret.try_push(buf) {
                        Ok(()) => break,
                        Err(e) => {
                            buf = e.into_inner();
                            spin_loop();
                        }
                    }
                },
                // Pushes happen before the close, so an empty ring seen
                // after the close stays empty.
                None if work.is_closed() && work.is_empty() => break,
                None => spin_loop(),
            }
        });
        for _ in 0..handoffs {
            let mut buf = ret.try_pop().unwrap_or_else(|| vec![0u64; BATCH]);
            loop {
                match work.try_push(buf) {
                    Ok(()) => break,
                    Err(PushError::Full(b)) => {
                        full += 1;
                        buf = b;
                        spin_loop();
                    }
                    Err(PushError::Closed(_)) => unreachable!("only this thread closes the ring"),
                }
            }
        }
        work.close();
    });
    let ns = start.elapsed().as_nanos() as f64 / handoffs as f64;
    (ns, full as f64 / (full + handoffs) as f64)
}
