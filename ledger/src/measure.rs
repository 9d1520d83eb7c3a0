//! Shared measurement pieces: span accumulators, the per-pass record,
//! the answer digest and order statistics.

use hk_common::key::FlowKey;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Packets per `insert_batch` call in the two ingest workloads.
pub const BATCH: usize = 8192;

/// One span name's total: time spent inside the wrapped calls and how
/// many calls there were. Spans are aggregated in memory as they close
/// and written out once, when the run ends.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    /// Runs `f` inside a span.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Nanoseconds per unit of work (packets, bytes, ...).
    pub fn ns_per(&self, units: u64) -> f64 {
        ratio(self.ns as f64, units as f64)
    }

    /// Mean span length in microseconds.
    pub fn mean_us(&self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.calls as f64)
    }
}

/// Resident memory of this process, from `/proc/self/status` (0 where
/// the file is missing).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmRSS:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<u64>().ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one pass of a workload loop leaves behind: a fresh system under
/// test was built, fed the whole trace in a closed loop, read at fixed
/// packet counts, and torn down.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Building the system under test.
    pub setup_s: f64,
    /// First insert to last answered read.
    pub wall_s: f64,
    pub packets: u64,
    /// Resident memory the process gained from just before set-up to
    /// the end of the pass. Passes that reuse memory the allocator kept
    /// from an earlier pass gain less than their system holds.
    pub mem_bytes: u64,
    /// Latency of every top-k read, in microseconds.
    pub reads_us: Vec<f64>,
    /// Digest of every read's answer (and, for the fleet, every
    /// rotation's export size), in order.
    pub digest: u64,
    /// Operations offered (packets, frames, reads) and how many failed.
    pub attempted: u64,
    pub failed: u64,
}

/// FNV-1a over everything a pass answered.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a top-k answer, in canonical order so that answers
    /// differing only in how ties are broken digest alike.
    pub fn top_k<K: FlowKey>(&mut self, top: Vec<(K, u64)>) {
        let top = canonical(top);
        self.u64(top.len() as u64);
        for (k, c) in &top {
            self.bytes(k.key_bytes().as_slice());
            self.u64(*c);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A top-k answer in one canonical order (count descending, key bytes
/// ascending), so two structures that break ties differently compare.
pub fn canonical<K: FlowKey>(mut top: Vec<(K, u64)>) -> Vec<(K, u64)> {
    top.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| a.0.key_bytes().as_slice().cmp(b.0.key_bytes().as_slice()))
    });
    top
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The named output check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Insertion-outcome rates of the sketches a loop drove (the
/// behaviour counters of the `parallel` and `store` layers).
pub fn insert_stats_layers(s: &heavykeeper::InsertStats, layers: &mut Layers) {
    let kpkt = s.packets as f64 / 1e3;
    layers.insert("parallel.match_rate", s.match_rate());
    layers.insert("parallel.decay_hit_rate", s.decay_hit_rate());
    layers.insert(
        "parallel.replacements_per_kpkt",
        ratio(s.replacements as f64, kpkt),
    );
    layers.insert("parallel.blocked_per_kpkt", ratio(s.blocked as f64, kpkt));
    layers.insert(
        "store.admissions_per_kpkt",
        ratio(s.admissions as f64, kpkt),
    );
    layers.insert(
        "store.admit_rejected_ratio",
        ratio(
            s.admissions_rejected as f64,
            (s.admissions + s.admissions_rejected) as f64,
        ),
    );
}
