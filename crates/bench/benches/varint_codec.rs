//! The varint/RLE codec microbench: the per-byte encode and decode
//! cost underneath every dirty frame.
//!
//! A dirty export runs `write_u64` once per changed bucket and
//! `write_bitmap_rle` once per row; the collector pays the mirrored
//! decode on every applied patch. Three value shapes are measured,
//! bracketing the field sizes the codec actually sees:
//!
//! * **small** — counter-sized values (1–2 encoded bytes), the common
//!   case for XOR diffs of low-traffic buckets;
//! * **mixed** — a Zipf-ish spread across all ten length classes;
//! * **bitmaps** — sparse changed-bucket bitmaps at the bench
//!   geometry's row width, where the zero-run RLE does its work.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hk_common::prng::XorShift64;
use hk_common::varint;

const N: usize = 64 * 1024;
/// Row width (in 64-bucket words) matching the `fleet-window` geometry:
/// 4 MiB / 4 epochs, less the 1,200 B top-k store, at 4 accounted bytes
/// per bucket (16-bit fingerprint + 16-bit counter) over 2 rows is
/// 130,922 buckets per row, which is 2,046 words.
const BITMAP_WORDS: usize = 2046;

fn values(shape: &str, seed: u64) -> Vec<u64> {
    let mut rng = XorShift64::new(seed);
    (0..N)
        .map(|_| {
            let r = rng.next_u64_raw();
            match shape {
                "small" => r % 128,
                // Exercise every encoded length 1..=10 uniformly-ish.
                "mixed" => r >> (r % 64),
                _ => unreachable!(),
            }
        })
        .collect()
}

/// A sparse bitmap: roughly one set bit per 16 words, in short bursts —
/// the shape a mostly-quiet epoch diff produces.
fn sparse_bitmap(seed: u64) -> Vec<u64> {
    let mut rng = XorShift64::new(seed);
    let mut words = vec![0u64; BITMAP_WORDS];
    let mut i = 0;
    while i < words.len() {
        i += 8 + (rng.next_u64_raw() % 16) as usize;
        if i < words.len() {
            words[i] = rng.next_u64_raw() | 1;
        }
        i += 1;
    }
    words
}

fn bench_varint(c: &mut Criterion) {
    for shape in ["small", "mixed"] {
        let vals = values(shape, 7);
        let mut encoded = Vec::with_capacity(N * varint::MAX_VARINT_LEN);
        for &v in &vals {
            varint::write_u64(&mut encoded, v);
        }

        let mut g = c.benchmark_group(format!("varint_{shape}"));
        g.throughput(Throughput::Elements(N as u64));
        g.bench_function("encode", |b| {
            let mut out = Vec::with_capacity(encoded.len());
            b.iter(|| {
                out.clear();
                for &v in &vals {
                    varint::write_u64(&mut out, v);
                }
                out.len()
            })
        });
        g.bench_function("decode", |b| {
            b.iter(|| {
                let mut pos = 0;
                let mut sum = 0u64;
                while pos < encoded.len() {
                    sum = sum.wrapping_add(varint::read_u64(&encoded, &mut pos).expect("valid"));
                }
                sum
            })
        });
        g.finish();
    }

    let words = sparse_bitmap(3);
    let mut encoded = Vec::new();
    varint::write_bitmap_rle(&mut encoded, &words);
    let mut g = c.benchmark_group("bitmap_rle");
    g.throughput(Throughput::Elements(BITMAP_WORDS as u64));
    g.bench_function("encode", |b| {
        let mut out = Vec::with_capacity(encoded.len());
        b.iter(|| {
            out.clear();
            varint::write_bitmap_rle(&mut out, &words);
            out.len()
        })
    });
    g.bench_function("decode", |b| {
        let mut out = Vec::with_capacity(BITMAP_WORDS);
        b.iter(|| {
            let mut pos = 0;
            varint::read_bitmap_rle(&encoded, &mut pos, BITMAP_WORDS, &mut out).expect("valid");
            out.len()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_varint
}
criterion_main!(benches);
