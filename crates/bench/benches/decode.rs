//! Criterion micro-benchmarks of the Gorilla block decoders.
//!
//! Compares the word-buffered decoder ([`SealedBlock::iter`]) against the
//! retained bit-at-a-time legacy decoder ([`SealedBlock::reference_iter`])
//! across the workload shapes the store actually sees: steady cadence,
//! NaN bursts, and irregular cadence with timestamp jumps and repeated
//! values. The per-PR number is perfbench's
//! `tsdb.block.decode_ns_per_point`; this harness is for interactive
//! before/after comparisons with criterion's statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use fbd_bench::{decode_fixture, DECODE_SHAPES, DECODE_SIZES};
use fbd_tsdb::SealedBlock;

fn consume_word(block: &SealedBlock) -> u64 {
    let mut acc = 0u64;
    for p in block.iter() {
        acc ^= p.timestamp ^ p.value.to_bits();
    }
    acc
}

fn consume_legacy(block: &SealedBlock) -> u64 {
    let mut acc = 0u64;
    for p in block.reference_iter() {
        acc ^= p.timestamp ^ p.value.to_bits();
    }
    acc
}

fn bench_decoders(c: &mut Criterion) {
    for shape in DECODE_SHAPES {
        let mut group = c.benchmark_group(&format!("decode/{shape}"));
        for n in DECODE_SIZES {
            let block = SealedBlock::from_points(&decode_fixture(shape, n));
            assert_eq!(block.count() as usize, n);
            group.bench_function(&format!("word/{n}"), |b| {
                b.iter(|| consume_word(&block));
            });
            group.bench_function(&format!("legacy/{n}"), |b| {
                b.iter(|| consume_legacy(&block));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_decoders);
criterion_main!(benches);
