//! Property-based tests for the ingest front-end.
//!
//! The two load-bearing properties:
//!
//! 1. **Determinism**: the threaded pipeline, fed any batch sequence via
//!    blocking `submit`, produces byte-identical store contents and
//!    identical stats to the single-threaded [`reference_ingest`] oracle —
//!    regardless of queue depth or appender count.
//! 2. **No silent loss**: under arbitrary interleavings of valid, faulty,
//!    and corrupted batches, quota exhaustion, and load-shedding ingress,
//!    the pipeline never panics and every submitted point lands in the
//!    store or in exactly one counted loss bucket.

use bytes::Bytes;
use fbd_ingest::pipeline::{reference_ingest, IngestConfig, IngestPipeline};
use fbd_ingest::quota::QuotaConfig;
use fbd_ingest::wire::{decode_batch, encode_batch, SampleBatch};
use fbd_tsdb::{MetricKind, SeriesId, StoreConfig, TsdbStore};
use fbdetect_core::quarantine::{Quarantine, QuarantineConfig};
use fbd_sync::{LockDomain, OrderedMutex};
use proptest::prelude::*;
use std::sync::Arc;

fn sid(n: u8) -> SeriesId {
    SeriesId::new("svc", MetricKind::GCpu, format!("s{n}"))
}

/// `(tenant, collected_at, points)` where each point is
/// `(series, timestamp, value-class)`.
type BatchSpec = (u8, u64, Vec<(u8, u64, u8)>);

fn value_of(class: u8, ts: u64) -> f64 {
    match class % 5 {
        0 | 1 => 1.0 + (ts % 97) as f64 * 1e-3,
        2 => 4.25, // a repeating constant: feeds the stuck detector
        3 => f64::NAN,
        _ => f64::INFINITY,
    }
}

fn build(spec: &BatchSpec) -> Bytes {
    let (tenant, collected_at, points) = spec;
    let mut batch = SampleBatch::new(format!("t{}", tenant % 3), *collected_at);
    for (series, ts, class) in points {
        let pushed = batch.push(&sid(series % 4), *ts, value_of(*class, *ts));
        assert!(pushed.is_ok(), "a generated sample must fit its batch");
    }
    let Ok(raw) = encode_batch(&batch) else {
        panic!("a generated batch must encode");
    };
    raw
}

fn batch_strategy() -> impl Strategy<Value = BatchSpec> {
    (
        any::<u8>(),
        0u64..8_000,
        prop::collection::vec((any::<u8>(), 0u64..8_000, any::<u8>()), 0..40),
    )
}

/// Per series: id, version and append counters, and every point as
/// `(timestamp, value bits)`.
type Fingerprint = Vec<(SeriesId, u64, u64, Vec<(u64, u64)>)>;

/// A stable fingerprint of the full store contents: series ids in order,
/// their version/append counters, and every point down to the value bits.
fn fingerprint(store: &TsdbStore) -> Fingerprint {
    let mut ids = store.series_ids();
    ids.sort();
    ids.into_iter()
        .map(|id| {
            let Ok(s) = store.get(&id) else {
                panic!("listed series {id:?} must be readable");
            };
            let points = s
                .points()
                .iter()
                .map(|p| (p.timestamp, p.value.to_bits()))
                .collect();
            (id, s.version(), s.appended(), points)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threaded_pipeline_matches_reference(
        specs in prop::collection::vec(batch_strategy(), 0..20),
        depth in 1usize..8,
        appenders in 1usize..4,
    ) {
        let batches: Vec<Bytes> = specs.iter().map(build).collect();
        let config = IngestConfig {
            queue_depth: depth,
            appenders,
            // A quota tight enough that some runs exercise denial.
            quota: QuotaConfig { burst: 300, points_per_sec: 20 },
            ..IngestConfig::default()
        };

        let threaded_store = Arc::new(TsdbStore::new());
        let pipeline = IngestPipeline::new(Arc::clone(&threaded_store), config);
        for raw in &batches {
            pipeline.submit(raw.clone()).unwrap();
        }
        let threaded = pipeline.finish();

        let reference_store = TsdbStore::new();
        let quarantine = OrderedMutex::new(
            LockDomain::Quarantine,
            Quarantine::new(QuarantineConfig::default(), 500),
        );
        let reference = reference_ingest(&reference_store, &batches, config, &quarantine);

        prop_assert!(threaded.is_accounted(), "{threaded:?}");
        prop_assert_eq!(&threaded, &reference);
        prop_assert_eq!(fingerprint(&threaded_store), fingerprint(&reference_store));
    }

    #[test]
    fn chaotic_input_never_panics_and_accounts_every_point(
        specs in prop::collection::vec(
            (batch_strategy(), any::<u8>(), (any::<bool>(), any::<u16>(), any::<u8>())),
            0..24,
        ),
        depth in 1usize..4,
    ) {
        let config = IngestConfig {
            queue_depth: depth,
            appenders: 2,
            quota: QuotaConfig { burst: 200, points_per_sec: 10 },
            ..IngestConfig::default()
        };
        let store = Arc::new(TsdbStore::new());
        let pipeline = IngestPipeline::new(Arc::clone(&store), config);
        for (spec, mode, (corrupt, pos, flip)) in &specs {
            let mut raw = build(spec).to_vec();
            if *corrupt {
                // Corrupt one byte anywhere in the frame (header, dict,
                // or payload): the pipeline must survive whatever decodes.
                let at = *pos as usize % raw.len().max(1);
                if let Some(byte) = raw.get_mut(at) {
                    *byte ^= flip | 1;
                }
            }
            let raw = Bytes::from(raw);
            // Interleave backpressure submits with load-shedding ones.
            if mode % 2 == 0 {
                pipeline.submit(raw).unwrap();
            } else {
                pipeline.submit_or_shed(raw).unwrap();
            }
        }
        let stats = pipeline.finish();
        prop_assert!(stats.is_accounted(), "{stats:?}");
        // The store holds exactly the points the stats claim it does.
        let stored: u64 = store
            .series_ids()
            .iter()
            .map(|id| store.get(id).map(|s| s.len() as u64).unwrap_or(0))
            .sum();
        prop_assert_eq!(stored, stats.points_appended);
        // Decode failures surface as counted errors, never as lost points.
        prop_assert!(stats.points_appended <= stats.points_submitted);
    }

    #[test]
    fn compressed_store_ingest_matches_plain(
        specs in prop::collection::vec(batch_strategy(), 0..20),
        seal_limit in 1u32..32,
    ) {
        // The full front-end — wire decode, validation, quota, sharded
        // appenders — writing through Gorilla-compressed series heads must
        // admit, shed, and store exactly what it does over plain storage:
        // identical stats and bit-identical store contents, while the
        // compressed store's incremental memory accounting stays honest.
        let config = IngestConfig {
            queue_depth: 4,
            appenders: 2,
            quota: QuotaConfig { burst: u64::MAX / 2, points_per_sec: 0 },
            ..IngestConfig::default()
        };
        let batches: Vec<Bytes> = specs.iter().map(build).collect();
        let plain_store = Arc::new(TsdbStore::new());
        let plain_pipe = IngestPipeline::new(Arc::clone(&plain_store), config);
        let packed_store = Arc::new(TsdbStore::with_config(StoreConfig {
            seal_limit,
            shard_budget_bytes: None,
        }));
        let packed_pipe = IngestPipeline::new(Arc::clone(&packed_store), config);
        for raw in &batches {
            plain_pipe.submit(raw.clone()).unwrap();
            packed_pipe.submit(raw.clone()).unwrap();
        }
        let plain_stats = plain_pipe.finish();
        let packed_stats = packed_pipe.finish();
        prop_assert!(packed_stats.is_accounted(), "{packed_stats:?}");
        prop_assert_eq!(&plain_stats, &packed_stats);
        prop_assert_eq!(fingerprint(&plain_store), fingerprint(&packed_store));
        // The O(1)-maintained resident counter matches a full recount.
        let recount: usize = packed_store
            .series_ids()
            .iter()
            .map(|id| packed_store.get(id).map(|s| s.resident_bytes()).unwrap_or(0))
            .sum();
        prop_assert_eq!(packed_store.stats().resident_bytes(), recount);
        // Any series that outgrew its head must actually have sealed.
        let grew = packed_store
            .series_ids()
            .iter()
            .any(|id| packed_store.get(id).map(|s| s.len()).unwrap_or(0) >= seal_limit as usize);
        if grew {
            prop_assert!(packed_store.stats().sealed_blocks() > 0);
        }
    }

    #[test]
    fn wire_roundtrip_is_exact(spec in batch_strategy()) {
        let (tenant, collected_at, points) = &spec;
        let mut batch = SampleBatch::new(format!("t{}", tenant % 3), *collected_at);
        for (series, ts, class) in points {
            batch.push(&sid(series % 4), *ts, value_of(*class, *ts)).unwrap();
        }
        let encoded = encode_batch(&batch).unwrap();
        let decoded = decode_batch(&encoded).unwrap();
        // Compare down to the value bits: NaN payloads must survive the
        // wire exactly, which `f64::eq` cannot express.
        prop_assert_eq!(&decoded.tenant, &batch.tenant);
        prop_assert_eq!(decoded.collected_at, batch.collected_at);
        prop_assert_eq!(decoded.series(), batch.series());
        let bits = |b: &SampleBatch| -> Vec<(u16, u64, u64)> {
            b.points()
                .iter()
                .map(|p| (p.series, p.timestamp, p.value.to_bits()))
                .collect()
        };
        prop_assert_eq!(bits(&decoded), bits(&batch));
    }
}
