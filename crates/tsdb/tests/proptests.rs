//! Property-based tests for the time-series store.

use fbd_tsdb::aggregate::{aligned_mean, mean_of_series};
use fbd_tsdb::block::SUMMARY_BYTES;
use fbd_tsdb::window::{extract_windows, WindowConfig};
use fbd_tsdb::{
    BlockBuilder, DataPoint, MetricKind, SealedBlock, SeriesDelta, SeriesId, StoreConfig, TimeRuns,
    TimeSeries, TsdbStore,
};
use proptest::prelude::*;

fn values(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e9f64..1e9, min_len..max_len)
}

/// Any f64 bit pattern, weighted toward the special cases the Gorilla
/// codec must preserve bit-exactly: NaN (any payload), signed zeros,
/// infinities, and arbitrary bit soup.
fn wild_value() -> impl Strategy<Value = f64> {
    (any::<u8>(), any::<u64>(), -1e12f64..1e12).prop_map(|(sel, bits, finite)| match sel % 8 {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 | 6 => f64::from_bits(bits),
        _ => finite,
    })
}

/// Timestamp/value pairs with irregular cadence: steady gaps, duplicates
/// (gap 0), and occasional huge jumps that force the codec's raw 64-bit
/// delta-of-delta escape. Timestamps are non-decreasing (capped, no wrap)
/// to match what `TimeSeries::append` admits.
fn wild_points(max_len: usize) -> impl Strategy<Value = Vec<DataPoint>> {
    prop::collection::vec((0u64..5_000, any::<u8>(), wild_value()), 0..max_len).prop_map(|raw| {
        let mut ts = 0u64;
        raw.into_iter()
            .map(|(gap, kind, value)| {
                let gap = match kind % 7 {
                    0 => 0,               // duplicate timestamp
                    1 => gap << 20,       // jump past every small dod class
                    2 => 60,              // steady cadence -> dod == 0 runs
                    _ => gap,
                };
                ts = ts.saturating_add(gap);
                DataPoint::new(ts, value)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn from_values_roundtrip(vals in values(1, 200), start in 0u64..1_000, step in 1u64..100) {
        let s = TimeSeries::from_values(start, step, &vals);
        prop_assert_eq!(s.len(), vals.len());
        prop_assert_eq!(s.values(), vals.clone());
        prop_assert_eq!(s.first_timestamp(), Some(start));
        prop_assert_eq!(
            s.last_timestamp(),
            Some(start + (vals.len() as u64 - 1) * step)
        );
    }

    #[test]
    fn range_returns_only_in_bounds(vals in values(1, 100), lo in 0u64..200, span in 1u64..200) {
        let s = TimeSeries::from_values(0, 2, &vals);
        let points = s.range(lo, lo + span).unwrap();
        prop_assert!(points.iter().all(|p| p.timestamp >= lo && p.timestamp < lo + span));
    }

    #[test]
    fn expire_then_len_consistent(vals in values(1, 100), cutoff in 0u64..300) {
        let mut s = TimeSeries::from_values(0, 3, &vals);
        let before = s.len();
        let removed = s.expire_before(cutoff);
        prop_assert_eq!(before, s.len() + removed);
        prop_assert!(s.points().iter().all(|p| p.timestamp >= cutoff));
    }

    #[test]
    fn downsample_preserves_mean(vals in values(4, 200), bucket in 1u64..50) {
        let s = TimeSeries::from_values(0, 1, &vals);
        let d = s.downsample(bucket).unwrap();
        // Weighted mean of bucket means equals the overall mean.
        let original_mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for p in d.points().iter() {
            let bucket_n = s
                .range(p.timestamp, p.timestamp + bucket)
                .unwrap()
                .len() as f64;
            weighted += p.value * bucket_n;
            weight += bucket_n;
        }
        let scale = vals.iter().map(|v| v.abs()).fold(1.0, f64::max);
        prop_assert!((weighted / weight - original_mean).abs() < 1e-9 * scale);
    }

    #[test]
    fn windows_partition_counts(
        historic in 10u64..100,
        analysis in 5u64..50,
        extended in 0u64..30,
    ) {
        let total = historic + analysis + extended;
        let vals: Vec<f64> = (0..total).map(|i| i as f64).collect();
        let s = TimeSeries::from_values(0, 1, &vals);
        let cfg = WindowConfig { historic, analysis, extended, rerun_interval: 1 };
        let w = extract_windows(&s, &cfg, total).unwrap();
        prop_assert_eq!(w.historic_len() as u64, historic);
        prop_assert_eq!(w.analysis_len() as u64, analysis);
        prop_assert_eq!(w.extended_len() as u64, extended);
        prop_assert_eq!(w.all().len() as u64, total);
    }

    #[test]
    fn store_roundtrips_series(vals in values(1, 50), target in "[a-z]{1,8}") {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, target);
        store.insert_series(id.clone(), TimeSeries::from_values(0, 1, &vals));
        prop_assert_eq!(store.get(&id).unwrap().values(), vals);
        prop_assert!(store.contains(&id));
        prop_assert_eq!(store.series_count(), 1);
    }

    #[test]
    fn mean_of_series_bounded(
        rows in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 5), 1..10)
    ) {
        let mean = mean_of_series(&rows).unwrap();
        for (i, m) in mean.iter().enumerate() {
            let col: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            let lo = col.iter().cloned().fold(f64::MAX, f64::min);
            let hi = col.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(*m >= lo - 1e-9 && *m <= hi + 1e-9);
        }
    }

    #[test]
    fn aligned_mean_of_identical_series_is_identity(vals in values(4, 60)) {
        let a = TimeSeries::from_values(0, 1, &vals);
        let b = TimeSeries::from_values(0, 1, &vals);
        let m = aligned_mean(&[a, b], 2).unwrap();
        // Every bucket mean equals the per-series bucket mean.
        let d = TimeSeries::from_values(0, 1, &vals).downsample(2).unwrap();
        prop_assert_eq!(m.values(), d.values());
    }

    // --- Gorilla compressed blocks ---

    #[test]
    fn compressed_block_roundtrip_is_bit_exact(points in wild_points(400)) {
        let block = SealedBlock::from_points(&points);
        prop_assert_eq!(block.count() as usize, points.len());
        let decoded = block.to_points();
        prop_assert_eq!(decoded.len(), points.len());
        for (got, want) in decoded.iter().zip(&points) {
            prop_assert_eq!(got.timestamp, want.timestamp);
            // to_bits: NaN payloads and -0.0 must survive exactly.
            prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
        }
        if let (Some(first), Some(last)) = (points.first(), points.last()) {
            prop_assert_eq!(block.first_timestamp(), first.timestamp);
            prop_assert_eq!(block.last_timestamp(), last.timestamp);
        }
    }

    #[test]
    fn seal_time_summary_matches_full_decode(points in wild_points(400)) {
        // The header recorded at seal time — count, first and last
        // timestamp — must be what a full decode of the payload yields.
        let block = SealedBlock::from_points(&points);
        let decoded = block.to_points();
        prop_assert_eq!(decoded.len(), points.len());
        prop_assert_eq!(block.count() as usize, decoded.len());
        if let (Some(first), Some(last)) = (decoded.first(), decoded.last()) {
            prop_assert_eq!(block.first_timestamp(), first.timestamp);
            prop_assert_eq!(block.last_timestamp(), last.timestamp);
        }
    }

    #[test]
    fn word_decoder_matches_legacy_on_corrupt_tails(
        points in wild_points(200),
        cut_frac in 0.0f64..1.0,
        flip_sel in 0u8..4,
        flip_pos in any::<usize>(),
        flip_bit in 0u8..8,
        start_sel in any::<u64>(),
    ) {
        let block = SealedBlock::from_points(&points);
        let mut bytes = block.payload().to_vec();
        // Truncate somewhere inside the payload, then (three cases in
        // four) flip one bit of what is left, while still claiming the
        // original count: the decoders must agree point-for-point and
        // both stop cleanly.
        bytes.truncate((bytes.len() as f64 * cut_frac) as usize);
        if flip_sel > 0 && !bytes.is_empty() {
            let pos = flip_pos % bytes.len();
            bytes[pos] ^= 1 << flip_bit;
        }
        let corrupt = SealedBlock::from_raw_parts(bytes, block.count());
        let word: Vec<(u64, u64)> = corrupt
            .iter()
            .map(|p| (p.timestamp, p.value.to_bits()))
            .collect();
        let legacy: Vec<(u64, u64)> = corrupt
            .reference_iter()
            .map(|p| (p.timestamp, p.value.to_bits()))
            .collect();
        prop_assert_eq!(&word, &legacy);
        // The column decoder stops exactly where they stop, from any start
        // (garbage timestamps included: its arithmetic wraps like theirs).
        let starts = [0, start_sel, word.get(word.len() / 2).map_or(1, |p| p.0), u64::MAX];
        for start in starts {
            let mut times = TimeRuns::new();
            let mut values = Vec::new();
            corrupt.decode_columns(start, &mut times, &mut values);
            let columns: Vec<(u64, u64)> = values
                .iter()
                .enumerate()
                .map(|(i, v)| (times.get(i as u64).unwrap(), v.to_bits()))
                .collect();
            let want: Vec<(u64, u64)> =
                word.iter().copied().skip_while(|p| p.0 < start).collect();
            prop_assert_eq!(times.len(), values.len());
            prop_assert_eq!(columns, want, "start {}", start);
        }
    }

    #[test]
    fn time_runs_match_a_timestamp_vector(
        points in wild_points(300),
        extremes in any::<bool>(),
        trims in prop::collection::vec((0usize..300, 0usize..40), 0..4),
        probes in prop::collection::vec(any::<u64>(), 8),
    ) {
        // Duplicates, changing gaps and huge jumps come from `wild_points`;
        // `extremes` pushes the whole sequence against `u64::MAX`. After
        // every trim-then-append step the runs must answer exactly what
        // the plain timestamp vector answers.
        let mut ts: Vec<u64> = points.iter().map(|p| p.timestamp).collect();
        if extremes {
            let shift = u64::MAX - ts.last().copied().unwrap_or(0);
            ts.iter_mut().for_each(|t| *t += shift);
        }
        let mut runs = TimeRuns::new();
        let mut fed = 0usize;
        let mut first = 0usize;
        let mut steps: Vec<(usize, usize)> = trims.clone();
        steps.push((0, ts.len()));
        for (trim_to, feed) in steps {
            first = first.max(trim_to.min(fed));
            runs.trim(first as u64);
            for &t in &ts[fed..(fed + feed).min(ts.len())] {
                runs.push(t);
            }
            fed = (fed + feed).min(ts.len());
            let live = &ts[first..fed];
            prop_assert_eq!((runs.first_index(), runs.end_index()), (first as u64, fed as u64));
            prop_assert_eq!(runs.last(), live.last().copied());
            for (i, &t) in live.iter().enumerate() {
                prop_assert_eq!(runs.get((first + i) as u64), Some(t));
            }
            let around = live.iter().flat_map(|&t| [t.saturating_sub(1), t, t.saturating_add(1)]);
            for t in around.chain(probes.iter().copied()) {
                let want = first + live.partition_point(|&p| p < t);
                prop_assert_eq!(runs.partition_point(t), want as u64, "partition at {}", t);
            }
            for &(a, b) in &[(0usize, fed), (first, fed), (first + live.len() / 3, fed - live.len() / 4)] {
                let want = (a.max(first + 1)..b).map(|j| ts[j] - ts[j - 1]).filter(|&g| g > 0).min();
                prop_assert_eq!(runs.min_gap(a as u64, b as u64), want, "min_gap [{}, {})", a, b);
            }
        }
    }

    #[test]
    fn reset_columns_match_the_range_copy(
        points in wild_points(300),
        seal_limit in 1u32..40,
        start_sel in any::<u64>(),
    ) {
        // What a Reset hands the engine (columns decoded straight from the
        // sealed blocks) is what the point-wise read returns from `start`
        // onward, for any representation and any start — including starts
        // inside a block and past the last point.
        let mut series = TimeSeries::with_seal_limit(seal_limit);
        for p in &points {
            series.append(p.timestamp, p.value).unwrap();
        }
        let last = points.last().map_or(0, |p| p.timestamp);
        for start in [0, start_sel % (last + 2), last, last + 1] {
            let columns = series.columns_from(start);
            let want: Vec<(u64, u64)> = series
                .iter()
                .filter(|p| p.timestamp >= start)
                .map(|p| (p.timestamp, p.value.to_bits()))
                .collect();
            let got: Vec<(u64, u64)> = columns
                .values
                .iter()
                .enumerate()
                .map(|(i, v)| (columns.times.get(i as u64).unwrap(), v.to_bits()))
                .collect();
            prop_assert_eq!(columns.times.len(), columns.values.len());
            prop_assert_eq!(got, want, "start {}", start);
            // Run structure is canonical: the same timestamps pushed one by
            // one build the same runs the decoder's repeat shortcut builds.
            let mut pushed = TimeRuns::new();
            for p in series.iter().filter(|p| p.timestamp >= start) {
                pushed.push(p.timestamp);
            }
            prop_assert_eq!(&columns.times, &pushed);
        }
    }

    #[test]
    fn compressed_series_reads_match_uncompressed(
        points in wild_points(300),
        seal_limit in 1u32..64,
        lo in 0u64..10_000,
        span in 1u64..1_000_000,
        tail in 0usize..350,
    ) {
        // The model is the appended points themselves, as a plain vector.
        let mut packed = TimeSeries::with_seal_limit(seal_limit);
        for p in &points {
            packed.append(p.timestamp, p.value).unwrap();
        }
        let n = points.len();
        prop_assert_eq!(packed.len(), n);
        prop_assert_eq!((packed.version(), packed.appended()), (n as u64, n as u64));
        // Bit-exact full reads (PartialEq would fail on NaN, so compare bits).
        let bits = |ps: &[DataPoint]| -> Vec<(u64, u64)> {
            ps.iter().map(|p| (p.timestamp, p.value.to_bits())).collect()
        };
        let cv: Vec<(u64, u64)> = packed.iter().map(|p| (p.timestamp, p.value.to_bits())).collect();
        prop_assert_eq!(cv, bits(&points));
        // Range and tail reads agree.
        let hi = lo.saturating_add(span);
        let in_range: Vec<DataPoint> =
            points.iter().filter(|p| p.timestamp >= lo && p.timestamp < hi).copied().collect();
        prop_assert_eq!(bits(&packed.range_to_vec(lo, hi)), bits(&in_range));
        prop_assert_eq!(bits(&packed.tail_to_vec(tail)), bits(&points[n - tail.min(n)..]));
        // Full runs are sealed; the head holds the rest at 16 bytes a point.
        let limit = seal_limit as usize;
        prop_assert_eq!((packed.sealed_block_count(), packed.head_len()), (n / limit, n % limit));
        prop_assert_eq!(
            packed.resident_bytes(),
            packed.head_len() * 16 + packed.sealed_bytes() + packed.sealed_block_count() * SUMMARY_BYTES
        );
    }

    #[test]
    fn append_stride_detection_survives_seals(
        chunks in prop::collection::vec(1usize..20, 1..10),
        seal_limit in 1u32..33,
    ) {
        let cfg = WindowConfig {
            historic: 1_000_000,
            analysis: 500_000,
            extended: 0,
            rerun_interval: 60,
        };
        let store = TsdbStore::with_config(StoreConfig {
            seal_limit,
            shard_budget_bytes: None,
        });
        let id = SeriesId::new("svc", MetricKind::GCpu, "s");
        let mut t = 0u64;
        let mut known = None;
        let mut total = 0usize;
        for (i, chunk) in chunks.iter().enumerate() {
            let first_new = t;
            for _ in 0..*chunk {
                store.append(&id, t * 60, (t as f64).sin()).unwrap();
                t += 1;
            }
            total += chunk;
            let deltas = store.snapshot_deltas(&[&id], &[known], &cfg, t * 60);
            match &deltas[0] {
                SeriesDelta::Reset { version, columns } if i == 0 => {
                    // First observation: full copy.
                    prop_assert_eq!((columns.values.len(), columns.times.len()), (total, total));
                    known = Some(*version);
                }
                SeriesDelta::Appended { version, tail } => {
                    // Sealing between observations must not break the
                    // append-only classification or the tail contents.
                    prop_assert_eq!(tail.len(), *chunk);
                    prop_assert_eq!(tail[0].timestamp, first_new * 60);
                    prop_assert_eq!(tail[tail.len() - 1].timestamp, (t - 1) * 60);
                    known = Some(*version);
                }
                other => panic!("chunk {i}: unexpected delta {other:?}"),
            }
        }
        prop_assert_eq!(store.get(&id).unwrap().len(), total);
    }
}

/// Corrupt-payload regression: the "reuse previous window" control bit set
/// on the first XOR record, before any leading/length window exists. A
/// zero-length window is a zero-bit read and a 64-bit shift, which the two
/// readers used to resolve differently; both decoders must stop at the
/// record, having read the same points.
#[test]
fn reuse_window_control_bit_set_before_any_window_exists() {
    let mut b = BlockBuilder::new();
    b.push(DataPoint { timestamp: 0, value: 1.0 });
    b.push(DataPoint { timestamp: 60, value: 2.0 });
    let block = b.seal();
    let mut bytes = block.payload().to_vec();
    // Bit 138 is the second control bit of the first value record:
    // '11' (fresh window) -> '10' (reuse) with no window ever set.
    bytes[17] ^= 1 << 5;
    let corrupt = SealedBlock::from_raw_parts(bytes, block.count());
    let word: Vec<(u64, u64)> = corrupt.iter().map(|p| (p.timestamp, p.value.to_bits())).collect();
    let legacy: Vec<(u64, u64)> =
        corrupt.reference_iter().map(|p| (p.timestamp, p.value.to_bits())).collect();
    assert_eq!(word, legacy);
    assert_eq!(word, [(0, 1.0f64.to_bits())]);
}
