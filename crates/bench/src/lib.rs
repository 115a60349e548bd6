//! Shared helpers for the benchmark harness.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! FBDetect paper (see DESIGN.md for the experiment index). These helpers
//! cover the common plumbing: loading labelled series suites into a store,
//! standard scaled-down window configurations, simple ASCII tables, and
//! sparkline rendering for figure-style output.

#![forbid(unsafe_code)]

use fbd_fleet::scenarios::{LabelledSeries, SeriesLabel};
use fbd_tsdb::{MetricKind, SeriesId, TimeSeries, TsdbStore, WindowConfig};
use fbdetect_core::{DetectorConfig, Threshold};

/// Sample cadence used by the scaled-down experiments (seconds).
pub const CADENCE: u64 = 60;

/// The standard scaled-down window split for suite series of length `len`:
/// 2/3 historic, 2/9 analysis, 1/9 extended.
pub fn suite_windows(len: usize) -> WindowConfig {
    let total = len as u64 * CADENCE;
    WindowConfig {
        historic: total * 2 / 3,
        analysis: total * 2 / 9,
        extended: total / 9,
        rerun_interval: total / 9,
    }
}

/// A detector configuration matched to [`suite_windows`].
pub fn suite_config(len: usize, threshold: Threshold) -> DetectorConfig {
    DetectorConfig::new("bench", suite_windows(len), threshold)
}

/// Loads a labelled suite into a fresh default store, whose series seal
/// into Gorilla-compressed blocks. Series are named `s<index>` under the
/// given service, with the given metric kind. Returns the ids in suite
/// order.
pub fn load_suite(
    suite: &[LabelledSeries],
    service: &str,
    metric: MetricKind,
) -> (TsdbStore, Vec<SeriesId>) {
    let store = TsdbStore::new();
    let mut ids = Vec::with_capacity(suite.len());
    for (i, s) in suite.iter().enumerate() {
        let id = SeriesId::new(service, metric, format!("s{i:05}"));
        store.insert_series(id.clone(), TimeSeries::from_values(0, CADENCE, &s.values));
        ids.push(id);
    }
    (store, ids)
}

/// Scan time covering the whole suite (its last timestamp plus one step).
pub fn suite_scan_time(len: usize) -> u64 {
    len as u64 * CADENCE
}

/// Ground-truth index: which suite entries are true regressions.
pub fn true_regression_indices(suite: &[LabelledSeries]) -> Vec<usize> {
    suite
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            matches!(
                s.label,
                SeriesLabel::TrueRegression | SeriesLabel::TrueGradualRegression
            )
        })
        .map(|(i, _)| i)
        .collect()
}

/// Extracts the suite index from an `s<index>` series target.
pub fn suite_index(id: &SeriesId) -> Option<usize> {
    id.target.strip_prefix('s').and_then(|n| n.parse().ok())
}

/// Renders a simple ASCII table: header row plus data rows, columns padded.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&"-".repeat(w + 2));
        sep.push('|');
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// Renders a series as a unicode sparkline (figure-style output).
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    // Downsample to the requested width by bucket means.
    let bucket = (values.len() as f64 / width as f64).max(1.0);
    let mut points = Vec::with_capacity(width);
    let mut i = 0.0;
    while (i as usize) < values.len() && points.len() < width {
        let lo = i as usize;
        let hi = ((i + bucket) as usize).min(values.len()).max(lo + 1);
        points.push(values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64);
        i += bucket;
    }
    let min = points.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = points.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (max - min).max(1e-12);
    points
        .iter()
        .map(|&v| BARS[(((v - min) / range) * 7.0).round() as usize])
        .collect()
}

/// The three decoder workload shapes the `decode` criterion bench runs:
/// steady cadence with smoothly varying finite values (the common case),
/// the same cadence with NaN bursts (fault-window traffic), and irregular
/// cadence with repeated values and timestamp jumps (every delta-of-delta
/// and XOR escape class).
pub const DECODE_SHAPES: [&str; 3] = ["steady", "nan_burst", "irregular"];

/// Block sizes the `decode` criterion bench sweeps: a small partial block,
/// the suite's standard series length, and a large block.
pub const DECODE_SIZES: [usize; 3] = [128, 900, 4096];

/// Deterministic point fixture for the `decode` criterion bench; `shape`
/// is one of [`DECODE_SHAPES`].
pub fn decode_fixture(shape: &str, n: usize) -> Vec<fbd_tsdb::DataPoint> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (n as u64) << 7;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ts = 0u64;
    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        let r = next();
        let (gap, value) = match shape {
            "steady" => (CADENCE, 1.0 + (r % 1000) as f64 / 5000.0),
            "nan_burst" => {
                // Ten-sample NaN runs every fifty samples: roughly the
                // density a faulted host's counters show.
                let v = if i % 50 < 10 {
                    f64::NAN
                } else {
                    1.0 + (r % 1000) as f64 / 5000.0
                };
                (CADENCE, v)
            }
            "irregular" => {
                let gap = match i % 7 {
                    0 => 0,
                    1 => 1,
                    2 => CADENCE,
                    3 => 3_600,
                    4 => 1 << 21,
                    _ => CADENCE + (r % 30),
                };
                // Repeat the previous value a third of the time so the
                // XOR-zero class is exercised alongside wide payloads.
                let v = if i % 3 == 0 {
                    points
                        .last()
                        .map(|p: &fbd_tsdb::DataPoint| p.value)
                        .unwrap_or(1.0)
                } else {
                    f64::from_bits(r)
                };
                (gap, v)
            }
            other => panic!("unknown decode shape {other:?}"),
        };
        ts = ts.saturating_add(if i == 0 { 0 } else { gap });
        points.push(fbd_tsdb::DataPoint::new(ts, value));
    }
    points
}

/// Formats a Table 3 style reduction ("1/x") from counts.
pub fn reduction(change_points: usize, remaining: usize) -> String {
    if remaining == 0 {
        "-".to_string()
    } else {
        format!("1/{:.0}", change_points as f64 / remaining as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_fleet::scenarios::{labelled_suite, SuiteConfig};

    #[test]
    fn suite_roundtrip() {
        let cfg = SuiteConfig {
            clean: 2,
            regressions: 1,
            gradual: 0,
            transients: 0,
            seasonal: 0,
            len: 90,
            ..Default::default()
        };
        let suite = labelled_suite(&cfg, 1).unwrap();
        let (store, ids) = load_suite(&suite, "svc", MetricKind::GCpu);
        assert_eq!(store.series_count(), 3);
        assert_eq!(suite_index(&ids[2]), Some(2));
        assert_eq!(true_regression_indices(&suite), vec![2]);
    }

    #[test]
    fn compressed_suite_store_matches_plain_and_shrinks() {
        let cfg = SuiteConfig {
            clean: 4,
            regressions: 1,
            gradual: 0,
            transients: 1,
            seasonal: 0,
            len: 300,
            ..Default::default()
        };
        let suite = labelled_suite(&cfg, 5).unwrap();
        let (packed, ids) = load_suite(&suite, "svc", MetricKind::GCpu);
        // The model is the suite itself: value `i` sampled at `i * CADENCE`.
        for (id, s) in ids.iter().zip(&suite) {
            let b = packed.get(id).unwrap();
            assert_eq!(b.len(), s.values.len(), "{id:?}");
            for ((i, v), pb) in s.values.iter().enumerate().zip(b.iter()) {
                assert_eq!(pb.timestamp, i as u64 * CADENCE, "{id:?}");
                assert_eq!(pb.value.to_bits(), v.to_bits(), "{id:?}");
            }
        }
        let cs = packed.stats();
        assert_eq!(cs.points(), suite.iter().map(|s| s.values.len()).sum::<usize>());
        assert!(cs.sealed_blocks() > 0);
        assert!(
            cs.bytes_per_point() < 12.0,
            "suite data should compress well below raw: {:.2} B/pt",
            cs.bytes_per_point()
        );
    }

    #[test]
    fn word_decoder_matches_reference_on_every_decode_fixture() {
        let bits = |p: fbd_tsdb::DataPoint| (p.timestamp, p.value.to_bits());
        for shape in DECODE_SHAPES {
            for n in DECODE_SIZES {
                let block = fbd_tsdb::SealedBlock::from_points(&decode_fixture(shape, n));
                assert_eq!(block.count() as usize, n, "{shape}/{n}");
                let word: Vec<(u64, u64)> = block.iter().map(bits).collect();
                let reference: Vec<(u64, u64)> = block.reference_iter().map(bits).collect();
                assert_eq!(word, reference, "{shape}/{n}: decoders diverged");
            }
        }
    }

    #[test]
    fn windows_cover_suite() {
        let cfg = suite_windows(900);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.total_span(), 900 * CADENCE);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.0, 1.0, 1.0], 4);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[], 5), "");
    }

    #[test]
    fn reduction_format() {
        assert_eq!(reduction(1000, 10), "1/100");
        assert_eq!(reduction(1000, 0), "-");
    }
}
