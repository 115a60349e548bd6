//! Store snapshots: serialize a whole store to a compact line-oriented
//! format and restore it.
//!
//! The bench harness and examples generate expensive simulations; snapshots
//! let a generated store be persisted and reloaded without rerunning the
//! simulator. The format is deliberately simple and versioned: one header
//! line, then one line per series (`service\tmetric\ttarget\tt:v,t:v,...`).

use crate::series::TimeSeries;
use crate::store::TsdbStore;
use crate::types::{MetricKind, SeriesId};
use crate::{Result, TsdbError};
use std::io::{BufRead, BufReader, Read, Write};

const HEADER: &str = "fbdetect-tsdb-snapshot v1";

fn metric_from_name(name: &str) -> Option<MetricKind> {
    Some(match name {
        "gcpu" => MetricKind::GCpu,
        "endpoint_cost" => MetricKind::EndpointCost,
        "cpu" => MetricKind::Cpu,
        "memory" => MetricKind::Memory,
        "throughput" => MetricKind::Throughput,
        "latency" => MetricKind::Latency,
        "error_rate" => MetricKind::ErrorRate,
        "coredumps" => MetricKind::CoredumpCount,
        "application" => MetricKind::Application,
        _ => return None,
    })
}

/// Writes a snapshot of the whole store. A series whose `service` or
/// `target` holds a tab or a newline is refused — written verbatim it would
/// shift or split the line's fields and make the whole file unreadable.
pub fn write_snapshot<W: Write>(store: &TsdbStore, mut writer: W) -> Result<()> {
    let failed = |line| move |_| TsdbError::Snapshot { line, reason: "write failed" };
    writeln!(writer, "{HEADER}").map_err(failed(1))?;
    let ids = store.series_ids();
    for (i, id) in ids.iter().enumerate() {
        let line = i + 2;
        let io_err = failed(line);
        if [&id.service, &id.target].iter().any(|s| s.contains(['\t', '\n'])) {
            return Err(TsdbError::Snapshot { line, reason: "tab or newline in series id" });
        }
        store.with_series(id, |series| {
            write!(
                writer,
                "{}\t{}\t{}\t",
                id.service,
                id.metric.name(),
                id.target
            )
            .map_err(io_err)?;
            let mut first = true;
            // Streaming decode: sealed blocks are never materialized.
            for p in series.iter() {
                if !first {
                    write!(writer, ",").map_err(io_err)?;
                }
                first = false;
                write!(writer, "{}:{}", p.timestamp, p.value).map_err(io_err)?;
            }
            writeln!(writer).map_err(io_err)
        })??;
    }
    // A buffered writer dropped unflushed would swallow the last error.
    writer.flush().map_err(failed(ids.len() + 1))
}

/// Reads a snapshot into a fresh store with the default storage policy —
/// the text format carries raw points, so each series re-encodes into
/// sealed blocks through [`TsdbStore::insert_series`]. Every failure is a
/// [`TsdbError::Snapshot`] naming the offending line.
pub fn read_snapshot<R: Read>(reader: R) -> Result<TsdbStore> {
    let mut lines = BufReader::new(reader).lines();
    match lines.next() {
        Some(Ok(header)) if header == HEADER => {}
        Some(Err(_)) => return Err(TsdbError::Snapshot { line: 1, reason: "read failed" }),
        _ => return Err(TsdbError::Snapshot { line: 1, reason: "missing or unknown header" }),
    }
    let store = TsdbStore::new();
    for (i, text) in lines.enumerate() {
        let line = i + 2;
        let err = |reason| TsdbError::Snapshot { line, reason };
        let text = text.map_err(|_| err("read failed"))?;
        if text.is_empty() {
            continue;
        }
        let mut fields = text.splitn(4, '\t');
        let (Some(service), Some(metric), Some(target), Some(points)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(err("field count"));
        };
        let metric = metric_from_name(metric).ok_or(err("unknown metric"))?;
        let mut series = TimeSeries::new();
        if !points.is_empty() {
            for pair in points.split(',') {
                let (t, v) = pair.split_once(':').ok_or(err("bad point"))?;
                let t: u64 = t.parse().map_err(|_| err("bad point"))?;
                let v: f64 = v.parse().map_err(|_| err("bad point"))?;
                series.append(t, v).map_err(|_| err("out-of-order point"))?;
            }
        }
        store.insert_series(SeriesId::new(service, metric, target), series);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataPoint;

    fn demo_store() -> TsdbStore {
        let store = TsdbStore::new();
        store
            .append(&SeriesId::new("svc", MetricKind::GCpu, "foo"), 10, 0.125)
            .unwrap();
        store
            .append(&SeriesId::new("svc", MetricKind::GCpu, "foo"), 20, 0.25)
            .unwrap();
        store
            .append(&SeriesId::new("other", MetricKind::Throughput, ""), 5, 1e6)
            .unwrap();
        store
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = demo_store();
        let mut buf = Vec::new();
        write_snapshot(&store, &mut buf).unwrap();
        let restored = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(restored.series_count(), store.series_count());
        for id in store.series_ids() {
            assert_eq!(restored.get(&id).unwrap(), store.get(&id).unwrap());
        }
    }

    #[test]
    fn roundtrip_preserves_float_precision() {
        let store = TsdbStore::new();
        let id = SeriesId::new("s", MetricKind::GCpu, "x");
        // Values that are not exactly representable in short decimal.
        for (t, v) in [(0u64, 0.1f64), (1, 1.0 / 3.0), (2, 5e-17)] {
            store.append(&id, t, v).unwrap();
        }
        let mut buf = Vec::new();
        write_snapshot(&store, &mut buf).unwrap();
        let restored = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(restored.get(&id).unwrap(), store.get(&id).unwrap());
    }

    #[test]
    fn compressed_store_roundtrips_and_reencodes() {
        let store = TsdbStore::new();
        let id = SeriesId::new("s", MetricKind::GCpu, "x");
        let model: Vec<DataPoint> =
            (0..300u64).map(|t| DataPoint::new(t * 60, (t as f64 * 0.1).sin())).collect();
        for p in &model {
            store.append(&id, p.timestamp, p.value).unwrap();
        }
        let mut buf = Vec::new();
        write_snapshot(&store, &mut buf).unwrap();
        // The text carries the raw points: one line, the model's points.
        let text = String::from_utf8(buf.clone()).unwrap();
        let written: Vec<String> = model.iter().map(|p| format!("{}:{}", p.timestamp, p.value)).collect();
        assert_eq!(text, format!("{HEADER}\ns\tgcpu\tx\t{}\n", written.join(",")));
        // Restoring re-encodes them into sealed blocks of the default size.
        let restored = read_snapshot(buf.as_slice()).unwrap();
        let series = restored.get(&id).unwrap();
        assert_eq!(&*series.points(), &model[..]);
        assert_eq!(series, store.get(&id).unwrap());
        assert_eq!(restored.stats(), store.stats());
        assert_eq!((series.sealed_block_count(), series.head_len()), (2, 300 - 256));
    }

    #[test]
    fn bad_header_rejected() {
        assert!(read_snapshot("nope\n".as_bytes()).is_err());
        assert!(read_snapshot("".as_bytes()).is_err());
    }

    #[test]
    fn malformed_line_rejected() {
        let text = format!("{HEADER}\nsvc\tgcpu\tfoo\tnot-a-point\n");
        assert!(read_snapshot(text.as_bytes()).is_err());
        let text = format!("{HEADER}\nsvc\tnosuchmetric\tfoo\t1:2\n");
        assert!(read_snapshot(text.as_bytes()).is_err());
    }

    #[test]
    fn read_errors_name_the_line_and_the_reason() {
        let at = |text: String| read_snapshot(text.as_bytes()).unwrap_err();
        // The bad point sits on line 3: header, one good series, then it.
        assert_eq!(
            at(format!("{HEADER}\nsvc\tgcpu\tfoo\t1:2\nsvc\tgcpu\tbar\t1:2,x:3\n")),
            TsdbError::Snapshot { line: 3, reason: "bad point" }
        );
        assert_eq!(
            at(format!("{HEADER}\nsvc\tgcpu\tfoo\t5:1,4:1\n")),
            TsdbError::Snapshot { line: 2, reason: "out-of-order point" }
        );
        assert_eq!(
            at(format!("{HEADER}\n\nsvc\tgcpu\tfoo\n")),
            TsdbError::Snapshot { line: 3, reason: "field count" }
        );
        assert_eq!(
            at(format!("{HEADER}\nsvc\tnosuchmetric\tfoo\t1:2\n")),
            TsdbError::Snapshot { line: 2, reason: "unknown metric" }
        );
        for text in ["nope\n", ""] {
            assert_eq!(
                at(text.to_string()),
                TsdbError::Snapshot { line: 1, reason: "missing or unknown header" }
            );
        }
        assert_eq!(
            at(format!("{HEADER}\nsvc\tgcpu\tfoo\tnot-a-point\n")).to_string(),
            "snapshot line 2: bad point"
        );
    }

    /// The writer's error for the demo store plus one series with the
    /// given id parts.
    fn refused(service: &str, target: &str) -> TsdbError {
        let store = demo_store();
        store.append(&SeriesId::new(service, MetricKind::GCpu, target), 1, 1.0).unwrap();
        write_snapshot(&store, Vec::new()).unwrap_err()
    }

    #[test]
    fn tab_in_service_is_refused_by_the_writer() {
        // Ids sort as ("other", ""), ("s\tvc", "foo"), ("svc", "foo"):
        // the offender would have been line 3.
        assert_eq!(
            refused("s\tvc", "foo"),
            TsdbError::Snapshot { line: 3, reason: "tab or newline in series id" }
        );
    }

    #[test]
    fn newline_in_target_is_refused_by_the_writer() {
        assert_eq!(
            refused("svc", "fo\no"),
            TsdbError::Snapshot { line: 3, reason: "tab or newline in series id" }
        );
    }

    #[test]
    fn write_failure_is_a_snapshot_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert_eq!(
            write_snapshot(&demo_store(), Full),
            Err(TsdbError::Snapshot { line: 1, reason: "write failed" })
        );
    }

    #[test]
    fn all_metric_kinds_roundtrip() {
        use MetricKind::*;
        let store = TsdbStore::new();
        for (i, m) in [
            GCpu,
            EndpointCost,
            Cpu,
            Memory,
            Throughput,
            Latency,
            ErrorRate,
            CoredumpCount,
            Application,
        ]
        .into_iter()
        .enumerate()
        {
            store
                .append(&SeriesId::new("s", m, format!("t{i}")), 0, i as f64)
                .unwrap();
        }
        let mut buf = Vec::new();
        write_snapshot(&store, &mut buf).unwrap();
        let restored = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(restored.series_count(), 9);
    }

    #[test]
    fn empty_store_roundtrips() {
        let mut buf = Vec::new();
        write_snapshot(&TsdbStore::new(), &mut buf).unwrap();
        let restored = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(restored.series_count(), 0);
    }
}
