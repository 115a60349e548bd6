//! Compact wire format for ingest batches.
//!
//! Collectors ship `(tenant, series, timestamp, value)` samples as binary
//! batches. The layout is dictionary-compressed: each batch carries its
//! series ids once, and every point references one by index, so a batch of
//! `n` points from `s` series costs `18n + O(s)` bytes instead of
//! re-serializing the id per point. All integers are big-endian; values
//! travel as raw IEEE-754 bits, so NaN payloads survive the round trip
//! bit-for-bit (the validator, not the codec, decides what NaN means).
//!
//! Layout (version 1):
//!
//! ```text
//! magic        4  b"FBDW"
//! version      1  = 1
//! collected_at 8  simulated collection time of the batch
//! point_count  4  at a fixed offset, so shedding can account for a
//!                 batch's points without decoding it (`peek_point_count`)
//! tenant       2 + len
//! series_count 2
//!   service    2 + len   ┐
//!   metric     1         │ per dictionary entry
//!   target     2 + len   ┘
//! points       18 × point_count: series index 2, timestamp 8, value bits 8
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use fbd_tsdb::{MetricKind, SeriesId, Timestamp};
use std::collections::BTreeMap;
use std::fmt;

/// Batch magic: "FBDW" (FBDetect Wire).
pub const MAGIC: [u8; 4] = *b"FBDW";
/// Current wire version.
pub const VERSION: u8 = 1;
/// Byte offset of the `point_count` header field.
const POINT_COUNT_OFFSET: usize = 13;
/// Encoded size of one point.
const POINT_SIZE: usize = 18;

/// Decode (and encode-limit) failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The version byte is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The buffer ends before the declared content does.
    Truncated,
    /// Bytes remain after the declared content.
    TrailingBytes,
    /// An unknown metric code in the series dictionary.
    BadMetricCode(u8),
    /// A non-UTF-8 tenant, service, or target string.
    BadUtf8,
    /// A point references a series index outside the dictionary.
    BadSeriesIndex(u16),
    /// More distinct series than the `u16` dictionary can index.
    TooManySeries,
    /// More points than the `u32` count field can carry.
    TooManyPoints,
    /// A string field longer than its `u16` length prefix allows.
    StringTooLong,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (not an FBDW batch)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated => write!(f, "batch truncated"),
            WireError::TrailingBytes => write!(f, "trailing bytes after batch content"),
            WireError::BadMetricCode(c) => write!(f, "unknown metric code {c}"),
            WireError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            WireError::BadSeriesIndex(i) => write!(f, "point references series index {i} outside dictionary"),
            WireError::TooManySeries => write!(f, "more than 65535 distinct series in one batch"),
            WireError::TooManyPoints => write!(f, "more than 4294967295 points in one batch"),
            WireError::StringTooLong => write!(f, "string field exceeds 65535 bytes"),
        }
    }
}

impl std::error::Error for WireError {}

fn metric_code(kind: MetricKind) -> u8 {
    match kind {
        MetricKind::GCpu => 0,
        MetricKind::EndpointCost => 1,
        MetricKind::Cpu => 2,
        MetricKind::Memory => 3,
        MetricKind::Throughput => 4,
        MetricKind::Latency => 5,
        MetricKind::ErrorRate => 6,
        MetricKind::CoredumpCount => 7,
        MetricKind::Application => 8,
    }
}

fn metric_from_code(code: u8) -> Result<MetricKind, WireError> {
    Ok(match code {
        0 => MetricKind::GCpu,
        1 => MetricKind::EndpointCost,
        2 => MetricKind::Cpu,
        3 => MetricKind::Memory,
        4 => MetricKind::Throughput,
        5 => MetricKind::Latency,
        6 => MetricKind::ErrorRate,
        7 => MetricKind::CoredumpCount,
        8 => MetricKind::Application,
        other => return Err(WireError::BadMetricCode(other)),
    })
}

/// One sample inside a batch, referencing the batch dictionary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePoint {
    /// Index into [`SampleBatch::series`].
    pub series: u16,
    /// Sample time.
    pub timestamp: Timestamp,
    /// Sample value (NaN travels bit-exact).
    pub value: f64,
}

/// A decoded (or under-construction) batch of samples from one tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleBatch {
    /// Originating tenant.
    pub tenant: String,
    /// Simulated time the collector assembled the batch. Drives the
    /// late-point check and the token-bucket clock — never a wall clock.
    pub collected_at: Timestamp,
    series: Vec<SeriesId>,
    points: Vec<WirePoint>,
    index: BTreeMap<SeriesId, u16>,
}

impl SampleBatch {
    /// Creates an empty batch.
    pub fn new(tenant: impl Into<String>, collected_at: Timestamp) -> Self {
        SampleBatch {
            tenant: tenant.into(),
            collected_at,
            series: Vec::new(),
            points: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Adds a sample, interning its series id in the dictionary.
    pub fn push(
        &mut self,
        id: &SeriesId,
        timestamp: Timestamp,
        value: f64,
    ) -> Result<(), WireError> {
        let idx = match self.index.get(id) {
            Some(&i) => i,
            None => {
                let i = u16::try_from(self.series.len()).map_err(|_| WireError::TooManySeries)?;
                self.series.push(id.clone());
                self.index.insert(id.clone(), i);
                i
            }
        };
        if self.points.len() >= u32::MAX as usize {
            return Err(WireError::TooManyPoints);
        }
        self.points.push(WirePoint {
            series: idx,
            timestamp,
            value,
        });
        Ok(())
    }

    /// The series dictionary.
    pub fn series(&self) -> &[SeriesId] {
        &self.series
    }

    /// The samples, in collection order.
    pub fn points(&self) -> &[WirePoint] {
        &self.points
    }

    /// Number of samples.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The series id a point references. Decoded batches always resolve;
    /// `None` only for an out-of-range index on a hand-built point.
    pub fn series_of(&self, point: &WirePoint) -> Option<&SeriesId> {
        self.series.get(point.series as usize)
    }
}

fn put_str(buf: &mut BytesMut, s: &str) -> Result<(), WireError> {
    let len = u16::try_from(s.len()).map_err(|_| WireError::StringTooLong)?;
    buf.put_u16(len);
    buf.put_slice(s.as_bytes());
    Ok(())
}

/// Encodes a batch into its wire representation.
pub fn encode_batch(batch: &SampleBatch) -> Result<Bytes, WireError> {
    let series_count =
        u16::try_from(batch.series.len()).map_err(|_| WireError::TooManySeries)?;
    let point_count =
        u32::try_from(batch.points.len()).map_err(|_| WireError::TooManyPoints)?;
    let mut buf = BytesMut::with_capacity(32 + batch.points.len() * POINT_SIZE);
    buf.put_slice(&MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64(batch.collected_at);
    buf.put_u32(point_count);
    put_str(&mut buf, &batch.tenant)?;
    buf.put_u16(series_count);
    for id in &batch.series {
        put_str(&mut buf, &id.service)?;
        buf.put_u8(metric_code(id.metric));
        put_str(&mut buf, &id.target)?;
    }
    for p in &batch.points {
        buf.put_u16(p.series);
        buf.put_u64(p.timestamp);
        buf.put_u64(p.value.to_bits());
    }
    Ok(buf.freeze())
}

/// A bounds-checked read cursor; every read fails with `Truncated` instead
/// of panicking on corrupt input.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

/// Decodes a wire batch, validating every length, index, and code.
pub fn decode_batch(buf: &[u8]) -> Result<SampleBatch, WireError> {
    let mut cur = Cursor { buf, pos: 0 };
    if cur.take(4)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = cur.u8()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let collected_at = cur.u64()?;
    let point_count = cur.u32()? as usize;
    let tenant = cur.str()?;
    let series_count = cur.u16()? as usize;
    let mut series = Vec::with_capacity(series_count);
    let mut index = BTreeMap::new();
    for i in 0..series_count {
        let service = cur.str()?;
        let metric = metric_from_code(cur.u8()?)?;
        let target = cur.str()?;
        let id = SeriesId::new(service, metric, target);
        index.entry(id.clone()).or_insert(i as u16);
        series.push(id);
    }
    // The point section's size is fully determined by the header count:
    // verify before allocating so a corrupt count cannot over-reserve.
    if cur.remaining() != point_count.saturating_mul(POINT_SIZE) {
        return Err(if cur.remaining() < point_count.saturating_mul(POINT_SIZE) {
            WireError::Truncated
        } else {
            WireError::TrailingBytes
        });
    }
    let mut points = Vec::with_capacity(point_count);
    for _ in 0..point_count {
        let idx = cur.u16()?;
        if idx as usize >= series.len() {
            return Err(WireError::BadSeriesIndex(idx));
        }
        let timestamp = cur.u64()?;
        let value = f64::from_bits(cur.u64()?);
        points.push(WirePoint {
            series: idx,
            timestamp,
            value,
        });
    }
    Ok(SampleBatch {
        tenant,
        collected_at,
        series,
        points,
        index,
    })
}

/// Reads the declared point count from a batch header without decoding the
/// batch. Returns `None` when the header is unreadable — shedding then
/// accounts the batch as zero points, matching what the decode stage will
/// record for it.
pub fn peek_point_count(buf: &[u8]) -> Option<u32> {
    if buf.get(..4)? != MAGIC || *buf.get(4)? != VERSION {
        return None;
    }
    let b = buf.get(POINT_COUNT_OFFSET..POINT_COUNT_OFFSET + 4)?;
    Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u32) -> SeriesId {
        SeriesId::new("svc", MetricKind::GCpu, format!("s{n}"))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut batch = SampleBatch::new("tenant-a", 1_234);
        batch.push(&sid(0), 10, 1.5).unwrap();
        batch.push(&sid(1), 10, f64::NAN).unwrap();
        batch.push(&sid(0), 20, -0.0).unwrap();
        let encoded = encode_batch(&batch).unwrap();
        assert_eq!(peek_point_count(&encoded), Some(3));
        let decoded = decode_batch(&encoded).unwrap();
        assert_eq!(decoded.tenant, "tenant-a");
        assert_eq!(decoded.collected_at, 1_234);
        assert_eq!(decoded.series(), batch.series());
        assert_eq!(decoded.point_count(), 3);
        for (a, b) in decoded.points().iter().zip(batch.points()) {
            assert_eq!(a.series, b.series);
            assert_eq!(a.timestamp, b.timestamp);
            // Bit-exact: NaN and signed zero survive.
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        assert_eq!(decoded.series_of(&decoded.points()[1]).unwrap(), &sid(1));
    }

    #[test]
    fn push_interns_series_once() {
        let mut batch = SampleBatch::new("t", 0);
        for i in 0..100 {
            batch.push(&sid(i % 3), i as u64, 0.0).unwrap();
        }
        assert_eq!(batch.series().len(), 3);
        assert_eq!(batch.point_count(), 100);
    }

    #[test]
    fn corrupt_inputs_error_instead_of_panicking() {
        let mut batch = SampleBatch::new("t", 7);
        batch.push(&sid(0), 1, 2.0).unwrap();
        let good = encode_batch(&batch).unwrap().to_vec();

        assert_eq!(decode_batch(b"no"), Err(WireError::Truncated));
        assert_eq!(decode_batch(b"XXXXmore-bytes-here"), Err(WireError::BadMagic));
        let mut wrong_version = good.clone();
        wrong_version[4] = 9;
        assert_eq!(
            decode_batch(&wrong_version),
            Err(WireError::UnsupportedVersion(9))
        );
        // Every truncation point fails cleanly.
        for cut in 0..good.len() {
            assert!(decode_batch(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode_batch(&trailing), Err(WireError::TrailingBytes));
        // A point referencing a missing dictionary entry.
        let mut bad_idx = good.clone();
        let point_start = good.len() - 18;
        bad_idx[point_start] = 0xFF;
        bad_idx[point_start + 1] = 0xFF;
        assert_eq!(
            decode_batch(&bad_idx),
            Err(WireError::BadSeriesIndex(0xFFFF))
        );
        // An unknown metric code in the dictionary.
        let mut bad_metric = good;
        // magic(4) version(1) collected_at(8) count(4) tenant(2+1)
        // series_count(2) service(2+3) metric(1)
        let metric_at = 4 + 1 + 8 + 4 + 3 + 2 + 5;
        bad_metric[metric_at] = 200;
        assert_eq!(decode_batch(&bad_metric), Err(WireError::BadMetricCode(200)));
        assert_eq!(peek_point_count(b"FB"), None);
        assert_eq!(peek_point_count(b"XXXX\x01aaaaaaaa\x00\x00\x00\x05"), None);
    }

    #[test]
    fn all_metric_kinds_roundtrip() {
        let kinds = [
            MetricKind::GCpu,
            MetricKind::EndpointCost,
            MetricKind::Cpu,
            MetricKind::Memory,
            MetricKind::Throughput,
            MetricKind::Latency,
            MetricKind::ErrorRate,
            MetricKind::CoredumpCount,
            MetricKind::Application,
        ];
        let mut batch = SampleBatch::new("t", 0);
        for (i, k) in kinds.iter().enumerate() {
            batch
                .push(&SeriesId::new("s", *k, "x"), i as u64, i as f64)
                .unwrap();
        }
        let decoded = decode_batch(&encode_batch(&batch).unwrap()).unwrap();
        let got: Vec<MetricKind> = decoded.series().iter().map(|s| s.metric).collect();
        assert_eq!(got, kinds);
    }
}
