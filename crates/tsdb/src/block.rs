//! Gorilla-style compressed blocks: sealed, immutable runs of data points.
//!
//! Storage layout (bit-packed, MSB-first within each byte):
//!
//! ```text
//! +-------------------+-------------------+----------------------------+
//! | first ts (64 bit) | first val (64 bit)| per-point records ...      |
//! +-------------------+-------------------+----------------------------+
//! ```
//!
//! Each subsequent point stores a timestamp record followed by a value
//! record:
//!
//! * **Timestamps** use delta-of-delta coding. With `delta(i) = ts(i) -
//!   ts(i-1)` (wrapping `u64` arithmetic so arbitrary sequences roundtrip)
//!   and `dod = delta(i) - delta(i-1)` interpreted as `i64`:
//!   - `dod == 0`                → `0`
//!   - `dod ∈ [-63, 64]`         → `10`   + 7 bits of `dod + 63`
//!   - `dod ∈ [-255, 256]`       → `110`  + 9 bits of `dod + 255`
//!   - `dod ∈ [-2047, 2048]`     → `1110` + 12 bits of `dod + 2047`
//!   - otherwise                 → `1111` + 64 raw bits of `dod`
//! * **Values** XOR the IEEE-754 bits against the previous value, so the
//!   encoding is bit-exact for every `f64` including NaN payloads and
//!   signed zeros:
//!   - `xor == 0`                → `0`
//!   - previous window fits      → `10`   + the meaningful bits inside the
//!     previously emitted (leading, length) window
//!   - otherwise                 → `11`   + 6 bits leading-zero count +
//!     6 bits (significant length − 1) + the significant bits
//!
//! Unlike the original Gorilla paper we spend 6 bits (not 5) on each
//! window field so a fully significant 64-bit XOR is representable without
//! a special case.
//!
//! Every block additionally carries a small header beside the payload —
//! point count and first/last timestamp, recorded while the block is built
//! — so coverage and length queries never touch the bit stream; the bytes
//! it occupies are charged to the store's resident-byte accounting
//! ([`SUMMARY_BYTES`]).
//!
//! Blocks are built in memory and never deserialized from untrusted
//! input — the on-disk snapshot format remains the text format in
//! [`crate::snapshot`], which re-encodes on load. The decoders are
//! panic-free: a short or corrupt buffer terminates the iterator instead
//! of panicking.
//!
//! Two decoders share the format: [`BlockIter`], the production decoder
//! built on a buffered 64-bit word cursor ([`WordReader`]: one unaligned
//! big-endian load refills up to seven bytes at a time, and the tag
//! dispatch peeks several class bits in one shot), and
//! [`ReferenceBlockIter`], the original bit-at-a-time decoder retained as
//! the bit-exactness oracle for tests and proptests.

use bytes::{BufMut, Bytes, BytesMut};

use crate::columns::TimeRuns;
use crate::types::{DataPoint, Timestamp};

/// Append-only bit sink over a growable byte buffer, MSB-first.
#[derive(Debug)]
struct BitWriter {
    buf: BytesMut,
    /// Byte currently being filled.
    cur: u8,
    /// Number of bits of `cur` already used (0..8).
    used: u8,
}

impl BitWriter {
    fn with_capacity(bytes: usize) -> Self {
        Self { buf: BytesMut::with_capacity(bytes), cur: 0, used: 0 }
    }

    fn push_bit(&mut self, bit: bool) {
        self.cur |= u8::from(bit) << (7 - self.used);
        self.used += 1;
        if self.used == 8 {
            self.buf.put_u8(self.cur);
            self.cur = 0;
            self.used = 0;
        }
    }

    /// Append the low `n` bits of `value`, most significant first.
    /// Supports the full `1..=64` range (a 64-bit XOR window is legal).
    fn push_bits(&mut self, value: u64, n: u32) {
        debug_assert!((1..=64).contains(&n), "bit run length out of range");
        let mut remaining = n;
        while remaining > 0 {
            remaining -= 1;
            self.push_bit((value >> remaining) & 1 == 1);
        }
    }

    /// Bytes written once the trailing partial byte is flushed.
    fn byte_len(&self) -> usize {
        self.buf.len() + usize::from(self.used > 0)
    }

    fn finish(mut self) -> Bytes {
        if self.used > 0 {
            self.buf.put_u8(self.cur);
        }
        self.buf.freeze()
    }
}

/// Bit-level cursor over an immutable byte slice: the legacy reader, one
/// bit per branch. Retained as the oracle the word-buffered decoder is
/// checked against; every read returns `None` on overrun instead of
/// panicking.
#[derive(Debug)]
struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit position from the start of `buf`.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.buf.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    fn read_bits(&mut self, n: u32) -> Option<u64> {
        debug_assert!((1..=64).contains(&n), "bit run length out of range");
        // Bounds-check once so a short buffer cannot leave the cursor
        // half-advanced.
        let end = self.pos.checked_add(n as usize)?;
        if end > self.buf.len() * 8 {
            return None;
        }
        let mut out = 0u64;
        for _ in 0..n {
            let byte = self.buf[self.pos / 8];
            let bit = u64::from((byte >> (7 - (self.pos % 8))) & 1);
            out = (out << 1) | bit;
            self.pos += 1;
        }
        Some(out)
    }
}

/// Buffered 64-bit word cursor over an immutable byte slice, MSB-first.
///
/// The unconsumed stream prefix lives left-aligned in `bits`; a refill
/// tops the window back up to ≥56 valid bits with a single unaligned
/// big-endian load when eight source bytes remain (the branch-reduced
/// fast path), falling back to byte-at-a-time near the end of the buffer.
/// Absorbing whole bytes only means a reload may re-OR bits already
/// present — they come from the same source bytes, so the OR is a no-op.
///
/// `remaining` counts stream bits not yet consumed (whether or not they
/// are loaded), which is what makes overrun detection exact on corrupt or
/// truncated payloads: a read past `remaining` returns `None` and the
/// cursor refuses all further reads, mirroring the legacy reader's
/// termination behavior.
#[derive(Debug)]
struct WordReader<'a> {
    buf: &'a [u8],
    /// Next byte of `buf` not yet absorbed into `bits`.
    byte_pos: usize,
    /// Unconsumed bits, left-aligned (bit 63 is the next stream bit).
    bits: u64,
    /// Number of valid bits in `bits` (0..=64).
    avail: u32,
    /// Stream bits not yet consumed, loaded or not.
    remaining: usize,
}

impl<'a> WordReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, byte_pos: 0, bits: 0, avail: 0, remaining: buf.len() * 8 }
    }

    /// Tops `bits` up to ≥56 valid bits while source bytes remain.
    #[inline]
    fn refill(&mut self) {
        if self.avail >= 56 {
            return;
        }
        if let Some(window) = self.buf.get(self.byte_pos..self.byte_pos + 8) {
            // Branch-reduced fast path: one unaligned big-endian load.
            let w = u64::from_be_bytes(window.try_into().unwrap_or([0; 8]));
            self.bits |= w >> self.avail;
            let absorbed = (63 - self.avail) >> 3;
            self.byte_pos += absorbed as usize;
            self.avail += absorbed * 8;
        } else {
            while self.avail <= 56 {
                let Some(&b) = self.buf.get(self.byte_pos) else { return };
                self.bits |= u64::from(b) << (56 - self.avail);
                self.avail += 8;
                self.byte_pos += 1;
            }
        }
    }

    /// The next (up to) `n` unconsumed bits, left-padded with zeros when
    /// fewer are loaded. Does not consume; callers must bound every
    /// subsequent `read` so zero padding can never be mistaken for data.
    #[inline]
    fn peek(&mut self, n: u32) -> u64 {
        debug_assert!((1..=56).contains(&n));
        if self.avail < n {
            self.refill();
        }
        self.bits >> (64 - n)
    }

    /// Consumes `n` already-peeked bits (`n` ≤ loaded and ≤ remaining).
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n as usize <= self.remaining && n <= self.avail);
        self.bits <<= n;
        self.avail -= n;
        self.remaining -= n as usize;
    }

    /// Reads `n ∈ 1..=56` bits, or `None` when the stream is exhausted.
    #[inline]
    fn read(&mut self, n: u32) -> Option<u64> {
        debug_assert!((1..=56).contains(&n));
        if self.remaining < n as usize {
            self.remaining = 0;
            return None;
        }
        if self.avail < n {
            self.refill();
        }
        let out = self.bits >> (64 - n);
        self.bits <<= n;
        self.avail -= n;
        self.remaining -= n as usize;
        Some(out)
    }

    /// Reads `n ∈ 1..=64` bits (the 64-bit raw escapes split in two).
    #[inline]
    fn read_long(&mut self, n: u32) -> Option<u64> {
        debug_assert!((1..=64).contains(&n));
        if n <= 56 {
            return self.read(n);
        }
        let hi = self.read(n - 32)?;
        let lo = self.read(32)?;
        Some((hi << 32) | lo)
    }
}

/// A block's header, recorded while the block is built and stored beside
/// the compressed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BlockSummary {
    /// Number of points in the block.
    count: u32,
    /// Timestamp of the first point (0 for an empty block).
    first_ts: Timestamp,
    /// Timestamp of the last point (0 for an empty block).
    last_ts: Timestamp,
}

/// Resident bytes one block header occupies beside its payload; charged
/// into `resident_bytes` by the series/shard accounting.
pub const SUMMARY_BYTES: usize = std::mem::size_of::<BlockSummary>();

impl BlockSummary {
    /// The header of a block with no points.
    const fn empty() -> Self {
        BlockSummary { count: 0, first_ts: 0, last_ts: 0 }
    }

    /// Folds one point into the header, in append order.
    fn record(&mut self, point: DataPoint) {
        if self.count == 0 {
            self.first_ts = point.timestamp;
        }
        self.last_ts = point.timestamp;
        self.count += 1;
    }
}

/// Incremental encoder producing one [`SealedBlock`].
#[derive(Debug)]
pub struct BlockBuilder {
    bits: BitWriter,
    summary: BlockSummary,
    prev_delta: u64,
    prev_value_bits: u64,
    prev_leading: u32,
    prev_sig_len: u32,
    window_set: bool,
}

impl Default for BlockBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockBuilder {
    /// A builder with no points encoded yet.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A builder pre-sized for roughly `points` samples.
    pub fn with_capacity(points: usize) -> Self {
        // ~2 bytes/point is the steady-state for minute-cadence metrics;
        // the buffer grows if the data is noisier.
        Self {
            bits: BitWriter::with_capacity(16 + points * 2),
            summary: BlockSummary::empty(),
            prev_delta: 0,
            prev_value_bits: 0,
            prev_leading: 0,
            prev_sig_len: 0,
            window_set: false,
        }
    }

    /// Number of points encoded so far.
    pub fn count(&self) -> u32 {
        self.summary.count
    }

    /// True when no point has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.summary.count == 0
    }

    /// Compressed size in bytes if the block were sealed now.
    pub fn byte_len(&self) -> usize {
        self.bits.byte_len()
    }

    /// Append one point. Timestamps may be arbitrary (the codec uses
    /// wrapping arithmetic); [`crate::series::TimeSeries`] enforces
    /// monotonicity before points ever reach a builder.
    pub fn push(&mut self, point: DataPoint) {
        let value_bits = point.value.to_bits();
        if self.summary.count == 0 {
            self.bits.push_bits(point.timestamp, 64);
            self.bits.push_bits(value_bits, 64);
        } else {
            self.push_timestamp(point.timestamp);
            self.push_value(value_bits);
        }
        self.prev_value_bits = value_bits;
        self.summary.record(point);
    }

    fn push_timestamp(&mut self, ts: Timestamp) {
        let delta = ts.wrapping_sub(self.summary.last_ts);
        let dod = delta.wrapping_sub(self.prev_delta) as i64;
        self.prev_delta = delta;
        if dod == 0 {
            self.bits.push_bit(false);
        } else if (-63..=64).contains(&dod) {
            self.bits.push_bits(0b10, 2);
            self.bits.push_bits((dod + 63) as u64, 7);
        } else if (-255..=256).contains(&dod) {
            self.bits.push_bits(0b110, 3);
            self.bits.push_bits((dod + 255) as u64, 9);
        } else if (-2047..=2048).contains(&dod) {
            self.bits.push_bits(0b1110, 4);
            self.bits.push_bits((dod + 2047) as u64, 12);
        } else {
            self.bits.push_bits(0b1111, 4);
            self.bits.push_bits(dod as u64, 64);
        }
    }

    fn push_value(&mut self, value_bits: u64) {
        let xor = value_bits ^ self.prev_value_bits;
        if xor == 0 {
            self.bits.push_bit(false);
            return;
        }
        self.bits.push_bit(true);
        let leading = xor.leading_zeros();
        let trailing = xor.trailing_zeros();
        let prev_trailing = 64 - self.prev_leading - self.prev_sig_len;
        if self.window_set && leading >= self.prev_leading && trailing >= prev_trailing {
            // Meaningful bits fit inside the previously emitted window:
            // reuse it and pay only the window-sized payload.
            self.bits.push_bit(false);
            self.bits.push_bits(xor >> prev_trailing, self.prev_sig_len);
        } else {
            let sig_len = 64 - leading - trailing;
            self.bits.push_bit(true);
            self.bits.push_bits(u64::from(leading), 6);
            self.bits.push_bits(u64::from(sig_len - 1), 6);
            self.bits.push_bits(xor >> trailing, sig_len);
            self.prev_leading = leading;
            self.prev_sig_len = sig_len;
            self.window_set = true;
        }
    }

    /// Freeze the builder into an immutable block.
    pub fn seal(self) -> SealedBlock {
        SealedBlock {
            bytes: self.bits.finish(),
            summary: self.summary,
        }
    }
}

/// An immutable, compressed run of data points.
#[derive(Debug, Clone)]
pub struct SealedBlock {
    bytes: Bytes,
    summary: BlockSummary,
}

impl SealedBlock {
    /// Compress a slice of points into one sealed block.
    pub fn from_points(points: &[DataPoint]) -> Self {
        let mut builder = BlockBuilder::with_capacity(points.len());
        for p in points {
            builder.push(*p);
        }
        builder.seal()
    }

    /// Number of points in the block.
    pub fn count(&self) -> u32 {
        self.summary.count
    }

    /// True when the block holds no points.
    pub fn is_empty(&self) -> bool {
        self.summary.count == 0
    }

    /// Timestamp of the first point (0 for an empty block).
    pub fn first_timestamp(&self) -> Timestamp {
        self.summary.first_ts
    }

    /// Timestamp of the last point (0 for an empty block).
    pub fn last_timestamp(&self) -> Timestamp {
        self.summary.last_ts
    }

    /// Compressed payload size in bytes (excluding [`SUMMARY_BYTES`]).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The compressed payload bytes. Exposed for snapshotting and for the
    /// corrupt-tail decoder proptests, which truncate and bit-flip real
    /// payloads; mutating a copy never affects the sealed block.
    pub fn payload(&self) -> &[u8] {
        &self.bytes
    }

    /// Streaming decoder over the block's points (word-buffered).
    pub fn iter(&self) -> BlockIter<'_> {
        BlockIter {
            reader: WordReader::new(&self.bytes),
            remaining: self.summary.count,
            started: false,
            last_ts: 0,
            prev_delta: 0,
            prev_value_bits: 0,
            prev_leading: 0,
            prev_sig_len: 0,
        }
    }

    /// The original bit-at-a-time decoder, kept as the bit-exactness
    /// oracle: tests and proptests compare [`SealedBlock::iter`] against
    /// it point for point (including termination on corrupt tails).
    pub fn reference_iter(&self) -> ReferenceBlockIter<'_> {
        ReferenceBlockIter {
            reader: BitReader::new(&self.bytes),
            remaining: self.summary.count,
            started: false,
            last_ts: 0,
            prev_delta: 0,
            prev_value_bits: 0,
            prev_leading: 0,
            prev_sig_len: 0,
        }
    }

    /// A block claiming `count` points over an arbitrary payload. Test
    /// hook for the corrupt-tail decoder contracts: production blocks are
    /// only ever built by [`BlockBuilder`].
    #[doc(hidden)]
    pub fn from_raw_parts(bytes: Vec<u8>, count: u32) -> Self {
        SealedBlock {
            bytes: Bytes::from(bytes),
            summary: BlockSummary { count, ..BlockSummary::empty() },
        }
    }

    /// Bulk column decoder: appends every point from the first one
    /// timestamped at or after `start` onward to `times` / `values` —
    /// point for point what `self.iter().skip_while(|p| p.timestamp <
    /// start)` yields, stopping where [`BlockIter`] stops on a corrupt
    /// payload — but writing each value once and no timestamp at all for a
    /// `dod == 0` record, which only lengthens the current run.
    // fbd-lint::hot
    pub fn decode_columns(&self, start: Timestamp, times: &mut TimeRuns, values: &mut Vec<f64>) {
        let mut it = self.iter();
        // Points emitted so far, and how many `dod == 0` records at the end
        // of them are not in `times` yet. A repeated gap can only lengthen
        // the run once the two points it repeats are both in it.
        let (mut emitted, mut steady) = (0u32, 0u64);
        for _ in 0..self.summary.count {
            let Some(repeats) = it.advance() else { break };
            if emitted == 0 && it.last_ts < start {
                continue;
            }
            if repeats && emitted >= 2 {
                steady += 1;
            } else {
                times.repeat_last_gap(steady);
                steady = 0;
                times.push(it.last_ts);
            }
            emitted += 1;
            values.push(f64::from_bits(it.prev_value_bits));
        }
        times.repeat_last_gap(steady);
    }

    /// This block with its payload swapped for `bytes`, summary kept — an
    /// in-memory corruption. Test hook, like [`SealedBlock::from_raw_parts`].
    #[doc(hidden)]
    pub fn with_payload(&self, bytes: Vec<u8>) -> Self {
        SealedBlock { summary: self.summary, ..Self::from_raw_parts(bytes, self.summary.count) }
    }

    /// Decode every point, appending to `out`.
    pub fn decode_into(&self, out: &mut Vec<DataPoint>) {
        out.reserve(self.summary.count as usize);
        out.extend(self.iter());
    }

    /// Decode every point into a fresh vector.
    pub fn to_points(&self) -> Vec<DataPoint> {
        let mut out = Vec::with_capacity(self.summary.count as usize);
        out.extend(self.iter());
        out
    }
}

impl<'a> IntoIterator for &'a SealedBlock {
    type Item = DataPoint;
    type IntoIter = BlockIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Streaming decoder; see [`SealedBlock::iter`].
///
/// Yields exactly [`SealedBlock::count`] points for a well-formed block.
/// A corrupt or truncated payload ends iteration early, never panics —
/// the contract the corrupt-tail proptests pin against the reference
/// decoder.
///
/// Decoding runs on the [`WordReader`]: tag dispatch peeks the four
/// possible delta-of-delta class bits (or the two value class bits) in a
/// single masked compare instead of one branch per bit, and payloads are
/// extracted with at most one refill per record.
#[derive(Debug)]
pub struct BlockIter<'a> {
    reader: WordReader<'a>,
    remaining: u32,
    started: bool,
    last_ts: Timestamp,
    prev_delta: u64,
    prev_value_bits: u64,
    prev_leading: u32,
    prev_sig_len: u32,
}

impl BlockIter<'_> {
    /// Decodes the next point into `last_ts` / `prev_value_bits`. Returns
    /// whether its timestamp record was `dod == 0` — the gap into the point
    /// repeats the gap before it (never for the first, raw point).
    #[inline]
    fn advance(&mut self) -> Option<bool> {
        if !self.started {
            self.started = true;
            self.last_ts = self.reader.read_long(64)?;
            self.prev_value_bits = self.reader.read_long(64)?;
            return Some(false);
        }
        let delta = self.prev_delta;
        self.last_ts = self.next_timestamp()?;
        self.prev_value_bits = self.next_value_bits()?;
        Some(self.prev_delta == delta)
    }

    fn step(&mut self) -> Option<DataPoint> {
        self.advance()?;
        Some(DataPoint { timestamp: self.last_ts, value: f64::from_bits(self.prev_value_bits) })
    }

    /// Unrolled delta-of-delta dispatch: one 4-bit peek classifies the
    /// record; zero padding past the end of the stream is harmless because
    /// every consuming read below re-validates the remaining bit budget.
    fn next_timestamp(&mut self) -> Option<Timestamp> {
        let tag = self.reader.peek(4);
        let dod: i64 = if tag & 0b1000 == 0 {
            if self.reader.remaining < 1 {
                return None;
            }
            self.reader.consume(1);
            0
        } else if tag & 0b0100 == 0 {
            if self.reader.remaining < 2 {
                return None;
            }
            self.reader.consume(2);
            self.reader.read(7)? as i64 - 63
        } else if tag & 0b0010 == 0 {
            if self.reader.remaining < 3 {
                return None;
            }
            self.reader.consume(3);
            self.reader.read(9)? as i64 - 255
        } else if tag & 0b0001 == 0 {
            if self.reader.remaining < 4 {
                return None;
            }
            self.reader.consume(4);
            self.reader.read(12)? as i64 - 2047
        } else {
            if self.reader.remaining < 4 {
                return None;
            }
            self.reader.consume(4);
            self.reader.read_long(64)? as i64
        };
        self.prev_delta = self.prev_delta.wrapping_add(dod as u64);
        Some(self.last_ts.wrapping_add(self.prev_delta))
    }

    fn next_value_bits(&mut self) -> Option<u64> {
        let tag = self.reader.peek(2);
        if tag & 0b10 == 0 {
            if self.reader.remaining < 1 {
                return None;
            }
            self.reader.consume(1);
            return Some(self.prev_value_bits);
        }
        if self.reader.remaining < 2 {
            return None;
        }
        self.reader.consume(2);
        if tag & 0b01 == 1 {
            // Fresh window: leading count + (length - 1) + payload, read
            // as one 12-bit burst.
            let header = self.reader.read(12)?;
            self.prev_leading = (header >> 6) as u32;
            self.prev_sig_len = (header & 0x3f) as u32 + 1;
            if self.prev_leading + self.prev_sig_len > 64 {
                return None; // corrupt window descriptor
            }
        } else if self.prev_sig_len == 0 {
            return None; // corrupt: window reuse before any window was set
        }
        let trailing = 64 - self.prev_leading - self.prev_sig_len;
        let payload = self.reader.read_long(self.prev_sig_len)?;
        Some(self.prev_value_bits ^ (payload << trailing))
    }
}

impl Iterator for BlockIter<'_> {
    type Item = DataPoint;

    fn next(&mut self) -> Option<DataPoint> {
        if self.remaining == 0 {
            return None;
        }
        match self.step() {
            Some(point) => {
                self.remaining -= 1;
                Some(point)
            }
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

/// The retained legacy decoder; see [`SealedBlock::reference_iter`].
/// Semantics are identical to [`BlockIter`] — same points, same
/// termination on corrupt input — just one branch per bit.
#[derive(Debug)]
pub struct ReferenceBlockIter<'a> {
    reader: BitReader<'a>,
    remaining: u32,
    started: bool,
    last_ts: Timestamp,
    prev_delta: u64,
    prev_value_bits: u64,
    prev_leading: u32,
    prev_sig_len: u32,
}

impl ReferenceBlockIter<'_> {
    fn step(&mut self) -> Option<DataPoint> {
        if !self.started {
            self.started = true;
            self.last_ts = self.reader.read_bits(64)?;
            self.prev_value_bits = self.reader.read_bits(64)?;
        } else {
            self.last_ts = self.next_timestamp()?;
            self.prev_value_bits = self.next_value_bits()?;
        }
        Some(DataPoint { timestamp: self.last_ts, value: f64::from_bits(self.prev_value_bits) })
    }

    fn next_timestamp(&mut self) -> Option<Timestamp> {
        let dod: i64 = if !self.reader.read_bit()? {
            0
        } else if !self.reader.read_bit()? {
            self.reader.read_bits(7)? as i64 - 63
        } else if !self.reader.read_bit()? {
            self.reader.read_bits(9)? as i64 - 255
        } else if !self.reader.read_bit()? {
            self.reader.read_bits(12)? as i64 - 2047
        } else {
            self.reader.read_bits(64)? as i64
        };
        self.prev_delta = self.prev_delta.wrapping_add(dod as u64);
        Some(self.last_ts.wrapping_add(self.prev_delta))
    }

    fn next_value_bits(&mut self) -> Option<u64> {
        if !self.reader.read_bit()? {
            return Some(self.prev_value_bits);
        }
        if self.reader.read_bit()? {
            // Fresh window: leading count + (length - 1) + payload.
            self.prev_leading = self.reader.read_bits(6)? as u32;
            self.prev_sig_len = self.reader.read_bits(6)? as u32 + 1;
            if self.prev_leading + self.prev_sig_len > 64 {
                return None; // corrupt window descriptor
            }
        } else if self.prev_sig_len == 0 {
            return None; // corrupt: window reuse before any window was set
        }
        let trailing = 64 - self.prev_leading - self.prev_sig_len;
        let payload = self.reader.read_bits(self.prev_sig_len)?;
        Some(self.prev_value_bits ^ (payload << trailing))
    }
}

impl Iterator for ReferenceBlockIter<'_> {
    type Item = DataPoint;

    fn next(&mut self) -> Option<DataPoint> {
        if self.remaining == 0 {
            return None;
        }
        match self.step() {
            Some(point) => {
                self.remaining -= 1;
                Some(point)
            }
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for ReferenceBlockIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(points: &[DataPoint]) {
        let block = SealedBlock::from_points(points);
        assert_eq!(block.count() as usize, points.len());
        let decoded = block.to_points();
        assert_eq!(decoded.len(), points.len());
        for (got, want) in decoded.iter().zip(points) {
            assert_eq!(got.timestamp, want.timestamp);
            assert_eq!(
                got.value.to_bits(),
                want.value.to_bits(),
                "value bits diverged at ts {}",
                want.timestamp
            );
        }
        // The reference decoder must agree with the word-buffered one.
        let reference: Vec<DataPoint> = block.reference_iter().collect();
        assert_eq!(reference.len(), decoded.len());
        for (fast, slow) in decoded.iter().zip(&reference) {
            assert_eq!(fast.timestamp, slow.timestamp);
            assert_eq!(fast.value.to_bits(), slow.value.to_bits());
        }
        if let (Some(first), Some(last)) = (points.first(), points.last()) {
            assert_eq!(block.first_timestamp(), first.timestamp);
            assert_eq!(block.last_timestamp(), last.timestamp);
        }
    }

    fn dp(timestamp: Timestamp, value: f64) -> DataPoint {
        DataPoint { timestamp, value }
    }

    #[test]
    fn empty_block_yields_nothing() {
        let block = BlockBuilder::new().seal();
        assert!(block.is_empty());
        assert_eq!(block.iter().count(), 0);
        assert_eq!(block.byte_len(), 0);
        assert_eq!(block.summary, BlockSummary::empty());
    }

    #[test]
    fn single_point_roundtrip() {
        roundtrip(&[dp(1234, 42.5)]);
        roundtrip(&[dp(0, f64::NAN)]);
        roundtrip(&[dp(u64::MAX, -0.0)]);
    }

    #[test]
    fn regular_cadence_roundtrip() {
        let points: Vec<DataPoint> =
            (0..900).map(|i| dp(1000 + i * 60, 1.0 + (i as f64) * 0.001)).collect();
        roundtrip(&points);
    }

    #[test]
    fn irregular_cadence_roundtrip() {
        // Gaps exercising every delta-of-delta class, including the raw
        // 64-bit escape and duplicate timestamps (delta 0).
        let gaps: [u64; 12] =
            [60, 60, 1, 0, 4000, 63, 64, 257, 2049, 1 << 40, 0, 7];
        let mut ts = 5u64;
        let mut points = Vec::new();
        for (i, g) in gaps.iter().enumerate() {
            ts = ts.wrapping_add(*g);
            points.push(dp(ts, (i as f64).sin()));
        }
        roundtrip(&points);
    }

    #[test]
    fn special_float_values_bit_exact() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0,
            -1.0,
        ];
        let points: Vec<DataPoint> =
            specials.iter().enumerate().map(|(i, v)| dp(i as u64 * 60, *v)).collect();
        roundtrip(&points);
    }

    #[test]
    fn constant_series_compresses_hard() {
        let points: Vec<DataPoint> = (0..900).map(|i| dp(i * 60, 3.25)).collect();
        let block = SealedBlock::from_points(&points);
        roundtrip(&points);
        // First sample costs 16 bytes; every other point is 2 bits.
        assert!(
            block.byte_len() < 300,
            "constant series should be ~2 bits/point, got {} bytes",
            block.byte_len()
        );
    }

    #[test]
    fn noisy_series_still_beats_raw() {
        // Deterministic pseudo-noise (SplitMix64) over a realistic base.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let points: Vec<DataPoint> = (0..900)
            .map(|i| {
                let noise = (next() as f64 / u64::MAX as f64 - 0.5) * 0.004;
                dp(i * 60, 1.0 + noise)
            })
            .collect();
        let block = SealedBlock::from_points(&points);
        roundtrip(&points);
        let raw = points.len() * std::mem::size_of::<DataPoint>();
        assert!(
            block.byte_len() < raw,
            "compressed {} bytes vs raw {raw}",
            block.byte_len()
        );
    }

    #[test]
    fn full_width_xor_window_roundtrips() {
        // Alternating sign + magnitude extremes force 64-significant-bit
        // XOR windows (leading 0, trailing 0) — the case the 6+6 bit
        // header exists for.
        let points = [
            dp(0, f64::MAX),
            dp(60, -f64::MIN_POSITIVE),
            dp(120, f64::MAX),
            dp(180, -0.0),
        ];
        roundtrip(&points);
    }

    #[test]
    fn decode_into_appends() {
        let points: Vec<DataPoint> = (0..10).map(|i| dp(i * 60, i as f64)).collect();
        let block = SealedBlock::from_points(&points);
        let mut out = vec![dp(999, 9.9)];
        block.decode_into(&mut out);
        assert_eq!(out.len(), 11);
        assert_eq!(out[0].timestamp, 999);
        assert_eq!(out[1].timestamp, 0);
    }

    #[test]
    fn iterator_len_tracks_remaining() {
        let points: Vec<DataPoint> = (0..5).map(|i| dp(i * 60, i as f64)).collect();
        let block = SealedBlock::from_points(&points);
        let mut it = block.iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn builder_reports_incremental_size() {
        let mut b = BlockBuilder::new();
        assert!(b.is_empty());
        b.push(dp(0, 1.0));
        let after_one = b.byte_len();
        assert!(after_one >= 16);
        b.push(dp(60, 1.0));
        assert!(b.byte_len() >= after_one);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn summary_matches_full_decode() {
        let values = [1.5, f64::NAN, -2.0, 7.25, f64::INFINITY, 0.5, 0.5];
        let gaps = [0u64, 60, 60, 1, 4000, 60, 0];
        let mut ts = 100u64;
        let mut points = Vec::new();
        for (v, g) in values.iter().zip(gaps) {
            ts += g;
            points.push(dp(ts, *v));
        }
        let block = SealedBlock::from_points(&points);
        // Recompute the header from a full decode, in decode order.
        let mut oracle = BlockSummary::empty();
        for p in block.iter() {
            oracle.record(p);
        }
        assert_eq!(block.summary, oracle);
        assert_eq!(block.count(), 7);
        assert_eq!(block.first_timestamp(), 100);
        assert_eq!(block.last_timestamp(), 100 + 60 + 60 + 1 + 4000 + 60);
    }

    #[test]
    fn truncated_payload_terminates_both_decoders_identically() {
        let points: Vec<DataPoint> =
            (0..64).map(|i| dp(i * 60 + (i % 7), (i as f64).sin())).collect();
        let block = SealedBlock::from_points(&points);
        let full = block.byte_len();
        for cut in [0usize, 1, 7, 15, 16, 17, full / 2, full.saturating_sub(1)] {
            let truncated = SealedBlock::from_raw_parts(
                block.bytes[..cut.min(full)].to_vec(),
                block.count(),
            );
            let fast: Vec<DataPoint> = truncated.iter().collect();
            let slow: Vec<DataPoint> = truncated.reference_iter().collect();
            assert_eq!(fast.len(), slow.len(), "cut at {cut}");
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!(a.timestamp, b.timestamp, "cut at {cut}");
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn summary_bytes_is_nonzero_and_stable() {
        assert_eq!(SUMMARY_BYTES, 24);
        assert_eq!(SUMMARY_BYTES, std::mem::size_of::<BlockSummary>());
    }
}
