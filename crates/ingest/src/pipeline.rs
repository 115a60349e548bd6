//! The staged, bounded ingestion pipeline.
//!
//! ```text
//!             bounded              bounded             bounded
//! submit ──▶ [ingress] ─decode─▶ [decoded] ─validate─▶ [routed] ─route─▶ [worker 0..n] ─append─▶ TsdbStore
//!                │                  + quota                                  (by shard)
//!                └── submit_or_shed steals the *oldest* queued batch
//!                    when full: counted, never silent
//! ```
//!
//! Backpressure is explicit and two-mode:
//!
//! - [`IngestPipeline::submit`] blocks when the ingress queue is at its
//!   high-water mark — pressure propagates to the caller, nothing is
//!   dropped, and the resulting store contents are deterministic (equal
//!   to [`reference_ingest`] of the same batch sequence).
//! - [`IngestPipeline::submit_or_shed`] never blocks: when the ingress
//!   queue is full it shes the *oldest* queued batch (the one whose data
//!   is already the most stale), counts its batch and declared points in
//!   [`IngestStats`], and retries. Shedding happens only at ingress —
//!   once a batch is decoded its points can no longer disappear without
//!   being accounted as quota-shed, late-shed, or append-rejected.
//!
//! Every internal stage uses blocking sends, so the bounded queues form a
//! chain of high-water marks and the slowest stage throttles the whole
//! path. Per-series ordering is preserved end to end: decode and validate
//! are single-threaded, and the router assigns each series' shard to a
//! fixed appender worker.

use crate::quota::{QuotaConfig, TenantQuotas};
use crate::validate::{FaultCounts, ValidatedBatch, Validator, ValidatorConfig};
use crate::wire::{decode_batch, peek_point_count, SampleBatch};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use fbd_tsdb::{SeriesId, Timestamp, TsdbStore};
use fbdetect_core::quarantine::{FaultKind, Quarantine, QuarantineConfig};
use fbd_sync::{LockDomain, OrderedMutex};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

/// Pipeline shape and policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// High-water mark (in batches) of every stage queue.
    pub queue_depth: usize,
    /// Number of shard-append workers.
    pub appenders: usize,
    /// Wire-boundary validation thresholds.
    pub validator: ValidatorConfig,
    /// Per-tenant token-bucket quota.
    pub quota: QuotaConfig,
    /// Re-run interval (simulated seconds) of the quarantine registry fed
    /// by quota and NaN-burst violations.
    pub quarantine_rerun_interval: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_depth: 64,
            appenders: 2,
            validator: ValidatorConfig::default(),
            quota: QuotaConfig::default(),
            quarantine_rerun_interval: 500,
        }
    }
}

/// Submitting to a pipeline whose stages have shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineClosed;

impl fmt::Display for PipelineClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ingest pipeline is closed")
    }
}

impl std::error::Error for PipelineClosed {}

/// Full accounting of one ingest session. The invariant
/// [`IngestStats::is_accounted`] checks — every submitted point ends up
/// appended or in exactly one counted loss bucket — is what "never silent
/// loss" means operationally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestStats {
    /// Batches accepted by `submit`/`submit_or_shed`.
    pub batches_submitted: u64,
    /// Points those batches declared.
    pub points_submitted: u64,
    /// Batches shed at ingress (oldest-first, under overload).
    pub batches_shed: u64,
    /// Points the shed batches declared.
    pub points_shed: u64,
    /// Batches that failed wire decoding.
    pub decode_errors: u64,
    /// Points those batches declared.
    pub decode_error_points: u64,
    /// Batches denied by the per-tenant token bucket.
    pub quota_violations: u64,
    /// Points those batches carried.
    pub quota_shed_points: u64,
    /// Late points shed by validation.
    pub late_shed_points: u64,
    /// Points the store refused (out-of-order race against a concurrent
    /// writer outside this pipeline).
    pub append_rejected: u64,
    /// Points lost to an internal stage failure (a dead stage thread);
    /// counted so even a crashed pipeline cannot lose points silently.
    pub internal_error_points: u64,
    /// Points appended to the store.
    pub points_appended: u64,
    /// Wire-boundary fault classification totals.
    pub faults: FaultCounts,
    /// Per-series fault classification, in series-id order.
    pub per_series_faults: BTreeMap<SeriesId, FaultCounts>,
}

impl IngestStats {
    /// Whether every submitted point is accounted for: appended or in
    /// exactly one counted loss bucket.
    pub fn is_accounted(&self) -> bool {
        self.points_submitted
            == self.points_appended
                + self.points_shed
                + self.decode_error_points
                + self.quota_shed_points
                + self.late_shed_points
                + self.append_rejected
                + self.internal_error_points
    }
}

#[derive(Debug, Default)]
struct Counters {
    batches_submitted: AtomicU64,
    points_submitted: AtomicU64,
    batches_shed: AtomicU64,
    points_shed: AtomicU64,
    decode_errors: AtomicU64,
    decode_error_points: AtomicU64,
    quota_violations: AtomicU64,
    quota_shed_points: AtomicU64,
    append_rejected: AtomicU64,
    internal_error_points: AtomicU64,
    points_appended: AtomicU64,
}

/// Tracks batch completion so `drain` can wait for quiescence without
/// polling. A batch completes when it is shed, rejected, or every routed
/// chunk of it has been applied to the store.
struct Progress {
    /// `(submitted, completed)`, ranked `ingest-progress` (a leaf) in
    /// `LOCK_ORDER.manifest`. Poison recovery comes with [`OrderedMutex`].
    state: OrderedMutex<(u64, u64)>,
    quiescent: Condvar,
}

impl Default for Progress {
    fn default() -> Self {
        Progress {
            state: OrderedMutex::new(LockDomain::IngestProgress, (0, 0)),
            quiescent: Condvar::new(),
        }
    }
}

impl Progress {
    fn submitted(&self) {
        self.state.lock().0 += 1;
    }

    fn completed(&self) {
        let mut g = self.state.lock();
        g.1 += 1;
        if g.1 >= g.0 {
            self.quiescent.notify_all();
        }
    }

    fn drain(&self) {
        let mut g = self.state.lock();
        while g.1 < g.0 {
            g = g.wait(&self.quiescent);
        }
    }
}

/// Completion ticket for one batch fanned out across appender workers.
struct Ticket {
    remaining: AtomicUsize,
    progress: Arc<Progress>,
}

impl Ticket {
    fn chunk_done(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.progress.completed();
        }
    }
}

/// The validation + quota state, shared so stats can be snapshotted while
/// the pipeline runs (a single validate thread means no contention).
struct Engine {
    validator: Validator,
    quotas: TenantQuotas,
}

/// Decodes one wire batch, counting failures in the decode-error loss
/// bucket (with the batch's *declared* point count, the same number the
/// submit side charged). Shared by the decode stage and
/// [`reference_ingest`].
fn decode_counted(raw: &Bytes, counters: &Counters) -> Option<SampleBatch> {
    match decode_batch(raw) {
        Ok(b) => Some(b),
        Err(_) => {
            counters.decode_errors.fetch_add(1, Ordering::Relaxed);
            counters.decode_error_points.fetch_add(
                u64::from(peek_point_count(raw).unwrap_or(0)),
                Ordering::Relaxed,
            );
            None
        }
    }
}

/// Charges quota, validates, and records quarantine entries for one
/// decoded batch. Returns the admitted points, or `None` when the whole
/// batch was rejected — either way the loss buckets in `counters` are
/// updated. Shared verbatim by the threaded validate stage and
/// [`reference_ingest`].
fn process_decoded_batch(
    batch: &SampleBatch,
    engine: &OrderedMutex<Engine>,
    quarantine: &OrderedMutex<Quarantine>,
    counters: &Counters,
) -> Option<ValidatedBatch> {
    let mut engine = engine.lock();
    let points = batch.point_count() as u64;
    if !engine
        .quotas
        .admit(&batch.tenant, batch.collected_at, points)
    {
        counters.quota_violations.fetch_add(1, Ordering::Relaxed);
        counters
            .quota_shed_points
            .fetch_add(points, Ordering::Relaxed);
        let mut q = quarantine.lock();
        for id in batch.series() {
            q.record_failure(
                id,
                FaultKind::DataQuality,
                format!("tenant {} over ingest quota", batch.tenant),
                batch.collected_at,
            );
        }
        return None;
    }
    let validated = engine.validator.validate(batch);
    drop(engine);
    if !validated.nan_flagged.is_empty() {
        let mut q = quarantine.lock();
        for id in &validated.nan_flagged {
            q.record_failure(
                id,
                FaultKind::DataQuality,
                "non-finite burst at wire boundary",
                batch.collected_at,
            );
        }
    }
    Some(validated)
}

/// Applies routed points to the store, counting appends and rejects.
fn apply_routed(store: &TsdbStore, chunk: &[(SeriesId, Timestamp, f64)], counters: &Counters) {
    let outcome = store.append_batch(chunk);
    counters
        .points_appended
        .fetch_add(outcome.appended as u64, Ordering::Relaxed);
    counters
        .append_rejected
        .fetch_add(outcome.rejected.len() as u64, Ordering::Relaxed);
}

struct RoutedChunk {
    points: Vec<(SeriesId, Timestamp, f64)>,
    ticket: Arc<Ticket>,
}

/// The running pipeline: spawned stage threads plus the ingress handle.
pub struct IngestPipeline {
    ingress_tx: Option<Sender<Bytes>>,
    ingress_rx: Receiver<Bytes>,
    counters: Arc<Counters>,
    progress: Arc<Progress>,
    engine: Arc<OrderedMutex<Engine>>,
    quarantine: Arc<OrderedMutex<Quarantine>>,
    threads: Vec<JoinHandle<()>>,
}

impl IngestPipeline {
    /// Spawns the stage threads against `store` with a fresh quarantine
    /// registry.
    pub fn new(store: Arc<TsdbStore>, config: IngestConfig) -> Self {
        let quarantine = Arc::new(OrderedMutex::new(
            LockDomain::Quarantine,
            Quarantine::new(QuarantineConfig::default(), config.quarantine_rerun_interval),
        ));
        Self::with_quarantine(store, config, quarantine)
    }

    /// Spawns the stage threads, feeding violations into an existing
    /// quarantine registry (shared with a scan pipeline, typically).
    pub fn with_quarantine(
        store: Arc<TsdbStore>,
        config: IngestConfig,
        quarantine: Arc<OrderedMutex<Quarantine>>,
    ) -> Self {
        let depth = config.queue_depth.max(1);
        let appenders = config.appenders.max(1);
        let counters = Arc::new(Counters::default());
        let progress = Arc::new(Progress::default());
        let engine = Arc::new(OrderedMutex::new(
            LockDomain::IngestEngine,
            Engine {
                validator: Validator::new(config.validator),
                quotas: TenantQuotas::new(config.quota),
            },
        ));

        let (ingress_tx, ingress_rx) = bounded::<Bytes>(depth);
        let (decoded_tx, decoded_rx) = bounded::<SampleBatch>(depth);
        let (routed_tx, routed_rx) = bounded::<(ValidatedBatch, Arc<Ticket>)>(depth);
        let worker_channels: Vec<(Sender<RoutedChunk>, Receiver<RoutedChunk>)> =
            (0..appenders).map(|_| bounded(depth)).collect();

        let mut threads = Vec::new();

        // Stage 1: decode. Wire errors end a batch's life here, counted
        // against the decode-error bucket.
        {
            let rx = ingress_rx.clone();
            let counters = Arc::clone(&counters);
            let progress = Arc::clone(&progress);
            threads.push(std::thread::spawn(move || {
                while let Ok(raw) = rx.recv() {
                    let Some(batch) = decode_counted(&raw, &counters) else {
                        progress.completed();
                        continue;
                    };
                    let points = batch.point_count() as u64;
                    if decoded_tx.send(batch).is_err() {
                        counters
                            .internal_error_points
                            .fetch_add(points, Ordering::Relaxed);
                        progress.completed();
                    }
                }
            }));
        }

        // Stage 2: validate + quota (single thread: per-series state).
        {
            let counters = Arc::clone(&counters);
            let progress = Arc::clone(&progress);
            let engine = Arc::clone(&engine);
            let quarantine = Arc::clone(&quarantine);
            threads.push(std::thread::spawn(move || {
                while let Ok(batch) = decoded_rx.recv() {
                    match process_decoded_batch(&batch, &engine, &quarantine, &counters) {
                        Some(validated) if !validated.routed.is_empty() => {
                            let points = validated.routed.len() as u64;
                            let ticket = Arc::new(Ticket {
                                remaining: AtomicUsize::new(1),
                                progress: Arc::clone(&progress),
                            });
                            if routed_tx.send((validated, ticket)).is_err() {
                                counters
                                    .internal_error_points
                                    .fetch_add(points, Ordering::Relaxed);
                                progress.completed();
                            }
                        }
                        _ => progress.completed(),
                    }
                }
            }));
        }

        // Stage 3: route by shard to a fixed appender worker.
        {
            let counters = Arc::clone(&counters);
            let worker_txs: Vec<Sender<RoutedChunk>> =
                worker_channels.iter().map(|(tx, _)| tx.clone()).collect();
            threads.push(std::thread::spawn(move || {
                while let Ok((validated, ticket)) = routed_rx.recv() {
                    let mut chunks: Vec<Vec<(SeriesId, Timestamp, f64)>> =
                        (0..worker_txs.len()).map(|_| Vec::new()).collect();
                    for (id, ts, value) in validated.routed {
                        let worker = TsdbStore::shard_of(&id) % worker_txs.len();
                        chunks[worker].push((id, ts, value));
                    }
                    let live: Vec<usize> = (0..chunks.len())
                        .filter(|&w| !chunks[w].is_empty())
                        .collect();
                    // The ticket was born with 1 outstanding chunk; adjust
                    // to the real fan-out before dispatching.
                    ticket
                        .remaining
                        .fetch_add(live.len().saturating_sub(1), Ordering::AcqRel);
                    if live.is_empty() {
                        ticket.chunk_done();
                        continue;
                    }
                    for w in live {
                        let chunk = std::mem::take(&mut chunks[w]);
                        let points = chunk.len() as u64;
                        if worker_txs[w]
                            .send(RoutedChunk {
                                points: chunk,
                                ticket: Arc::clone(&ticket),
                            })
                            .is_err()
                        {
                            counters
                                .internal_error_points
                                .fetch_add(points, Ordering::Relaxed);
                            ticket.chunk_done();
                        }
                    }
                }
            }));
        }

        // Stage 4: shard-append workers.
        for (_, rx) in &worker_channels {
            let rx = rx.clone();
            let store = Arc::clone(&store);
            let counters = Arc::clone(&counters);
            threads.push(std::thread::spawn(move || {
                while let Ok(chunk) = rx.recv() {
                    apply_routed(&store, &chunk.points, &counters);
                    chunk.ticket.chunk_done();
                }
            }));
        }
        drop(worker_channels);

        IngestPipeline {
            ingress_tx: Some(ingress_tx),
            ingress_rx,
            counters,
            progress,
            engine,
            quarantine,
            threads,
        }
    }

    fn count_submit(&self, raw: &Bytes) {
        self.counters
            .batches_submitted
            .fetch_add(1, Ordering::Relaxed);
        self.counters.points_submitted.fetch_add(
            u64::from(peek_point_count(raw).unwrap_or(0)),
            Ordering::Relaxed,
        );
        self.progress.submitted();
    }

    /// Submits a wire batch, blocking while the ingress queue is at its
    /// high-water mark (backpressure mode: nothing is ever shed).
    pub fn submit(&self, raw: Bytes) -> Result<(), PipelineClosed> {
        let Some(tx) = self.ingress_tx.as_ref() else {
            return Err(PipelineClosed);
        };
        self.count_submit(&raw);
        match tx.send(raw) {
            Ok(()) => Ok(()),
            Err(crossbeam::channel::SendError(back)) => {
                // Still accounted: a closed pipeline cannot lose points
                // silently either.
                self.counters.internal_error_points.fetch_add(
                    u64::from(peek_point_count(&back).unwrap_or(0)),
                    Ordering::Relaxed,
                );
                self.progress.completed();
                Err(PipelineClosed)
            }
        }
    }

    /// Submits without blocking: when the ingress queue is full, sheds
    /// the oldest queued batch (counted in [`IngestStats`]) and retries.
    /// Returns how many batches were shed to make room.
    pub fn submit_or_shed(&self, raw: Bytes) -> Result<u64, PipelineClosed> {
        let Some(tx) = self.ingress_tx.as_ref() else {
            return Err(PipelineClosed);
        };
        self.count_submit(&raw);
        let mut shed = 0u64;
        let mut pending = raw;
        loop {
            match tx.try_send(pending) {
                Ok(()) => return Ok(shed),
                Err(TrySendError::Disconnected(back)) => {
                    self.counters.internal_error_points.fetch_add(
                        u64::from(peek_point_count(&back).unwrap_or(0)),
                        Ordering::Relaxed,
                    );
                    self.progress.completed();
                    return Err(PipelineClosed);
                }
                Err(TrySendError::Full(back)) => {
                    pending = back;
                    match self.ingress_rx.try_recv() {
                        Ok(oldest) => {
                            shed += 1;
                            self.counters.batches_shed.fetch_add(1, Ordering::Relaxed);
                            self.counters.points_shed.fetch_add(
                                u64::from(peek_point_count(&oldest).unwrap_or(0)),
                                Ordering::Relaxed,
                            );
                            self.progress.completed();
                        }
                        // The decode stage drained the queue between our
                        // two calls: just retry the send.
                        Err(TryRecvError::Empty) => {}
                        Err(TryRecvError::Disconnected) => {
                            self.progress.completed();
                            return Err(PipelineClosed);
                        }
                    }
                }
            }
        }
    }

    /// Blocks until every submitted batch has fully cleared the pipeline
    /// (appended, shed, or rejected).
    pub fn drain(&self) {
        self.progress.drain();
    }

    /// The quarantine registry fed by quota and NaN-burst violations.
    pub fn quarantine(&self) -> Arc<OrderedMutex<Quarantine>> {
        Arc::clone(&self.quarantine)
    }

    /// A point-in-time copy of the session stats. Counters are read
    /// individually (not atomically as a set); call after [`IngestPipeline::drain`]
    /// for exact accounting.
    pub fn stats(&self) -> IngestStats {
        let engine = self.engine.lock();
        let c = &self.counters;
        IngestStats {
            batches_submitted: c.batches_submitted.load(Ordering::Relaxed),
            points_submitted: c.points_submitted.load(Ordering::Relaxed),
            batches_shed: c.batches_shed.load(Ordering::Relaxed),
            points_shed: c.points_shed.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            decode_error_points: c.decode_error_points.load(Ordering::Relaxed),
            quota_violations: c.quota_violations.load(Ordering::Relaxed),
            quota_shed_points: c.quota_shed_points.load(Ordering::Relaxed),
            late_shed_points: engine.validator.totals().late,
            append_rejected: c.append_rejected.load(Ordering::Relaxed),
            internal_error_points: c.internal_error_points.load(Ordering::Relaxed),
            points_appended: c.points_appended.load(Ordering::Relaxed),
            faults: *engine.validator.totals(),
            per_series_faults: engine.validator.per_series().clone(),
        }
    }

    /// Shuts the pipeline down: waits for in-flight batches, joins every
    /// stage thread, and returns the final accounting.
    pub fn finish(mut self) -> IngestStats {
        self.drain();
        self.ingress_tx = None; // disconnect: stages exit in order
        for t in self.threads.drain(..) {
            // A stage thread panicking would already have been counted as
            // internal errors by its neighbors; nothing to do with the
            // payload here.
            let _ = t.join();
        }
        self.stats()
    }
}

/// Ingests `batches` synchronously on the caller's thread, through the
/// exact same decode → quota → validate → append code as the threaded
/// pipeline. This is the determinism oracle: a threaded pipeline fed the
/// same sequence via [`IngestPipeline::submit`] (no ingress shedding)
/// produces byte-identical store contents and identical stats.
pub fn reference_ingest(
    store: &TsdbStore,
    batches: &[Bytes],
    config: IngestConfig,
    quarantine: &OrderedMutex<Quarantine>,
) -> IngestStats {
    let counters = Counters::default();
    let engine = OrderedMutex::new(
        LockDomain::IngestEngine,
        Engine {
            validator: Validator::new(config.validator),
            quotas: TenantQuotas::new(config.quota),
        },
    );
    for raw in batches {
        counters.batches_submitted.fetch_add(1, Ordering::Relaxed);
        counters.points_submitted.fetch_add(
            u64::from(peek_point_count(raw).unwrap_or(0)),
            Ordering::Relaxed,
        );
        let Some(batch) = decode_counted(raw, &counters) else {
            continue;
        };
        if let Some(validated) = process_decoded_batch(&batch, &engine, quarantine, &counters) {
            if !validated.routed.is_empty() {
                apply_routed(store, &validated.routed, &counters);
            }
        }
    }
    let engine = engine.lock();
    IngestStats {
        batches_submitted: counters.batches_submitted.load(Ordering::Relaxed),
        points_submitted: counters.points_submitted.load(Ordering::Relaxed),
        batches_shed: 0,
        points_shed: 0,
        decode_errors: counters.decode_errors.load(Ordering::Relaxed),
        decode_error_points: counters.decode_error_points.load(Ordering::Relaxed),
        quota_violations: counters.quota_violations.load(Ordering::Relaxed),
        quota_shed_points: counters.quota_shed_points.load(Ordering::Relaxed),
        late_shed_points: engine.validator.totals().late,
        append_rejected: counters.append_rejected.load(Ordering::Relaxed),
        internal_error_points: counters.internal_error_points.load(Ordering::Relaxed),
        points_appended: counters.points_appended.load(Ordering::Relaxed),
        faults: *engine.validator.totals(),
        per_series_faults: engine.validator.per_series().clone(),
    }
}
