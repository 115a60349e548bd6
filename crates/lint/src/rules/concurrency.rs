//! `lock-order` and `guard-across-blocking`: the static half of the
//! workspace lock discipline.
//!
//! `LOCK_ORDER.manifest` at the repo root declares every lock domain with a
//! rank, the crate it lives in, and the receiver identifiers it is
//! acquired through (`shard.read()`, `engine.lock()`, ...). The same file
//! is embedded into `fbd-sync`, whose debug-build validator enforces the
//! hierarchy at runtime; these rules enforce it at lint time, before the
//! code ever runs:
//!
//! * **lock-order** — tracks live guards with a brace-depth state machine
//!   over the cleaned token view and flags any `.lock()`/`.read()`/
//!   `.write()` whose domain rank is not strictly greater than every rank
//!   already held. It also flags acquisitions whose receiver resolves to
//!   no manifest domain (every lock in a ranked crate must be declared)
//!   and raw `Mutex`/`RwLock`/`parking_lot` types (ranked crates go
//!   through `fbd_sync::OrderedMutex`/`OrderedRwLock`).
//! * **guard-across-blocking** — flags a guard held across a channel
//!   `.send(`/`.recv(` (appender stalls would back up into the lock), and
//!   across a call into another crate's lock-taking entry point
//!   (`enters=` in the manifest) when the held rank is not strictly below
//!   the entered domain's rank.
//!
//! The guard tracker is an approximation, deliberately conservative in the
//! same direction as the runtime validator: a named guard (`let g = x.lock();`)
//! lives until its block closes or `drop(g)`; a chained temporary
//! (`x.lock().field`) lives until the `;` that ends its statement. Receiver
//! identifiers are resolved per line, which is why every supervised lock
//! site names its receiver after the manifest entry (`shard`, `inner`,
//! `engine`, ...).

use super::{token_starts, Rule, Sink};
use crate::context::{FileContext, FileKind};
use crate::lexer::CleanFile;
use std::sync::OnceLock;

/// The checked-in lock hierarchy, embedded at compile time so the lint
/// binary needs no runtime file lookup and cannot drift from the manifest
/// it was built against. `fbd-sync` embeds the same file from its tests.
pub const MANIFEST_SRC: &str = include_str!("../../../../LOCK_ORDER.manifest");

/// One `rank domain crate recv=a,b [enters=c]` manifest line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSpec {
    pub rank: u16,
    pub name: String,
    pub crate_name: String,
    /// Receiver identifiers that acquire this domain (`shard` in
    /// `shard.read()`).
    pub recv: Vec<String>,
    /// Receiver identifiers whose method calls may acquire this domain
    /// internally (cross-crate entry points, `store` in
    /// `store.snapshot_deltas(..)`).
    pub enters: Vec<String>,
}

/// Parsed `LOCK_ORDER.manifest`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockManifest {
    pub domains: Vec<DomainSpec>,
}

impl LockManifest {
    /// Parses manifest text. Comment (`#`) and blank lines are skipped;
    /// data lines are `rank name crate recv=a,b [enters=c,d]`.
    pub fn parse(src: &str) -> Result<LockManifest, String> {
        let mut domains = Vec::new();
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let rank: u16 = fields
                .next()
                .ok_or_else(|| format!("line {}: missing rank", idx + 1))?
                .parse()
                .map_err(|e| format!("line {}: bad rank: {e}", idx + 1))?;
            let name = fields
                .next()
                .ok_or_else(|| format!("line {}: missing domain name", idx + 1))?
                .to_string();
            let crate_name = fields
                .next()
                .ok_or_else(|| format!("line {}: missing crate", idx + 1))?
                .to_string();
            let mut recv = Vec::new();
            let mut enters = Vec::new();
            for field in fields {
                if let Some(list) = field.strip_prefix("recv=") {
                    recv.extend(list.split(',').map(str::to_string));
                } else if let Some(list) = field.strip_prefix("enters=") {
                    enters.extend(list.split(',').map(str::to_string));
                } else {
                    return Err(format!("line {}: unknown field `{field}`", idx + 1));
                }
            }
            if recv.is_empty() {
                return Err(format!("line {}: domain `{name}` lists no recv=", idx + 1));
            }
            domains.push(DomainSpec {
                rank,
                name,
                crate_name,
                recv,
                enters,
            });
        }
        for pair in domains.windows(2) {
            if pair[1].rank <= pair[0].rank {
                return Err(format!(
                    "ranks must be strictly ascending: `{}` ({}) after `{}` ({})",
                    pair[1].name, pair[1].rank, pair[0].name, pair[0].rank
                ));
            }
        }
        Ok(LockManifest { domains })
    }

    /// The embedded manifest, parsed once. A parse failure yields an empty
    /// manifest (rules fall silent); the unit test below pins that the
    /// checked-in file parses, so CI catches manifest rot.
    pub fn embedded() -> &'static LockManifest {
        static CELL: OnceLock<LockManifest> = OnceLock::new();
        CELL.get_or_init(|| LockManifest::parse(MANIFEST_SRC).unwrap_or_default())
    }

    /// Whether any domain lives in `crate_name` — i.e. the crate opted into
    /// lock-order checking.
    pub fn covers_crate(&self, crate_name: &str) -> bool {
        self.domains.iter().any(|d| d.crate_name == crate_name)
    }

    /// The domain acquired by `recv.lock()` inside `crate_name`.
    fn resolve(&self, crate_name: &str, recv: &str) -> Option<&DomainSpec> {
        self.domains
            .iter()
            .find(|d| d.crate_name == crate_name && d.recv.iter().any(|r| r == recv))
    }
}

/// A lock guard the tracker currently believes is live.
struct LiveGuard {
    rank: u16,
    domain: String,
    /// `Some(name)` for `let name = x.lock();`, `None` for temporaries.
    binding: Option<String>,
    /// Brace depth at acquisition: the guard dies when depth drops below
    /// it (block close) or, for temporaries, at a `;` back at this depth.
    acq_depth: usize,
    temporary: bool,
    /// 0-based acquisition line, for diagnostics.
    line: usize,
}

/// An acquisition seen mid-statement whose guard form (named vs temporary)
/// is decided by the next non-whitespace character.
struct PendingAcq {
    rank: u16,
    domain: String,
    binding: Option<String>,
    acq_depth: usize,
    line: usize,
}

/// Everything the shared walk finds; each rule reports its own half.
#[derive(Default)]
struct Findings {
    /// (0-based line, message) — `lock-order` violations.
    order: Vec<(usize, String)>,
    /// (0-based line, message) — `guard-across-blocking` violations.
    blocking: Vec<(usize, String)>,
}

const ACQ_NEEDLES: &[&str] = &[".lock()", ".read()", ".write()"];
const CHANNEL_NEEDLES: &[&str] = &[".send(", ".recv("];

/// Walks the cleaned file once, tracking brace depth, statement text, and
/// live guards, and records violations for both rules.
fn analyze(clean: &CleanFile, ctx: &FileContext, manifest: &LockManifest) -> Findings {
    let mut findings = Findings::default();
    let mut depth: usize = 0;
    let mut stmt = String::new();
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut pending: Option<PendingAcq> = None;

    for (idx, line) in clean.lines.iter().enumerate() {
        if ctx.is_test_line(idx) {
            // Test regions are brace-balanced whole items, so skipping
            // them keeps the depth counter consistent.
            stmt.clear();
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < line.len() {
            // Acquisition needles first: they advance past themselves so
            // the pending guard resolves on the character *after* `()`.
            if let Some(needle) = ACQ_NEEDLES
                .iter()
                .find(|n| line[i..].starts_with(**n))
                .copied()
            {
                if let Some(p) = pending.take() {
                    // `x.lock().read()` style chains: the first guard is a
                    // temporary by construction.
                    push_guard(&mut guards, p, true);
                }
                handle_acquisition(
                    needle,
                    &stmt,
                    idx,
                    depth,
                    &guards,
                    &mut pending,
                    &mut findings,
                    ctx,
                    manifest,
                );
                stmt.push_str(needle);
                i += needle.len();
                continue;
            }
            if let Some(needle) = CHANNEL_NEEDLES
                .iter()
                .find(|n| line[i..].starts_with(**n))
                .copied()
            {
                for g in &guards {
                    findings.blocking.push((
                        idx,
                        format!(
                            "`{}` guard (rank {}, acquired line {}) held across channel `{}..)`; \
                             release the guard before blocking on a channel",
                            g.domain,
                            g.rank,
                            g.line + 1,
                            needle
                        ),
                    ));
                }
            }
            check_enters(line, i, idx, &guards, manifest, &mut findings);
            if line[i..].starts_with("drop(") && ident_boundary_before(bytes, i) {
                let inner = &line[i + "drop(".len()..];
                if let Some(end) = inner.find(')') {
                    let name = inner[..end].trim();
                    if let Some(pos) = guards
                        .iter()
                        .rposition(|g| g.binding.as_deref() == Some(name))
                    {
                        guards.remove(pos);
                    }
                }
            }

            let ch = bytes[i] as char;
            if pending.is_some() && !ch.is_ascii_whitespace() {
                if let Some(p) = pending.take() {
                    if ch == ';' && p.binding.is_some() {
                        push_guard(&mut guards, p, false);
                    } else if ch != ';' {
                        push_guard(&mut guards, p, true);
                    }
                    // `;` without a `let` binding: the guard dies at this
                    // very statement end — never live, never tracked.
                }
            }
            match ch {
                '{' => {
                    depth += 1;
                    stmt.clear();
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.acq_depth <= depth);
                    stmt.clear();
                }
                ';' => {
                    guards.retain(|g| !(g.temporary && g.acq_depth >= depth));
                    stmt.clear();
                }
                '=' if line[i..].starts_with("=>") => stmt.clear(),
                _ => stmt.push(ch),
            }
            i += 1;
        }
    }
    findings
}

fn push_guard(guards: &mut Vec<LiveGuard>, p: PendingAcq, temporary: bool) {
    guards.push(LiveGuard {
        rank: p.rank,
        domain: p.domain,
        binding: if temporary { None } else { p.binding },
        acq_depth: p.acq_depth,
        temporary,
        line: p.line,
    });
}

#[allow(clippy::too_many_arguments)]
fn handle_acquisition(
    needle: &str,
    stmt: &str,
    idx: usize,
    depth: usize,
    guards: &[LiveGuard],
    pending: &mut Option<PendingAcq>,
    findings: &mut Findings,
    ctx: &FileContext,
    manifest: &LockManifest,
) {
    let recv = match extract_receiver(stmt) {
        Some(r) => r,
        None => {
            findings.order.push((
                idx,
                format!(
                    "cannot resolve the receiver of `{needle}` on this line; \
                     bind the lock to a manifest-named receiver first"
                ),
            ));
            return;
        }
    };
    let spec = match manifest.resolve(&ctx.crate_name, &recv) {
        Some(s) => s,
        None => {
            findings.order.push((
                idx,
                format!(
                    "`{needle}` receiver `{recv}` has no domain in LOCK_ORDER.manifest \
                     for crate `{}`; declare it or name the receiver after its domain",
                    ctx.crate_name
                ),
            ));
            return;
        }
    };
    for g in guards {
        if g.rank >= spec.rank {
            findings.order.push((
                idx,
                format!(
                    "acquired `{}` (rank {}) while holding `{}` (rank {}, acquired line {}); \
                     LOCK_ORDER.manifest requires strictly ascending ranks",
                    spec.name,
                    spec.rank,
                    g.domain,
                    g.rank,
                    g.line + 1
                ),
            ));
        }
    }
    *pending = Some(PendingAcq {
        rank: spec.rank,
        domain: spec.name.clone(),
        binding: let_binding(stmt),
        acq_depth: depth,
        line: idx,
    });
}

/// Flags `recv.method(..)` calls into another crate's lock-taking entry
/// point (`enters=` in the manifest) while holding a rank that is not
/// strictly below the entered domain — the callee would acquire
/// equal-or-lower, inverting the hierarchy across the crate boundary.
fn check_enters(
    line: &str,
    i: usize,
    idx: usize,
    guards: &[LiveGuard],
    manifest: &LockManifest,
    findings: &mut Findings,
) {
    if guards.is_empty() {
        return;
    }
    for spec in &manifest.domains {
        for entry in &spec.enters {
            if line[i..].starts_with(entry.as_str())
                && line[i + entry.len()..].starts_with('.')
                && ident_boundary_before(line.as_bytes(), i)
            {
                for g in guards {
                    if g.rank >= spec.rank {
                        findings.blocking.push((
                            idx,
                            format!(
                                "`{}` guard (rank {}, acquired line {}) held across a call \
                                 into `{entry}` (enters `{}`, rank {}); release the guard first",
                                g.domain,
                                g.rank,
                                g.line + 1,
                                spec.name,
                                spec.rank
                            ),
                        ));
                    }
                }
            }
        }
    }
}

fn ident_boundary_before(bytes: &[u8], i: usize) -> bool {
    i == 0 || {
        let prev = bytes[i - 1];
        !(prev.is_ascii_alphanumeric() || prev == b'_')
    }
}

/// The receiver identifier of a method call, read backwards from the end
/// of the accumulated statement text: balanced `(..)`/`[..]` groups are
/// skipped, then the identifier is taken (`self.shards[i % n]` → `shards`,
/// `self.shard(id)` → `shard`, `engine` → `engine`).
fn extract_receiver(stmt: &str) -> Option<String> {
    let bytes = stmt.as_bytes();
    let mut i = stmt.len();
    loop {
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        let c = bytes[i - 1];
        if c == b')' || c == b']' {
            let mut depth = 0i32;
            let mut closed = false;
            while i > 0 {
                let c = bytes[i - 1];
                if c == b')' || c == b']' {
                    depth += 1;
                } else if c == b'(' || c == b'[' {
                    depth -= 1;
                    if depth == 0 {
                        i -= 1;
                        closed = true;
                        break;
                    }
                }
                i -= 1;
            }
            if !closed {
                return None;
            }
            continue;
        }
        break;
    }
    let end = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == end {
        None
    } else {
        Some(stmt[i..end].to_string())
    }
}

/// `Some(name)` when the statement is a `let` (or `let mut`) binding.
fn let_binding(stmt: &str) -> Option<String> {
    let t = stmt.trim_start();
    let t = t.strip_prefix("let ")?.trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    let end = t
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(t.len());
    if end == 0 {
        None
    } else {
        Some(t[..end].to_string())
    }
}

/// Raw lock types banned in ranked crates: every lock goes through
/// `fbd_sync` so it carries a rank the runtime validator can check.
const RAW_TYPES: &[&str] = &["Mutex", "RwLock", "parking_lot"];

pub struct LockOrder;

impl Rule for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "lock acquisitions in ranked crates must follow LOCK_ORDER.manifest: \
         strictly ascending ranks, no undeclared or raw locks"
    }

    fn explain(&self) -> &'static str {
        "Why: the sharded scan engine, the TSDB store, and the ingest front-end \
take locks from multiple threads; two sites acquiring the same pair of locks \
in opposite orders deadlock only under the right interleaving, which in-production \
monitoring cannot afford to discover live. LOCK_ORDER.manifest declares every \
lock domain with a rank; holding rank R permits acquiring only ranks strictly \
greater than R, which makes the wait-for graph acyclic by construction.\n\
\n\
How it checks: guards are tracked over the cleaned token view with a brace-depth \
state machine (named guards live to end of block or `drop(g)`, chained temporaries \
to end of statement), and each `.lock()`/`.read()`/`.write()` is resolved to its \
domain via the receiver identifier listed under `recv=` in the manifest. \
Acquisitions that resolve to no domain, and raw `Mutex`/`RwLock`/`parking_lot` \
types, are also flagged — every lock in a ranked crate goes through \
`fbd_sync::OrderedMutex`/`OrderedRwLock` so the debug-build runtime validator \
sees the same hierarchy.\n\
\n\
Fix pattern: acquire in ascending rank order (restructure so the lower-ranked \
guard is dropped first, or re-rank the domains in LOCK_ORDER.manifest and \
`fbd_sync::LockDomain` together); name lock receivers after their manifest \
entry (`shard`, `inner`, `engine`, ...); wrap new locks in \
`fbd_sync::OrderedMutex::new(LockDomain::X, value)` and declare the domain in \
the manifest."
    }

    fn applies_to(&self, ctx: &FileContext) -> bool {
        ctx.kind == FileKind::Lib && LockManifest::embedded().covers_crate(&ctx.crate_name)
    }

    fn check(&self, clean: &CleanFile, ctx: &FileContext, sink: &mut Sink) {
        let manifest = LockManifest::embedded();
        for (idx, line) in clean.lines.iter().enumerate() {
            if ctx.is_test_line(idx) {
                continue;
            }
            for needle in RAW_TYPES {
                for at in token_starts(line, needle) {
                    let after = line.as_bytes().get(at + needle.len()).copied();
                    let ident_continues =
                        after.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
                    if !ident_continues {
                        sink.push(
                            idx,
                            self.name(),
                            format!(
                                "raw `{needle}` in a lock-ranked crate; use \
                                 fbd_sync::OrderedMutex/OrderedRwLock with a \
                                 LOCK_ORDER.manifest domain"
                            ),
                        );
                    }
                }
            }
        }
        for (idx, message) in analyze(clean, ctx, manifest).order {
            sink.push(idx, self.name(), message);
        }
    }
}

pub struct GuardAcrossBlocking;

impl Rule for GuardAcrossBlocking {
    fn name(&self) -> &'static str {
        "guard-across-blocking"
    }

    fn description(&self) -> &'static str {
        "no lock guard held across channel send/recv or across a call into \
         another crate's lock-taking entry point"
    }

    fn explain(&self) -> &'static str {
        "Why: a bounded-channel `send` blocks when the queue is full and `recv` \
blocks when it is empty; a guard held across either turns backpressure into \
lock contention — every other thread touching that lock stalls behind a \
consumer that may itself be waiting on the lock holder (a classic A/B \
deadlock through the channel). Similarly, calling into another supervised \
crate's public API while holding a guard lets the callee acquire its own \
locks under yours, creating cross-crate orderings no single crate can see.\n\
\n\
How it checks: the same guard tracker as `lock-order` watches for `.send(` \
and `.recv(` while any guard is live (`.try_send(`/`.try_recv(` are \
non-blocking and exempt), and for calls through receivers listed under \
`enters=` in LOCK_ORDER.manifest — those are flagged only when a held rank \
is not strictly below the entered domain's rank, so the documented \
engine-shard → store-shard read path stays legal.\n\
\n\
Fix pattern: compute the message first, drop the guard (end its block or \
`drop(g)`), then send; or switch the edge to `try_send` and count the \
shed points. For cross-crate calls, snapshot what you need out of the \
guard, release it, then call."
    }

    fn applies_to(&self, ctx: &FileContext) -> bool {
        ctx.kind == FileKind::Lib && LockManifest::embedded().covers_crate(&ctx.crate_name)
    }

    fn check(&self, clean: &CleanFile, ctx: &FileContext, sink: &mut Sink) {
        for (idx, message) in analyze(clean, ctx, LockManifest::embedded()).blocking {
            sink.push(idx, self.name(), message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::lexer::clean_source;

    #[test]
    fn embedded_manifest_parses_with_all_domains() {
        let m = LockManifest::parse(MANIFEST_SRC).expect("checked-in manifest must parse");
        assert_eq!(m.domains.len(), 5);
        assert!(m.covers_crate("fbdetect-core"));
        assert!(m.covers_crate("fbd-tsdb"));
        assert!(m.covers_crate("fbd-ingest"));
        assert!(!m.covers_crate("fbd-stats"));
        let store = m.resolve("fbd-tsdb", "shard").expect("store shard domain");
        assert_eq!(store.rank, 40);
        assert_eq!(store.enters, vec!["store".to_string()]);
    }

    #[test]
    fn manifest_rejects_non_ascending_ranks_and_missing_recv() {
        assert!(LockManifest::parse("20 b c recv=x\n10 a c recv=y\n").is_err());
        assert!(LockManifest::parse("10 a c\n").is_err());
        assert!(LockManifest::parse("10 a c recv=x bogus=1\n").is_err());
    }

    fn run_rule(rule: &dyn Rule, src: &str, rel: &str) -> Vec<crate::diagnostics::Diagnostic> {
        let clean = clean_source(src);
        let ctx = FileContext::classify(rel, &clean);
        let mut sink = Sink::new(rel);
        if rule.applies_to(&ctx) {
            rule.check(&clean, &ctx, &mut sink);
        }
        sink.diags
    }

    #[test]
    fn ascending_acquisition_is_clean() {
        let src = "fn f(engine: &E, quarantine: &Q) {\n    let mut engine = engine.lock();\n    let mut q = quarantine.lock();\n    q.push(engine.take());\n}\n";
        assert!(run_rule(&LockOrder, src, "crates/ingest/src/x.rs").is_empty());
    }

    #[test]
    fn descending_acquisition_is_flagged() {
        let src = "fn f(engine: &E, quarantine: &Q) {\n    let mut q = quarantine.lock();\n    let mut engine = engine.lock();\n}\n";
        let diags = run_rule(&LockOrder, src, "crates/ingest/src/x.rs");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("rank 10"));
        assert!(diags[0].message.contains("rank 20"));
    }

    #[test]
    fn drop_releases_named_guard() {
        let src = "fn f(engine: &E, quarantine: &Q) {\n    let mut q = quarantine.lock();\n    drop(q);\n    let mut engine = engine.lock();\n}\n";
        assert!(run_rule(&LockOrder, src, "crates/ingest/src/x.rs").is_empty());
    }

    #[test]
    fn block_close_releases_guard() {
        let src = "fn f(engine: &E, quarantine: &Q) {\n    {\n        let q = quarantine.lock();\n        q.len();\n    }\n    let e = engine.lock();\n}\n";
        assert!(run_rule(&LockOrder, src, "crates/ingest/src/x.rs").is_empty());
    }

    #[test]
    fn temporary_dies_at_statement_end() {
        let src = "fn f(engine: &E, quarantine: &Q) {\n    let n = quarantine.lock().len();\n    let e = engine.lock();\n}\n";
        assert!(run_rule(&LockOrder, src, "crates/ingest/src/x.rs").is_empty());
    }

    #[test]
    fn reacquiring_same_rank_while_held_is_flagged() {
        let src = "fn f(e: &ScanState) {\n    let a = e.shards[0].lock();\n    let b = e.shards[1].lock();\n}\n";
        let diags = run_rule(&LockOrder, src, "crates/core/src/x.rs");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("engine-shard"));
    }

    #[test]
    fn unresolved_receiver_is_flagged() {
        let src = "fn f(x: &M) {\n    let g = mystery.lock();\n}\n";
        let diags = run_rule(&LockOrder, src, "crates/tsdb/src/x.rs");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("mystery"));
    }

    #[test]
    fn raw_mutex_type_flagged_ordered_wrappers_not() {
        let src = "use fbd_sync::{LockDomain, OrderedMutex};\nstruct S { m: Mutex<u32> }\n";
        let diags = run_rule(&LockOrder, src, "crates/core/src/x.rs");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        let ok = "use fbd_sync::OrderedRwLock;\nfn f(g: &OrderedMutexGuard<u32>) {}\n";
        assert!(run_rule(&LockOrder, ok, "crates/core/src/x.rs").is_empty());
    }

    #[test]
    fn receiver_extraction_handles_index_and_call_chains() {
        assert_eq!(
            extract_receiver("let mut guard = self.shards[idx % self.shards.len()]"),
            Some("shards".to_string())
        );
        assert_eq!(
            extract_receiver("let shard = self.shard(id)"),
            Some("shard".to_string())
        );
        assert_eq!(
            extract_receiver("match snapshots.get(i).and_then(|slot| slot"),
            Some("slot".to_string())
        );
        assert_eq!(extract_receiver(""), None);
    }

    #[test]
    fn guard_across_send_is_flagged_try_send_is_not() {
        let src = "fn f(engine: &E, tx: &Sender<u32>) {\n    let g = engine.lock();\n    tx.send(g.id());\n}\n";
        let diags = run_rule(&GuardAcrossBlocking, src, "crates/ingest/src/x.rs");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains(".send("));
        let ok = "fn f(engine: &E, tx: &Sender<u32>) {\n    let g = engine.lock();\n    let _ = tx.try_send(g.id());\n}\n";
        assert!(run_rule(&GuardAcrossBlocking, ok, "crates/ingest/src/x.rs").is_empty());
    }

    #[test]
    fn enters_call_flagged_only_at_equal_or_higher_rank() {
        // engine-shard (30) entering store (40) is the documented legal edge.
        let legal = "fn f(s: &ScanState, store: &T) {\n    let mut guard = s.shards[0].lock();\n    let d = store.snapshot_deltas(&guard.ids);\n}\n";
        assert!(run_rule(&GuardAcrossBlocking, legal, "crates/core/src/x.rs").is_empty());
        // ingest-progress (60) entering store (40) inverts across the boundary.
        let bad = "fn f(p: &Progress, store: &T) {\n    let state = p.state.lock();\n    let n = store.series_count() + state.0;\n}\n";
        let diags = run_rule(&GuardAcrossBlocking, bad, "crates/ingest/src/x.rs");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("ingest-progress"));
        assert!(diags[0].message.contains("store-shard"));
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(e: &E, q: &Q) {\n        let q = quarantine.lock();\n        let e = engine.lock();\n    }\n}\n";
        assert!(run_rule(&LockOrder, src, "crates/ingest/src/x.rs").is_empty());
    }
}
