//! Determinism rules.
//!
//! `hash-order`: `HashMap`/`HashSet` iteration order is randomized per
//! process (SipHash keys), so any hash collection in the crates that build
//! ordered or serialized output (`fbdetect-core`, `fbd-tsdb`,
//! `fbd-changelog`, `fbd-ingest`) or compute the numbers that output
//! carries (`fbd-stats`, `fbd-cluster`) is one `.iter()` away from breaking
//! the bit-identical fingerprint guarantee: a float sum in hash order
//! differs in its last bits from run to run. Use `BTreeMap`/`BTreeSet`, or keep the hash map
//! and suppress with a reason proving its order never escapes.
//!
//! `nondet-source`: `fbd-fleet` simulations and the `fbd-ingest` replay
//! path are seed-deterministic — the same `FleetSpec` seed must produce
//! the same series bytes forever, and the same batch sequence must yield
//! the same store contents and stats. Wall clocks and OS entropy
//! (`Instant::now`, `SystemTime::now`, `thread_rng`, …) smuggle
//! nondeterminism into that contract.

use super::{for_each_code_line, token_starts, Rule, Sink};
use crate::context::{FileContext, FileKind};
use crate::lexer::CleanFile;

pub struct HashOrder;

/// Crates whose library code feeds ordered or serialized output, or the
/// numbers it carries.
const ORDERED_OUTPUT_CRATES: &[&str] = &[
    "fbdetect-core",
    "fbd-tsdb",
    "fbd-changelog",
    "fbd-ingest",
    "fbd-stats",
    "fbd-cluster",
];

impl Rule for HashOrder {
    fn name(&self) -> &'static str {
        "hash-order"
    }

    fn description(&self) -> &'static str {
        "no HashMap/HashSet in crates that produce ordered/serialized output; \
         use BTreeMap/BTreeSet or sort explicitly"
    }

    fn explain(&self) -> &'static str {
        "Why: `HashMap`/`HashSet` iteration order is randomized per process \
(SipHash keys), and the crates this rule covers build ordered or serialized \
output — fingerprints, snapshots, wire frames — that must be bit-identical \
across runs. One `.iter()` over a hash collection on such a path breaks the \
reproducibility the proptests pin.\n\
\n\
How it checks: any `HashMap`/`HashSet` token in the library code of the \
ordered-output crates is flagged (longer identifiers like `HashMapExt` are \
not).\n\
\n\
Fix pattern: `BTreeMap`/`BTreeSet`, or collect and sort before emitting; a \
hash map whose order provably never escapes can stay with \
`// fbd-lint::allow(hash-order): <why order never escapes>`."
    }

    fn applies_to(&self, ctx: &FileContext) -> bool {
        ctx.kind == FileKind::Lib && ORDERED_OUTPUT_CRATES.contains(&ctx.crate_name.as_str())
    }

    fn check(&self, clean: &CleanFile, ctx: &FileContext, sink: &mut Sink) {
        for_each_code_line(clean, ctx, |idx, line| {
            for ty in ["HashMap", "HashSet"] {
                let hit = token_starts(line, ty).iter().any(|&at| {
                    // Exclude longer identifiers like `HashMapExt`.
                    let after = line[at + ty.len()..].chars().next();
                    !matches!(after, Some(c) if c.is_alphanumeric() || c == '_')
                });
                if hit {
                    sink.push(
                        idx,
                        self.name(),
                        format!(
                            "`{ty}` iteration order is nondeterministic and this crate \
                             feeds serialized output; use BTree{} or sort before emitting",
                            &ty[4..]
                        ),
                    );
                }
            }
        });
    }
}

pub struct NondetSource;

/// Tokens that read wall clocks or OS entropy.
const SOURCES: &[(&str, &str)] = &[
    ("Instant::now", "wall clock"),
    ("SystemTime::now", "wall clock"),
    ("thread_rng", "OS-seeded RNG"),
    ("from_entropy", "OS-seeded RNG"),
    ("rand::random", "OS-seeded RNG"),
    ("RandomState", "randomized hasher state"),
];

impl Rule for NondetSource {
    fn name(&self) -> &'static str {
        "nondet-source"
    }

    fn description(&self) -> &'static str {
        "no wall clocks or OS entropy in the seed-deterministic simulation \
         (fbd-fleet) and ingest replay (fbd-ingest) paths"
    }

    fn explain(&self) -> &'static str {
        "Why: the fleet simulation and the ingest replay path are \
seed-deterministic by contract — the same `FleetSpec` seed must produce the \
same series bytes forever, and replaying the same batch sequence must yield \
the same store contents and stats. Wall clocks and OS entropy smuggle \
nondeterminism into that contract, turning reproducible experiments into \
unreproducible ones.\n\
\n\
How it checks: `Instant::now`, `SystemTime::now`, `thread_rng`, \
`from_entropy`, `rand::random`, and `RandomState` tokens are flagged in \
`fbd-fleet` and `fbd-ingest` library code.\n\
\n\
Fix pattern: derive randomness from the `FleetSpec` seed (split streams per \
host/series), and thread simulated time (`collected_at`) instead of reading \
clocks."
    }

    fn applies_to(&self, ctx: &FileContext) -> bool {
        ctx.kind == FileKind::Lib
            && (ctx.crate_name == "fbd-fleet" || ctx.crate_name == "fbd-ingest")
    }

    fn check(&self, clean: &CleanFile, ctx: &FileContext, sink: &mut Sink) {
        for_each_code_line(clean, ctx, |idx, line| {
            for (needle, what) in SOURCES {
                if !token_starts(line, needle).is_empty() {
                    sink.push(
                        idx,
                        self.name(),
                        format!(
                            "`{needle}` injects {what} into the seed-deterministic \
                             simulation; derive everything from the FleetSpec seed"
                        ),
                    );
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::diagnostics::Diagnostic;
    use crate::lexer::clean_source;

    fn run_rule(rule: &dyn Rule, src: &str, rel_path: &str) -> Vec<Diagnostic> {
        let clean = clean_source(src);
        let ctx = FileContext::classify(rel_path, &clean);
        let mut sink = Sink::new(rel_path);
        if rule.applies_to(&ctx) {
            rule.check(&clean, &ctx, &mut sink);
        }
        sink.diags
    }

    #[test]
    fn flags_hashmap_in_core_stats_and_cluster_but_not_fleet() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        for path in [
            "crates/core/src/a.rs",
            "crates/stats/src/a.rs",
            "crates/cluster/src/a.rs",
        ] {
            let d = run_rule(&HashOrder, src, path);
            assert_eq!(d.len(), 2, "{path}"); // one per line, not per occurrence
        }
        assert!(run_rule(&HashOrder, src, "crates/fleet/src/a.rs").is_empty());
    }

    #[test]
    fn btree_passes_and_longer_idents_ignored() {
        let src = "use std::collections::BTreeMap;\nstruct HashMapExt;\n";
        assert!(run_rule(&HashOrder, src, "crates/core/src/a.rs").is_empty());
    }

    #[test]
    fn flags_wall_clock_in_fleet_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(run_rule(&NondetSource, src, "crates/fleet/src/a.rs").len(), 1);
        assert!(run_rule(&NondetSource, src, "crates/core/src/a.rs").is_empty());
    }

    #[test]
    fn flags_thread_rng_in_fleet() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(run_rule(&NondetSource, src, "crates/fleet/src/a.rs").len(), 1);
    }
}
