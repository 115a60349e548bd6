//! gCPU derivation from stack-trace samples (§2, §4).
//!
//! "If 100 stack-trace samples are collected for a service, and a subroutine
//! `foo` appears in 8 of these samples, the normalized CPU usage of `foo` is
//! calculated as 8%." The gCPU of a subroutine is *inclusive*: it counts
//! samples where the subroutine appears anywhere in the trace, covering its
//! own code and everything it transitively invokes.

use crate::callgraph::FrameId;
use crate::sample::StackSample;
use crate::{ProfilerError, Result};
use std::collections::HashMap;

/// Per-subroutine gCPU values derived from a batch of samples.
#[derive(Debug, Clone, Default)]
pub struct GcpuTable {
    counts: HashMap<FrameId, usize>,
    total_samples: usize,
}

impl GcpuTable {
    /// Tallies a batch of samples. Each frame is counted at most once per
    /// sample even if recursion repeats it in the trace.
    pub fn from_samples(samples: &[StackSample]) -> Result<Self> {
        if samples.is_empty() {
            return Err(ProfilerError::NoSamples);
        }
        let mut counts: HashMap<FrameId, usize> = HashMap::new();
        let mut seen: Vec<FrameId> = Vec::new();
        for s in samples {
            seen.clear();
            for &f in &s.trace {
                if !seen.contains(&f) {
                    seen.push(f);
                    *counts.entry(f).or_insert(0) += 1;
                }
            }
        }
        Ok(GcpuTable {
            counts,
            total_samples: samples.len(),
        })
    }

    /// Number of samples the table was built from.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// gCPU of a subroutine: the fraction of samples containing it.
    pub fn gcpu(&self, frame: FrameId) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.counts.get(&frame).copied().unwrap_or(0) as f64 / self.total_samples as f64
        }
    }

    /// Raw sample count for a subroutine.
    pub fn count(&self, frame: FrameId) -> usize {
        self.counts.get(&frame).copied().unwrap_or(0)
    }

    /// All frames observed at least once, with their gCPU, sorted by frame.
    pub fn all_gcpu(&self) -> Vec<(FrameId, f64)> {
        let mut v: Vec<(FrameId, f64)> = self
            .counts
            .iter()
            .map(|(&f, &c)| (f, c as f64 / self.total_samples as f64))
            .collect();
        v.sort_by_key(|&(f, _)| f);
        v
    }

    /// Frames whose gCPU is at least `threshold` — the paper's "non-trivial"
    /// subroutines are those with gCPU ≥ 0.001% (§2).
    pub fn non_trivial(&self, threshold: f64) -> Vec<(FrameId, f64)> {
        self.all_gcpu()
            .into_iter()
            .filter(|&(_, g)| g >= threshold)
            .collect()
    }

    /// The *popularity score* of a subroutine — the probability that it
    /// appears in a random stack-trace sample (used by `ImportanceScore`,
    /// §5.5.1). Identical to gCPU by definition.
    pub fn popularity(&self, frame: FrameId) -> f64 {
        self.gcpu(frame)
    }
}

/// Stack-trace overlap between two subroutines: the fraction of samples used
/// by either that contain *both* (Jaccard on sample sets). A PairwiseDedup
/// feature (§5.5.2).
pub fn stack_trace_overlap(samples: &[StackSample], a: FrameId, b: FrameId) -> Result<f64> {
    if samples.is_empty() {
        return Err(ProfilerError::NoSamples);
    }
    let mut only_a = 0usize;
    let mut only_b = 0usize;
    let mut both = 0usize;
    for s in samples {
        let has_a = s.contains(a);
        let has_b = s.contains(b);
        match (has_a, has_b) {
            (true, true) => both += 1,
            (true, false) => only_a += 1,
            (false, true) => only_b += 1,
            (false, false) => {}
        }
    }
    let union = only_a + only_b + both;
    if union == 0 {
        Ok(0.0)
    } else {
        Ok(both as f64 / union as f64)
    }
}

/// gCPU restricted to samples that satisfy a predicate (e.g. samples whose
/// metadata carries a particular annotation — metadata-annotated regressions
/// of §3).
pub fn gcpu_filtered<P>(samples: &[StackSample], frame: FrameId, predicate: P) -> Result<f64>
where
    P: Fn(&StackSample) -> bool,
{
    if samples.is_empty() {
        return Err(ProfilerError::NoSamples);
    }
    let mut matching = 0usize;
    let mut containing = 0usize;
    for s in samples {
        if predicate(s) {
            matching += 1;
            if s.contains(frame) {
                containing += 1;
            }
        }
    }
    if matching == 0 {
        Ok(0.0)
    } else {
        Ok(containing as f64 / matching as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(trace: &[FrameId]) -> StackSample {
        StackSample {
            trace: trace.to_vec(),
            timestamp: 0,
            server: 0,
            metadata: Vec::new(),
        }
    }

    #[test]
    fn paper_eight_percent_example() {
        // 100 samples, frame 7 appears in 8 of them -> gCPU 8%.
        let mut samples = Vec::new();
        for i in 0..100 {
            if i < 8 {
                samples.push(sample(&[0, 7]));
            } else {
                samples.push(sample(&[0, 1]));
            }
        }
        let t = GcpuTable::from_samples(&samples).unwrap();
        assert!((t.gcpu(7) - 0.08).abs() < 1e-12);
        assert!((t.gcpu(0) - 1.0).abs() < 1e-12);
        assert_eq!(t.count(7), 8);
    }

    #[test]
    fn recursion_counted_once() {
        let samples = vec![sample(&[0, 1, 1, 1])];
        let t = GcpuTable::from_samples(&samples).unwrap();
        assert_eq!(t.count(1), 1);
        assert_eq!(t.gcpu(1).to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn non_trivial_threshold() {
        let mut samples = vec![sample(&[0, 1]); 999];
        samples.push(sample(&[0, 2]));
        let t = GcpuTable::from_samples(&samples).unwrap();
        // Frame 2 has gCPU 0.001.
        let nt = t.non_trivial(0.01);
        assert!(nt.iter().all(|&(f, _)| f != 2));
        let nt = t.non_trivial(0.0005);
        assert!(nt.iter().any(|&(f, _)| f == 2));
    }

    #[test]
    fn overlap_of_caller_and_callee_is_high() {
        // b is only ever called through a: overlap(a, b) counts samples
        // containing either; all b-samples contain a.
        let samples = vec![
            sample(&[0, 1, 2]), // a=1, b=2.
            sample(&[0, 1, 2]),
            sample(&[0, 1]),
            sample(&[0, 3]),
        ];
        let o = stack_trace_overlap(&samples, 1, 2).unwrap();
        assert!((o - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_of_disjoint_frames_is_zero() {
        let samples = vec![sample(&[0, 1]), sample(&[0, 2])];
        assert_eq!(stack_trace_overlap(&samples, 1, 2).unwrap().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn overlap_unobserved_frames_zero() {
        let samples = vec![sample(&[0, 1])];
        assert_eq!(stack_trace_overlap(&samples, 5, 6).unwrap().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn filtered_gcpu_by_metadata() {
        let mut with_meta = sample(&[0, 1]);
        with_meta.metadata.push((1, "user_category:vip".into()));
        let samples = vec![with_meta, sample(&[0, 1]), sample(&[0, 2])];
        let g = gcpu_filtered(&samples, 1, |s| {
            s.metadata
                .iter()
                .any(|(_, m)| m.starts_with("user_category:"))
        })
        .unwrap();
        assert_eq!(g.to_bits(), 1.0_f64.to_bits());
        let g_all = gcpu_filtered(&samples, 1, |_| true).unwrap();
        assert!((g_all - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_samples_error() {
        assert!(GcpuTable::from_samples(&[]).is_err());
        assert!(stack_trace_overlap(&[], 0, 1).is_err());
    }
}
