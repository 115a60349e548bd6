//! Property-based tests for the profiling substrate.

use fbd_profiler::callgraph::{uniform_service_graph, CallGraphBuilder};
use fbd_profiler::gcpu::{stack_trace_overlap, GcpuTable};
use fbd_profiler::overhead::{compress, decompress};
use fbd_profiler::pyperf::{reconstruct, scalene_view, synthesize_stacks, MergedFrame};
use fbd_profiler::sample::{StackSample, TraceSampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arbitrary_samples() -> impl Strategy<Value = Vec<StackSample>> {
    prop::collection::vec(
        prop::collection::vec(0usize..12, 1..6).prop_map(|trace| StackSample {
            trace,
            timestamp: 0,
            server: 0,
            metadata: vec![],
        }),
        1..60,
    )
}

proptest! {
    #[test]
    fn gcpu_values_are_probabilities(samples in arbitrary_samples()) {
        let t = GcpuTable::from_samples(&samples).unwrap();
        for (_, g) in t.all_gcpu() {
            prop_assert!((0.0..=1.0).contains(&g));
        }
        // The root-most frame of every trace is counted: max gCPU ≤ 1.
        prop_assert!(t.all_gcpu().iter().all(|&(_, g)| g <= 1.0));
    }

    #[test]
    fn overlap_symmetric_and_bounded(samples in arbitrary_samples(), a in 0usize..12, b in 0usize..12) {
        let o1 = stack_trace_overlap(&samples, a, b).unwrap();
        let o2 = stack_trace_overlap(&samples, b, a).unwrap();
        prop_assert!((o1 - o2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&o1));
        // Self-overlap is 1 when the frame appears at all.
        let self_overlap = stack_trace_overlap(&samples, a, a).unwrap();
        let appears = samples.iter().any(|s| s.contains(a));
        prop_assert_eq!(self_overlap.to_bits() == 1.0_f64.to_bits(), appears);
    }

    #[test]
    fn uniform_graph_gcpu_sums(k in 1usize..50, weight in 0.1f64..10.0) {
        let g = uniform_service_graph(k, weight).unwrap();
        prop_assert!((g.total_weight() - weight).abs() < 1e-9);
        // Leaf gCPUs sum to 1 (they partition the weight).
        let mut sum = 0.0;
        for id in 0..g.len() {
            if g.frame(id).unwrap().children.is_empty() {
                sum += g.expected_gcpu(id).unwrap();
            }
        }
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_distribution_tracks_weights(w1 in 0.1f64..5.0, w2 in 0.1f64..5.0) {
        let mut b = CallGraphBuilder::new("main", 0.0);
        b.add_child(0, "a", w1, "").unwrap();
        b.add_child(0, "b", w2, "").unwrap();
        let g = b.build().unwrap();
        let sampler = TraceSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let a_id = g.frame_by_name("a").unwrap();
        let hits = (0..n)
            .filter(|_| sampler.sample_trace(&mut rng).contains(&a_id))
            .count();
        let expected = w1 / (w1 + w2);
        let got = hits as f64 / n as f64;
        prop_assert!((got - expected).abs() < 0.03, "expected {expected}, got {got}");
    }

    #[test]
    fn cost_shift_keeps_total_invariant(
        k in 3usize..20,
        from in 0usize..20,
        to in 0usize..20,
        amount in 0.0f64..0.01,
    ) {
        let mut g = uniform_service_graph(k, 1.0).unwrap();
        // Map into leaf range (leaves start at id 2).
        let from = 2 + from % k;
        let to = 2 + to % k;
        let before = g.total_weight();
        if g.shift_cost(from, to, amount).is_ok() {
            prop_assert!((g.total_weight() - before).abs() < 1e-9);
        }
    }

    #[test]
    fn pyperf_reconstruction_exact(depth in 1usize..20, with_native: bool) {
        let chain: Vec<String> = (0..depth).map(|d| format!("f{d}")).collect();
        let refs: Vec<&str> = chain.iter().map(String::as_str).collect();
        let captured = synthesize_stacks(&refs, with_native.then_some("native_leaf"));
        let merged = reconstruct(&captured).unwrap();
        let python: Vec<&str> = merged
            .iter()
            .filter_map(|f| match f {
                MergedFrame::Python(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        prop_assert_eq!(python, refs.clone());
        let (scalene, attributed) = scalene_view(&captured);
        prop_assert_eq!(scalene, chain);
        prop_assert_eq!(attributed, with_native);
    }

    #[test]
    fn compression_roundtrip(data in prop::collection::vec(any::<u8>(), 0..2_000)) {
        prop_assert_eq!(decompress(&compress(&data)), data);
    }
}
