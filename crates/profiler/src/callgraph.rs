//! Weighted call-graph model of a service.
//!
//! A service's code is modelled as a tree of subroutines. Each node carries
//! a *self weight* — the relative CPU time spent in the subroutine's own
//! code — and children it invokes. A stack-trace sample is a root-to-frame
//! path drawn with probability proportional to the weights, exactly what a
//! wall-clock sampling profiler observes. Cost shifts (code refactoring
//! moving work between subroutines, §5.4) are modelled by moving self
//! weight between nodes.

use crate::{ProfilerError, Result};

/// Index of a subroutine within a [`CallGraph`].
pub type FrameId = usize;

/// A subroutine node in the call graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Fully qualified subroutine name, e.g. `"RequestHandler::decode"`.
    pub name: String,
    /// Class (or module) the subroutine belongs to, used as a cost domain
    /// by the cost-shift detector (§5.4). Empty if free-standing.
    pub class: String,
    /// Relative CPU time spent in this subroutine's own code.
    pub self_weight: f64,
    /// Children invoked by this subroutine.
    pub children: Vec<FrameId>,
    /// Parent frame, if any (the root has none).
    pub parent: Option<FrameId>,
}

/// A weighted call tree describing where a service spends CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct CallGraph {
    frames: Vec<Frame>,
    root: FrameId,
}

impl CallGraph {
    /// The root frame id.
    pub fn root(&self) -> FrameId {
        self.root
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the graph has no frames (never true for built graphs).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The frame with the given id.
    pub fn frame(&self, id: FrameId) -> Result<&Frame> {
        self.frames.get(id).ok_or(ProfilerError::UnknownFrame(id))
    }

    /// Looks up a frame id by subroutine name.
    pub fn frame_by_name(&self, name: &str) -> Result<FrameId> {
        self.frames
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| ProfilerError::UnknownSubroutine(name.to_string()))
    }

    /// All frame names, indexed by frame id.
    pub fn names(&self) -> Vec<&str> {
        self.frames.iter().map(|f| f.name.as_str()).collect()
    }

    /// Inclusive weight of a frame: its self weight plus all descendants'.
    pub fn inclusive_weight(&self, id: FrameId) -> Result<f64> {
        let frame = self.frame(id)?;
        let mut total = frame.self_weight;
        for &child in &frame.children {
            total += self.inclusive_weight(child)?;
        }
        Ok(total)
    }

    /// Total weight of the whole graph.
    pub fn total_weight(&self) -> f64 {
        self.inclusive_weight(self.root).unwrap_or(0.0)
    }

    /// The expected gCPU of a subroutine: its inclusive weight over the
    /// total (this is the quantity stack-trace sampling estimates).
    pub fn expected_gcpu(&self, id: FrameId) -> Result<f64> {
        let total = self.total_weight();
        if total <= 0.0 {
            return Err(ProfilerError::EmptyCallGraph);
        }
        Ok(self.inclusive_weight(id)? / total)
    }

    /// Adds `delta` to a frame's self weight (used to inject regressions).
    ///
    /// The resulting weight must stay non-negative.
    pub fn adjust_self_weight(&mut self, id: FrameId, delta: f64) -> Result<()> {
        if !delta.is_finite() {
            return Err(ProfilerError::InvalidWeight("delta must be finite"));
        }
        let frame = self
            .frames
            .get_mut(id)
            .ok_or(ProfilerError::UnknownFrame(id))?;
        let new = frame.self_weight + delta;
        if new < 0.0 {
            return Err(ProfilerError::InvalidWeight(
                "self weight would become negative",
            ));
        }
        frame.self_weight = new;
        Ok(())
    }

    /// Moves `amount` of self weight from one frame to another — a *cost
    /// shift* (§5.4): total cost is unchanged but the destination appears
    /// to regress.
    pub fn shift_cost(&mut self, from: FrameId, to: FrameId, amount: f64) -> Result<()> {
        if amount < 0.0 || !amount.is_finite() {
            return Err(ProfilerError::InvalidWeight("shift must be non-negative"));
        }
        self.adjust_self_weight(from, -amount)?;
        // Roll back is unnecessary: the second adjust can only fail on an
        // unknown id, which we check first.
        self.frame(to)?;
        self.adjust_self_weight(to, amount)
    }

    /// The path of frame ids from the root to `id`, inclusive.
    pub fn path_to_root(&self, id: FrameId) -> Result<Vec<FrameId>> {
        let mut path = vec![id];
        let mut current = id;
        while let Some(parent) = self.frame(current)?.parent {
            path.push(parent);
            current = parent;
        }
        path.reverse();
        Ok(path)
    }

    /// All frames sharing the given class name — a class cost domain (§5.4).
    pub fn frames_in_class(&self, class: &str) -> Vec<FrameId> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.class == class)
            .map(|(i, _)| i)
            .collect()
    }

    /// All descendant frame ids of `id` (excluding `id` itself).
    pub fn descendants(&self, id: FrameId) -> Result<Vec<FrameId>> {
        let mut out = Vec::new();
        let mut stack = self.frame(id)?.children.clone();
        while let Some(next) = stack.pop() {
            out.push(next);
            stack.extend(self.frame(next)?.children.iter().copied());
        }
        Ok(out)
    }
}

/// Builder for [`CallGraph`].
///
/// # Examples
///
/// ```
/// use fbd_profiler::CallGraphBuilder;
/// let mut b = CallGraphBuilder::new("main", 1.0);
/// let handler = b.add_child(b.root(), "handle_request", 2.0, "Server").unwrap();
/// b.add_child(handler, "decode", 3.0, "Codec").unwrap();
/// let graph = b.build().unwrap();
/// assert_eq!(graph.len(), 3);
/// assert!((graph.total_weight() - 6.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CallGraphBuilder {
    frames: Vec<Frame>,
}

impl CallGraphBuilder {
    /// Starts a graph with a root subroutine.
    pub fn new(root_name: impl Into<String>, root_self_weight: f64) -> Self {
        CallGraphBuilder {
            frames: vec![Frame {
                name: root_name.into(),
                class: String::new(),
                self_weight: root_self_weight,
                children: Vec::new(),
                parent: None,
            }],
        }
    }

    /// The root frame id (always 0).
    pub fn root(&self) -> FrameId {
        0
    }

    /// Adds a child subroutine under `parent` and returns its id.
    pub fn add_child(
        &mut self,
        parent: FrameId,
        name: impl Into<String>,
        self_weight: f64,
        class: impl Into<String>,
    ) -> Result<FrameId> {
        if !self_weight.is_finite() || self_weight < 0.0 {
            return Err(ProfilerError::InvalidWeight(
                "self weight must be finite and non-negative",
            ));
        }
        if parent >= self.frames.len() {
            return Err(ProfilerError::UnknownFrame(parent));
        }
        let id = self.frames.len();
        self.frames.push(Frame {
            name: name.into(),
            class: class.into(),
            self_weight,
            children: Vec::new(),
            parent: Some(parent),
        });
        self.frames[parent].children.push(id);
        Ok(id)
    }

    /// Finishes the graph.
    pub fn build(self) -> Result<CallGraph> {
        if self.frames.is_empty() {
            return Err(ProfilerError::EmptyCallGraph);
        }
        let graph = CallGraph {
            frames: self.frames,
            root: 0,
        };
        if graph.total_weight() <= 0.0 {
            return Err(ProfilerError::EmptyCallGraph);
        }
        Ok(graph)
    }
}

/// Builds a synthetic service call graph with `k` leaf subroutines of equal
/// weight under a small dispatch hierarchy — the §2 simulation setup where
/// process CPU is distributed across `k` subroutines.
pub fn uniform_service_graph(k: usize, total_weight: f64) -> Result<CallGraph> {
    if k == 0 {
        return Err(ProfilerError::EmptyCallGraph);
    }
    let mut b = CallGraphBuilder::new("main", 0.0);
    let dispatch = b.add_child(0, "dispatch", 0.0, "Runtime")?;
    let per_leaf = total_weight / k as f64;
    for i in 0..k {
        b.add_child(
            dispatch,
            format!("subroutine_{i:05}"),
            per_leaf,
            format!("Module{:03}", i % 97),
        )?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_graph() -> CallGraph {
        // main(1) -> a(2) -> c(4)
        //         -> b(3)
        let mut b = CallGraphBuilder::new("main", 1.0);
        let a = b.add_child(0, "a", 2.0, "A").unwrap();
        b.add_child(0, "b", 3.0, "B").unwrap();
        b.add_child(a, "c", 4.0, "A").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn inclusive_weights() {
        let g = demo_graph();
        assert_eq!(g.total_weight().to_bits(), 10.0_f64.to_bits());
        let a = g.frame_by_name("a").unwrap();
        assert_eq!(g.inclusive_weight(a).unwrap().to_bits(), 6.0_f64.to_bits());
        let c = g.frame_by_name("c").unwrap();
        assert_eq!(g.inclusive_weight(c).unwrap().to_bits(), 4.0_f64.to_bits());
    }

    #[test]
    fn expected_gcpu_fractions() {
        let g = demo_graph();
        let a = g.frame_by_name("a").unwrap();
        assert!((g.expected_gcpu(a).unwrap() - 0.6).abs() < 1e-12);
        assert!((g.expected_gcpu(g.root()).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cost_shift_preserves_total() {
        let mut g = demo_graph();
        let b_id = g.frame_by_name("b").unwrap();
        let c_id = g.frame_by_name("c").unwrap();
        let before = g.total_weight();
        g.shift_cost(b_id, c_id, 2.0).unwrap();
        assert_eq!(g.total_weight().to_bits(), before.to_bits());
        assert_eq!(g.frame(b_id).unwrap().self_weight.to_bits(), 1.0_f64.to_bits());
        assert_eq!(g.frame(c_id).unwrap().self_weight.to_bits(), 6.0_f64.to_bits());
    }

    #[test]
    fn cost_shift_cannot_go_negative() {
        let mut g = demo_graph();
        let b_id = g.frame_by_name("b").unwrap();
        let c_id = g.frame_by_name("c").unwrap();
        assert!(g.shift_cost(b_id, c_id, 100.0).is_err());
    }

    #[test]
    fn path_to_root() {
        let g = demo_graph();
        let c = g.frame_by_name("c").unwrap();
        let path = g.path_to_root(c).unwrap();
        let names: Vec<&str> = path
            .iter()
            .map(|&id| g.frame(id).unwrap().name.as_str())
            .collect();
        assert_eq!(names, vec!["main", "a", "c"]);
    }

    #[test]
    fn class_domain_lookup() {
        let g = demo_graph();
        let class_a = g.frames_in_class("A");
        assert_eq!(class_a.len(), 2);
    }

    #[test]
    fn descendants_of_root() {
        let g = demo_graph();
        assert_eq!(g.descendants(g.root()).unwrap().len(), 3);
        let c = g.frame_by_name("c").unwrap();
        assert!(g.descendants(c).unwrap().is_empty());
    }

    #[test]
    fn uniform_graph_is_balanced() {
        let g = uniform_service_graph(100, 50.0).unwrap();
        assert_eq!(g.len(), 102);
        assert!((g.total_weight() - 50.0).abs() < 1e-9);
        let first = g.frame_by_name("subroutine_00000").unwrap();
        assert!((g.expected_gcpu(first).unwrap() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        let mut b = CallGraphBuilder::new("main", 1.0);
        assert!(b.add_child(99, "x", 1.0, "").is_err());
        assert!(b.add_child(0, "x", -1.0, "").is_err());
        assert!(b.add_child(0, "x", f64::NAN, "").is_err());
        assert!(uniform_service_graph(0, 1.0).is_err());
    }
}
