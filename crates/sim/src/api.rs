//! API endpoints as probabilistic invocation trees.

use serde::{Deserialize, Serialize};

/// When a child call is made.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    /// Always invoked.
    Always,
    /// Invoked with the given probability (e.g. cache miss rates).
    Prob(f64),
    /// Invoked when the request's post embeds a URL.
    HasUrl,
    /// Invoked when the request's post mentions another user.
    HasMention,
    /// Invoked when the request carries media.
    HasMedia,
}

/// How many times a child call is repeated when its condition holds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Repeat {
    /// Exactly once.
    Once,
    /// A fixed number of times.
    Fixed(u32),
    /// Scaled by the request's social fan-out: `ceil(fanout × scale)`,
    /// capped at `max` (batching in the real application caps per-request
    /// span counts the same way).
    PerFanout {
        /// Invocations per unit of fan-out.
        scale: f64,
        /// Upper bound on invocations.
        max: u32,
    },
}

/// A call edge: child node + invocation condition + repetition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CallEdge {
    /// The callee.
    pub node: CallNode,
    /// When the call happens.
    pub condition: Condition,
    /// How many times it happens.
    pub repeat: Repeat,
}

/// A node of an API's invocation tree: one operation on one component and
/// the calls it makes downstream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CallNode {
    /// Component name.
    pub component: String,
    /// Operation name.
    pub operation: String,
    /// Downstream calls in execution order.
    pub children: Vec<CallEdge>,
}

impl CallNode {
    /// Creates a leaf call node.
    pub fn new(component: impl Into<String>, operation: impl Into<String>) -> Self {
        Self {
            component: component.into(),
            operation: operation.into(),
            children: Vec::new(),
        }
    }

    /// Builder: adds an unconditional single child call.
    pub fn child(self, node: CallNode) -> Self {
        self.child_edge(node, Condition::Always, Repeat::Once)
    }

    /// Builder: adds a conditional child call.
    pub(crate) fn child_if(self, condition: Condition, node: CallNode) -> Self {
        self.child_edge(node, condition, Repeat::Once)
    }

    /// Builder: adds a repeated child call.
    pub(crate) fn child_repeat(self, repeat: Repeat, node: CallNode) -> Self {
        self.child_edge(node, Condition::Always, repeat)
    }

    /// Builder: adds a fully specified child edge.
    pub(crate) fn child_edge(
        mut self,
        node: CallNode,
        condition: Condition,
        repeat: Repeat,
    ) -> Self {
        self.children.push(CallEdge {
            node,
            condition,
            repeat,
        });
        self
    }

    /// Visits every node in the static tree.
    pub(crate) fn visit(&self, f: &mut impl FnMut(&CallNode)) {
        f(self);
        for e in &self.children {
            e.node.visit(f);
        }
    }
}

/// One exposed API endpoint.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ApiSpec {
    /// Endpoint path, e.g. `/composePost`.
    pub endpoint: String,
    /// Default share of traffic in the application's standard workload mix.
    pub default_weight: f64,
    /// The invocation tree rooted at the entry component.
    pub root: CallNode,
    /// Whether requests to this endpoint carry a media payload.
    pub carries_media: bool,
    /// Whether requests to this endpoint carry post text.
    pub carries_text: bool,
    /// Whether this endpoint's work scales with the caller's social fan-out.
    pub uses_fanout: bool,
}

impl ApiSpec {
    /// Creates an API endpoint with no payload flags.
    pub fn new(endpoint: impl Into<String>, default_weight: f64, root: CallNode) -> Self {
        Self {
            endpoint: endpoint.into(),
            default_weight,
            root,
            carries_media: false,
            carries_text: false,
            uses_fanout: false,
        }
    }

    /// Builder: marks the endpoint as carrying media payloads.
    pub(crate) fn with_media(mut self) -> Self {
        self.carries_media = true;
        self
    }

    /// Builder: marks the endpoint as carrying post text.
    pub(crate) fn with_text(mut self) -> Self {
        self.carries_text = true;
        self
    }

    /// Builder: marks the endpoint as fan-out-driven.
    pub(crate) fn with_fanout(mut self) -> Self {
        self.uses_fanout = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_trees() {
        let tree = CallNode::new("Frontend", "compose")
            .child(
                CallNode::new("ComposePost", "compose")
                    .child_if(Condition::HasUrl, CallNode::new("UrlShorten", "shorten"))
                    .child_repeat(
                        Repeat::PerFanout { scale: 0.1, max: 8 },
                        CallNode::new("HomeTimelineRedis", "update"),
                    ),
            )
            .child_if(Condition::Prob(0.5), CallNode::new("Cache", "get"));
        assert_eq!(tree.children.len(), 2);
        let compose = &tree.children[0].node;
        assert_eq!(compose.children[0].condition, Condition::HasUrl);
        assert!(matches!(
            compose.children[1].repeat,
            Repeat::PerFanout { max: 8, .. }
        ));
    }

    #[test]
    fn visit_covers_all_nodes() {
        let tree =
            CallNode::new("A", "a").child(CallNode::new("B", "b").child(CallNode::new("C", "c")));
        let mut names = Vec::new();
        tree.visit(&mut |n| names.push(n.component.clone()));
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn api_spec_flags() {
        let api =
            ApiSpec::new("/uploadMedia", 0.1, CallNode::new("MediaNGINX", "upload")).with_media();
        assert!(api.carries_media);
        assert!(!api.carries_text);
        assert!(!api.uses_fanout);
    }
}
