//! Microservice application simulator — the DeathStarBench substitute.
//!
//! The paper evaluates DeepRest against two applications from
//! DeathStarBench deployed on Kubernetes with Jaeger tracing and Prometheus
//! monitoring. This crate simulates that whole stack in-process:
//!
//! * [`AppSpec`] describes an application: its components (stateless
//!   services/caches and stateful stores), its API endpoints, and — per
//!   `(component, operation)` — a resource cost model.
//! * [`ApiSpec`]/[`CallNode`] describe each API's business logic as a
//!   probabilistic invocation tree: which components an API request
//!   traverses, with conditional branches (cache misses, posts with media or
//!   URLs) and payload-driven fan-out (home-timeline writes to followers).
//! * [`engine::simulate`] drives an [`deeprest_workload::ApiTraffic`]
//!   through the application: every sampled request produces a distributed
//!   trace (the Jaeger substitute) and accumulates resource usage per
//!   component, yielding windowed utilization time-series with queueing
//!   amplification, cache-driven memory dynamics, monotone disk growth and
//!   measurement noise (the Prometheus substitute).
//! * [`anomaly`] injects unjustifiable resource consumption — ransomware and
//!   cryptojacking attacks (§5.4) — into the produced metrics without
//!   touching the API traffic.
//! * [`apps`] ships the two benchmark applications with the paper's exact
//!   component/resource counts: [`apps::social_network`] (11 APIs, 29
//!   components, 76 resources) and [`apps::hotel_reservation`] (4 APIs, 18
//!   components, 54 resources).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod anomaly;
mod api;
pub mod apps;
mod component;
mod cost;
pub mod engine;

pub use api::{ApiSpec, CallEdge, CallNode, Condition, Repeat};
pub use component::ComponentSpec;
pub use cost::{window_cost, OperationCost};
pub(crate) use cost::{CostDriver, CostTerm};
pub use engine::{
    ComponentRow, SimConfig, SimOutput, SimStepper, SimStepperState, StepObservation,
};

use std::collections::HashMap;

/// A complete application specification: components, APIs and the
/// per-operation resource cost model.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Application name (e.g. `social-network`).
    pub name: String,
    /// All components, stateless and stateful.
    pub components: Vec<ComponentSpec>,
    /// Exposed API endpoints with their invocation trees.
    pub apis: Vec<ApiSpec>,
    costs: HashMap<(String, String), OperationCost>,
}

/// An error found while validating an [`AppSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A call tree references a component that is not declared.
    UnknownComponent(String),
    /// A `(component, operation)` pair appearing in a call tree has no cost
    /// model.
    MissingCost(String, String),
    /// A stateless component's cost model declares writes.
    StatelessWrites(String, String),
    /// Duplicate component name.
    DuplicateComponent(String),
    /// Duplicate API endpoint.
    DuplicateApi(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownComponent(c) => write!(f, "unknown component `{c}` in call tree"),
            SpecError::MissingCost(c, o) => write!(f, "no cost model for `{c}:{o}`"),
            SpecError::StatelessWrites(c, o) => {
                write!(f, "stateless component `{c}` has write costs in `{o}`")
            }
            SpecError::DuplicateComponent(c) => write!(f, "duplicate component `{c}`"),
            SpecError::DuplicateApi(a) => write!(f, "duplicate API endpoint `{a}`"),
        }
    }
}

impl std::error::Error for SpecError {}

impl AppSpec {
    /// Creates an application spec.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            components: Vec::new(),
            apis: Vec::new(),
            costs: HashMap::new(),
        }
    }

    /// Adds a component.
    pub fn add_component(&mut self, component: ComponentSpec) -> &mut Self {
        self.components.push(component);
        self
    }

    /// Adds an API endpoint.
    pub fn add_api(&mut self, api: ApiSpec) -> &mut Self {
        self.apis.push(api);
        self
    }

    /// Registers the cost model for a `(component, operation)` pair.
    pub fn set_cost(
        &mut self,
        component: impl Into<String>,
        operation: impl Into<String>,
        cost: OperationCost,
    ) -> &mut Self {
        self.costs
            .insert((component.into(), operation.into()), cost);
        self
    }

    /// Cost model lookup.
    pub(crate) fn cost(&self, component: &str, operation: &str) -> Option<&OperationCost> {
        self.costs
            .get(&(component.to_owned(), operation.to_owned()))
    }

    /// Component lookup by name.
    pub fn component(&self, name: &str) -> Option<&ComponentSpec> {
        self.components.iter().find(|c| c.name == name)
    }

    /// API lookup by endpoint.
    pub fn api(&self, endpoint: &str) -> Option<&ApiSpec> {
        self.apis.iter().find(|a| a.endpoint == endpoint)
    }

    /// The default API mix (endpoint, weight) from each API's declared
    /// weight, for workload construction.
    pub fn default_mix(&self) -> Vec<(String, f64)> {
        self.apis
            .iter()
            .map(|a| (a.endpoint.clone(), a.default_weight))
            .collect()
    }

    /// Total number of tracked resources (2 per stateless component, 5 per
    /// stateful), the paper's "76 resources in 29 components" accounting.
    pub fn resource_count(&self) -> usize {
        self.components
            .iter()
            .map(|c| if c.stateful { 5 } else { 2 })
            .sum()
    }

    /// Checks internal consistency; experiment code calls this once per app.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut seen = std::collections::HashSet::new();
        for c in &self.components {
            if !seen.insert(&c.name) {
                return Err(SpecError::DuplicateComponent(c.name.clone()));
            }
        }
        let mut seen_api = std::collections::HashSet::new();
        for a in &self.apis {
            if !seen_api.insert(&a.endpoint) {
                return Err(SpecError::DuplicateApi(a.endpoint.clone()));
            }
        }
        for api in &self.apis {
            self.validate_node(&api.root)?;
        }
        Ok(())
    }

    fn validate_node(&self, node: &CallNode) -> Result<(), SpecError> {
        let comp = self
            .component(&node.component)
            .ok_or_else(|| SpecError::UnknownComponent(node.component.clone()))?;
        let cost = self.cost(&node.component, &node.operation).ok_or_else(|| {
            SpecError::MissingCost(node.component.clone(), node.operation.clone())
        })?;
        if !comp.stateful && cost.has_writes() {
            return Err(SpecError::StatelessWrites(
                node.component.clone(),
                node.operation.clone(),
            ));
        }
        for edge in &node.children {
            self.validate_node(&edge.node)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_app() -> AppSpec {
        let mut app = AppSpec::new("test");
        app.add_component(ComponentSpec::stateless("Frontend"));
        app.add_component(ComponentSpec::stateful("Store"));
        app.set_cost("Frontend", "serve", OperationCost::cpu(1.0));
        app.set_cost(
            "Store",
            "insert",
            OperationCost::cpu(0.5).with_writes(1.0, 4.0),
        );
        app.add_api(ApiSpec::new(
            "/write",
            0.5,
            CallNode::new("Frontend", "serve").child(CallNode::new("Store", "insert")),
        ));
        app
    }

    #[test]
    fn valid_app_passes_validation() {
        assert_eq!(minimal_app().validate(), Ok(()));
    }

    #[test]
    fn unknown_component_is_rejected() {
        let mut app = minimal_app();
        app.add_api(ApiSpec::new("/bad", 0.5, CallNode::new("Ghost", "x")));
        assert_eq!(
            app.validate(),
            Err(SpecError::UnknownComponent("Ghost".into()))
        );
    }

    #[test]
    fn missing_cost_is_rejected() {
        let mut app = minimal_app();
        app.add_api(ApiSpec::new(
            "/bad",
            0.5,
            CallNode::new("Frontend", "uncosted"),
        ));
        assert_eq!(
            app.validate(),
            Err(SpecError::MissingCost("Frontend".into(), "uncosted".into()))
        );
    }

    #[test]
    fn stateless_writes_are_rejected() {
        let mut app = minimal_app();
        app.set_cost(
            "Frontend",
            "oops",
            OperationCost::cpu(1.0).with_writes(1.0, 1.0),
        );
        app.add_api(ApiSpec::new("/bad", 0.5, CallNode::new("Frontend", "oops")));
        assert_eq!(
            app.validate(),
            Err(SpecError::StatelessWrites("Frontend".into(), "oops".into()))
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut app = minimal_app();
        app.add_component(ComponentSpec::stateless("Frontend"));
        assert_eq!(
            app.validate(),
            Err(SpecError::DuplicateComponent("Frontend".into()))
        );
    }

    #[test]
    fn resource_count_accounting() {
        // 1 stateless (2) + 1 stateful (5).
        assert_eq!(minimal_app().resource_count(), 7);
    }
}
