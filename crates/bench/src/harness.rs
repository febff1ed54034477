//! Shared experiment context: application, learning data, trained
//! estimators and uniform query execution.

use std::collections::BTreeMap;

use deeprest_baselines::{
    BaselineEstimator, ComponentAwareScaling, LearnData, QueryData, ResourceAwareDl, SimpleScaling,
};
use deeprest_core::{DeepRest, DeepRestConfig, OptimizerKind, TrainReport};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_sim::anomaly::Injector;
use deeprest_sim::engine::{simulate, simulate_with, SimConfig, SimOutput};
use deeprest_sim::{apps, AppSpec};
use deeprest_workload::{ApiTraffic, TrafficShape, WorkloadSpec};

use crate::Args;

/// The Fig. 8 focus scope: every tracked resource of the six focus
/// components (18 experts).
pub(crate) fn focus_scope(app: &AppSpec) -> Vec<MetricKey> {
    apps::FOCUS_COMPONENTS
        .iter()
        .filter_map(|c| app.component(c).map(|spec| (c, spec.stateful)))
        .flat_map(|(c, stateful)| {
            ResourceKind::for_component(stateful)
                .iter()
                .map(|&r| MetricKey::new(*c, r))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Restricts a registry to the given keys (baselines train per-series; the
/// focus scope keeps experiment runs minutes-scale).
pub(crate) fn filter_metrics(metrics: &MetricsRegistry, scope: &[MetricKey]) -> MetricsRegistry {
    let mut out = MetricsRegistry::new();
    for key in scope {
        if let Some(series) = metrics.get(key) {
            out.insert(key.clone(), series.clone());
        }
    }
    out
}

/// The four estimators of §5.1, driven uniformly.
pub(crate) struct EstimatorSet {
    /// The trained DeepRest model.
    pub deeprest: DeepRest,
    /// Training diagnostics for DeepRest.
    pub report: TrainReport,
    resrc_dl: ResourceAwareDl,
    simple: SimpleScaling,
    comp_aware: ComponentAwareScaling,
}

impl EstimatorSet {
    /// Runs a resource-allocation query (mode 1: traffic only) through all
    /// four estimators. Returns per-estimator metric estimates in
    /// [`ESTIMATOR_NAMES`] order. For cumulative resources DeepRest's delta
    /// predictions are integrated from `initials` (the disk size at query
    /// start, known to the operator).
    pub(crate) fn estimate_traffic(
        &self,
        traffic: &ApiTraffic,
        initials: &BTreeMap<MetricKey, f64>,
        seed: u64,
    ) -> Vec<(String, BTreeMap<MetricKey, TimeSeries>)> {
        let mut out = Vec::with_capacity(4);

        let deeprest_est = self.deeprest.estimate_traffic(traffic, seed);
        let mut deeprest_map = BTreeMap::new();
        for (key, pred) in deeprest_est.iter() {
            let initial = initials.get(key).copied().unwrap_or(0.0);
            deeprest_map.insert(key.clone(), pred.integrated(initial).expected);
        }
        out.push(("DeepRest".to_owned(), deeprest_map));

        let query = QueryData {
            traffic,
            traces: None,
            interner: None,
        };
        for baseline in [
            &self.resrc_dl as &dyn BaselineEstimator,
            &self.simple,
            &self.comp_aware,
        ] {
            out.push((display_name(baseline.name()), baseline.estimate(&query)));
        }
        out
    }
}

fn display_name(internal: &str) -> String {
    match internal {
        "resrc-aware-dl" => "resrc-aware DL".to_owned(),
        "simple-scaling" => "simple scaling".to_owned(),
        "component-aware-scaling" => "component-aware".to_owned(),
        other => other.to_owned(),
    }
}

/// A fully prepared experiment: application, learning phase and trained
/// estimators.
pub(crate) struct ExpCtx {
    /// Experiment options.
    pub args: Args,
    /// The simulated application.
    pub app: AppSpec,
    /// Simulator configuration (derived from the master seed).
    pub sim_cfg: SimConfig,
    /// Traces + metrics of the learning phase.
    pub learn: SimOutput,
    /// Metric keys in scope (focus set or all).
    pub scope: Vec<MetricKey>,
    /// The four trained estimators.
    pub estimators: EstimatorSet,
}

impl ExpCtx {
    /// Prepares the social network experiment context (two-peak learning
    /// traffic, the paper's default).
    pub(crate) fn social(args: &Args) -> Self {
        Self::build(apps::social_network(), args, TrafficShape::TwoPeak)
    }

    /// Prepares the social network context with a custom learning-phase
    /// traffic shape (the Fig. 16 "flat → 2-peak" direction).
    pub(crate) fn social_shaped(args: &Args, shape: TrafficShape) -> Self {
        Self::build(apps::social_network(), args, shape)
    }

    /// Prepares the hotel reservation experiment context.
    pub(crate) fn hotel(args: &Args) -> Self {
        Self::build(apps::hotel_reservation(), args, TrafficShape::TwoPeak)
    }

    fn build(app: AppSpec, args: &Args, shape: TrafficShape) -> Self {
        let learn_traffic = WorkloadSpec::new(args.users, app.default_mix())
            .with_days(args.days)
            .with_windows_per_day(args.windows_per_day)
            .with_seed(args.seed)
            .with_shape(shape)
            .generate();
        let sim_cfg = SimConfig::default().with_seed(args.seed ^ 0xa5a5);
        let learn = simulate(&app, &learn_traffic, &sim_cfg);

        let scope: Vec<MetricKey> = if args.full {
            learn.metrics.keys().cloned().collect()
        } else if app.name == "hotel-reservation" {
            hotel_focus_scope(&app)
        } else {
            focus_scope(&app)
        };
        let scoped_metrics = filter_metrics(&learn.metrics, &scope);

        let mut config = DeepRestConfig::default()
            .with_hidden(args.hidden)
            .with_epochs(args.epochs)
            .with_seed(args.seed)
            .with_scope(scope.clone());
        if let Some(threads) = args.threads {
            config = config.with_threads(threads);
        }
        if args.paper_sgd {
            config = config.with_optimizer(OptimizerKind::Sgd {
                lr: 0.001,
                momentum: 0.0,
            });
        }
        let (deeprest, report) =
            DeepRest::fit(&learn.traces, &scoped_metrics, &learn.interner, config);

        let learn_data = LearnData {
            traffic: &learn_traffic,
            traces: &learn.traces,
            metrics: &scoped_metrics,
            interner: &learn.interner,
        };
        let mut resrc_dl = ResourceAwareDl::new();
        resrc_dl.fit(&learn_data);
        let mut simple = SimpleScaling::new();
        simple.fit(&learn_data);
        let mut comp_aware = ComponentAwareScaling::new();
        comp_aware.fit(&learn_data);

        Self {
            args: args.clone(),
            app,
            sim_cfg,
            learn,
            scope,
            estimators: EstimatorSet {
                deeprest,
                report,
                resrc_dl,
                simple,
                comp_aware,
            },
        }
    }

    /// The pool repeated independent queries fan out over: `--threads` when
    /// given, the process-wide default otherwise.
    pub(crate) fn pool(&self) -> deeprest_tensor::Pool {
        match self.args.threads {
            Some(n) => deeprest_tensor::Pool::with_threads(n),
            None => deeprest_tensor::Pool::global(),
        }
    }

    /// Generates query traffic with the learning mix but overridden knobs.
    pub(crate) fn query_workload(&self) -> WorkloadSpec {
        WorkloadSpec::new(self.args.users, self.app.default_mix())
            .with_days(1)
            .with_windows_per_day(self.args.windows_per_day)
            .with_seed(self.args.seed.wrapping_mul(31).wrapping_add(1))
    }

    /// Runs query traffic through the real application to obtain the ground
    /// truth (the paper "collects the actual measurements by running the
    /// query traffic in the application").
    pub(crate) fn ground_truth(&self, traffic: &ApiTraffic) -> SimOutput {
        let cfg = self.sim_cfg.clone().with_seed(self.sim_cfg.seed ^ 0x77);
        simulate(&self.app, traffic, &cfg)
    }

    /// Ground truth with anomaly injectors active (sanity-check
    /// experiments).
    pub(crate) fn ground_truth_with(
        &self,
        traffic: &ApiTraffic,
        injectors: &[&dyn Injector],
    ) -> SimOutput {
        let cfg = self.sim_cfg.clone().with_seed(self.sim_cfg.seed ^ 0x77);
        simulate_with(&self.app, traffic, &cfg, injectors)
    }

    /// Ground-truth-aligned initials (disk size at the *query* run's start),
    /// for MAPE evaluation against a specific ground-truth run.
    pub(crate) fn initials_from(&self, truth: &SimOutput) -> BTreeMap<MetricKey, f64> {
        self.scope
            .iter()
            .filter(|k| k.resource.cumulative())
            .filter_map(|k| {
                truth
                    .metrics
                    .get(k)
                    .map(|s| (k.clone(), s.values().first().copied().unwrap_or(0.0)))
            })
            .collect()
    }

    /// MAPE of every estimator against ground truth for one resource.
    /// Returns `(estimator, mape)` pairs in [`ESTIMATOR_NAMES`] order.
    pub(crate) fn mape_table(
        &self,
        estimates: &[(String, BTreeMap<MetricKey, TimeSeries>)],
        truth: &SimOutput,
        key: &MetricKey,
    ) -> Vec<(String, f64)> {
        let actual = truth
            .metrics
            .get(key)
            .unwrap_or_else(|| panic!("no ground truth for {key}"));
        estimates
            .iter()
            .map(|(name, map)| {
                let est = map
                    .get(key)
                    .unwrap_or_else(|| panic!("{name} produced no estimate for {key}"));
                (name.clone(), deeprest_metrics::eval::mape(actual, est))
            })
            .collect()
    }
}

/// Focus components for the hotel reservation app (Fig. 17 discusses the
/// FrontendService; we track the search path alongside it).
fn hotel_focus_scope(app: &AppSpec) -> Vec<MetricKey> {
    [
        "FrontendService",
        "SearchService",
        "ProfileService",
        "ReserveMongoDB",
    ]
    .iter()
    .filter_map(|c| app.component(c).map(|spec| (c, spec.stateful)))
    .flat_map(|(c, stateful)| {
        ResourceKind::for_component(stateful)
            .iter()
            .map(|&r| MetricKey::new(*c, r))
            .collect::<Vec<_>>()
    })
    .collect()
}
