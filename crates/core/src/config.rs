//! DeepRest hyperparameters.

use deeprest_metrics::MetricKey;
use serde::{Deserialize, Serialize};

/// Which optimizer trains the experts.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent — the paper's setting is
    /// `Sgd { lr: 0.001, momentum: 0.0 }` (§5.1).
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
    },
    /// Adam, which converges in far fewer epochs on the benchmark-sized
    /// runs; the default for the experiment binaries.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

/// Hyperparameters of the DeepRest estimator.
///
/// The paper trains with "the same hyperparameter setting" for every
/// resource of both applications; likewise one `DeepRestConfig` covers all
/// experts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeepRestConfig {
    /// GRU hidden units per expert (paper: 128; default 32 for CPU-scale
    /// runs — the experiment binaries expose `--hidden`).
    pub hidden_dim: usize,
    /// Confidence level δ of the estimated interval (paper: 0.90).
    pub delta: f32,
    /// Training epochs (paper: 30).
    pub epochs: usize,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Truncated-BPTT subsequence length in windows. Both training and
    /// prediction process the series in subsequences of this length with a
    /// fresh hidden state, so the two regimes match.
    pub subseq_len: usize,
    /// Subsequences per optimizer step (paper uses batch size 32 at 5-second
    /// scrape windows; benchmark-scale runs have far fewer subsequences).
    pub batch_size: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Enables the API-aware mask of Eq. 1 (ablation switch; the paper's
    /// architecture always has it).
    pub api_mask: bool,
    /// Enables the cross-component attention of Eq. 3 (ablation switch).
    pub attention: bool,
    /// Adds a per-expert linear skip path from the masked features straight
    /// to the three outputs: `ŷ_t = V(a_t || h_t) + S·x̃_t`. The GRU's
    /// saturating gates cap what pure Eq. 4 can emit beyond the training
    /// range; the skip restores the mostly-linear count→utilization
    /// relationship so unseen-scale queries (2x/3x users, Fig. 14)
    /// extrapolate. `deeprest experiment ablations` switches it off in its
    /// "- linear skip path" variant.
    pub linear_skip: bool,
    /// L1 pressure on the sigmoid mask weights. A small value lets the
    /// optimizer suppress invocation paths irrelevant to a resource, which
    /// is what makes the Fig. 22 mask interpretation crisp; zero disables.
    pub mask_l1: f32,
    /// Seed for parameter initialization and batch shuffling.
    pub seed: u64,
    /// Worker threads for training and prediction. `None` (the default)
    /// uses the process-wide pool — `DEEPREST_THREADS` when set, otherwise
    /// the available hardware parallelism. Any setting produces bit-for-bit
    /// identical models and estimates; this knob only trades wall-clock
    /// time for cores.
    #[serde(default)]
    pub threads: Option<usize>,
    /// When set, only build experts for these `(component, resource)` pairs
    /// (the paper's discussion focuses on six components; restricting the
    /// expert swarm keeps CPU-only experiment runs fast). `None` builds one
    /// expert per metric series — the full 76/54-resource swarm.
    pub scope: Option<Vec<MetricKey>>,
}

impl Default for DeepRestConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 32,
            delta: 0.90,
            epochs: 30,
            optimizer: OptimizerKind::Adam { lr: 0.005 },
            subseq_len: 48,
            batch_size: 8,
            grad_clip: 5.0,
            api_mask: true,
            attention: true,
            linear_skip: true,
            mask_l1: 2e-3,
            seed: 7,
            threads: None,
            scope: None,
        }
    }
}

impl DeepRestConfig {
    /// Builder: sets the hidden dimension.
    pub fn with_hidden(mut self, hidden_dim: usize) -> Self {
        self.hidden_dim = hidden_dim;
        self
    }

    /// Builder: sets the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: restricts the expert swarm to the given metric keys.
    pub fn with_scope(mut self, scope: Vec<MetricKey>) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Builder: sets the optimizer.
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Builder: pins the worker-thread count (`1` forces serial execution).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_keys_are_ignored_and_not_written_back() {
        // Configs (and model JSON) written while the training engine and
        // the telemetry sink were user-set options carry a `"backend"` or
        // a `"telemetry"` key; they must still load, and a round trip must
        // drop the key.
        let current = serde_json::to_string(&DeepRestConfig::default()).unwrap();
        for stale in [
            "\"backend\":\"Tape\"",
            "\"telemetry\":null",
            "\"telemetry\":\"jsonl:t.jsonl\"",
        ] {
            assert!(!current.contains(&stale[..stale.find(':').unwrap()]));
            let old = current.replacen('{', &format!("{{{stale},"), 1);
            let c: DeepRestConfig = serde_json::from_str(&old).unwrap();
            assert_eq!(serde_json::to_string(&c).unwrap(), current, "{stale}");
        }
    }

    #[test]
    fn builders_apply() {
        let c = DeepRestConfig::default()
            .with_hidden(64)
            .with_epochs(5)
            .with_seed(99);
        assert_eq!(c.hidden_dim, 64);
        assert_eq!(c.epochs, 5);
        assert_eq!(c.seed, 99);
    }
}
