//! The resource-aware deep-learning baseline ("resrc-aware DL").

use std::collections::BTreeMap;

use deeprest_metrics::{MetricKey, MinMaxScaler, TimeSeries};
use deeprest_nn::loss::quantiles_for;
use deeprest_nn::{Adam, AnalyticTrainer, ExpertSlab, ExpertSpec, GruCell, Linear, TrainerConfig};
use deeprest_tensor::kernel::Support;
use deeprest_tensor::{BufferPool, ParamStore, Pool, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{BaselineEstimator, LearnData, QueryData};

/// Inputs per window: previous-day utilization, then the sin/cos clock.
const INPUT_DIM: usize = 3;

/// A recurrent network per `(component, resource)` trained on *historical
/// utilization only*: the input at window `t` is the utilization one day
/// earlier (plus a time-of-day encoding) and the target is the utilization
/// at `t`. This mirrors prior forecasting work ([53, 64, 66, 69] in the
/// paper): "no matter how sophisticated they are in capturing the usage in
/// the past, they are unable to consider the API traffic the application
/// owner expects to serve."
///
/// Each network is the estimator's own expert with everything API-aware
/// switched off — no feature mask, no cross-expert attention, no skip path —
/// packed alone in an [`ExpertSlab`] and trained by the [`AnalyticTrainer`]
/// under the same pinball objective; the median head is the forecast. What
/// makes it the baseline is its input, not its engine.
///
/// At query time it rolls forward from the last learning day, feeding its
/// own predictions back autoregressively — so it keeps forecasting the
/// historical pattern regardless of what the query traffic looks like,
/// exactly the failure Figs. 10-11 and 18 dissect.
#[derive(Debug)]
pub struct ResourceAwareDl {
    /// GRU hidden units per model.
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for initialization.
    pub seed: u64,
    state: Option<Fitted>,
}

#[derive(Debug)]
struct Fitted {
    windows_per_day: usize,
    models: BTreeMap<MetricKey, Forecaster>,
}

/// One trained single-expert model.
#[derive(Debug)]
struct Forecaster {
    slab: ExpertSlab,
    scaler: MinMaxScaler,
    /// Normalized utilization of the last learning day (the seed input for
    /// query-time rollout).
    last_day: Vec<f32>,
}

impl Default for ResourceAwareDl {
    fn default() -> Self {
        Self {
            hidden_dim: 12,
            epochs: 40,
            lr: 0.01,
            seed: 11,
            state: None,
        }
    }
}

/// Input at time-of-day `w`: previous-day utilization + clock encoding.
fn input(prev_day_util: f32, w: usize, windows_per_day: usize) -> [f32; INPUT_DIM] {
    let phase = 2.0 * std::f32::consts::PI * w as f32 / windows_per_day as f32;
    [prev_day_util, phase.sin(), phase.cos()]
}

impl ResourceAwareDl {
    /// Creates an unfitted instance with default hyperparameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains the `index`-th model on one utilization series: day `d` is
    /// the input and day `d + 1` the target, one optimizer step per day
    /// pair in calendar order.
    fn fit_one(&self, index: usize, values: &[f64], wpd: usize) -> Forecaster {
        let scaler = MinMaxScaler::fit(values);
        let norm: Vec<f32> = values.iter().map(|&v| scaler.transform(v) as f32).collect();
        let steps = (norm.len() / wpd - 1) * wpd;
        let xs: Vec<Vec<f32>> = (0..steps)
            .map(|t| input(norm[t], t % wpd, wpd).to_vec())
            .collect();
        let targets = [norm[wpd..wpd + steps].to_vec()];

        let h = self.hidden_dim;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(index as u64));
        let mut store = ParamStore::new();
        // Mask and attention are packed off, so their handles are never
        // read: one empty parameter stands in for both.
        let off = store.add("off", Tensor::zeros(0, 0));
        let spec = ExpertSpec {
            mask: off,
            cell: GruCell::new(&mut store, "gru", INPUT_DIM, h, &mut rng),
            alpha: off,
            head: Linear::new(&mut store, "head", 2 * h, 3, &mut rng),
            skip: None,
        };
        let config = TrainerConfig {
            input_dim: INPUT_DIM,
            hidden_dim: h,
            max_steps: wpd,
            batch_slots: 1,
            api_mask: false,
            attention: false,
            penalty: None,
            quantiles: quantiles_for(0.90),
            modulation: [1.0; 3],
        };
        // One expert is one shard: the model itself runs serially, the
        // models fan out (see `fit`). The one slab is trained on here and
        // rolled out on afterwards.
        let pool = Pool::with_threads(1);
        let mut slab = ExpertSlab::pack(&store, &[spec], false, false, pool.threads());
        let mut trainer = AnalyticTrainer::new(&slab, config);
        let mut opt = Adam::new(self.lr);
        for _epoch in 0..self.epochs {
            for start in (0..steps).step_by(wpd) {
                store.zero_grads();
                trainer.run_batch(&slab, &mut store, &pool, &xs, &targets, &[start]);
                store.clip_grad_norm(5.0);
                opt.step(&mut store);
                slab.repack(&store);
            }
        }
        Forecaster {
            slab,
            scaler,
            last_day: norm[norm.len() - wpd..].to_vec(),
        }
    }
}

impl Forecaster {
    /// Forecasts `windows` windows past the last learning day, one day at a
    /// time: fresh hidden state per day (as trained), each day's median
    /// outputs becoming the next day's inputs.
    fn rollout(&self, windows: usize, wpd: usize) -> Vec<f64> {
        let h = self.slab.hidden_dim();
        let mut scratch = BufferPool::new();
        let (mut hidden, mut cat, mut y) = (vec![0.0f32; h], vec![0.0f32; 2 * h], [0.0f32; 3]);
        let mut support = Support::with_capacity(INPUT_DIM);
        let mut prev_day = self.last_day.clone();
        let mut out = Vec::with_capacity(windows);
        while out.len() < windows {
            hidden.fill(0.0);
            let day: Vec<f32> = (0..wpd)
                .map(|w| {
                    // With the mask off `x̃ = x`, and with attention off
                    // `heads` never reads `H_t` (here the hidden state
                    // itself: one expert, one column).
                    let x = input(prev_day[w], w, wpd);
                    support.fill(&x);
                    self.slab
                        .step_range(0..1, &x, &support, &mut hidden, &mut scratch, None);
                    self.slab.heads(
                        0,
                        &hidden,
                        &hidden,
                        &x,
                        &support,
                        &mut cat,
                        &mut y,
                        &mut scratch,
                    );
                    y[0]
                })
                .collect();
            out.extend(
                day.iter()
                    .take(windows - out.len())
                    .map(|&v| self.scaler.inverse(f64::from(v)).max(0.0)),
            );
            prev_day = day;
        }
        out
    }
}

impl BaselineEstimator for ResourceAwareDl {
    fn name(&self) -> &'static str {
        "resrc-aware-dl"
    }

    /// # Panics
    ///
    /// Panics on fewer than two whole learning days: a history-only
    /// forecaster has no (input day, target day) pair to learn from.
    fn fit(&mut self, data: &LearnData<'_>) {
        let windows_per_day = data.traffic.windows_per_day();
        let total = data.metrics.window_count().expect("metrics present");
        let days = total / windows_per_day;
        assert!(
            days >= 2,
            "ResourceAwareDl: fit needs at least 2 whole learning days, got {days}"
        );
        // The models share nothing, so they train side by side; each is a
        // pure function of (seed, index, series), whatever the pool width.
        let series: Vec<(&MetricKey, &TimeSeries)> = data.metrics.iter().collect();
        let models = Pool::global()
            .map(series.len(), |i| {
                let (key, values) = series[i];
                (
                    key.clone(),
                    self.fit_one(i, values.values(), windows_per_day),
                )
            })
            .into_iter()
            .collect();
        self.state = Some(Fitted {
            windows_per_day,
            models,
        });
    }

    fn estimate(&self, query: &QueryData<'_>) -> BTreeMap<MetricKey, TimeSeries> {
        let fitted = self
            .state
            .as_ref()
            .expect("ResourceAwareDl: estimate called before fit");
        let windows = query.traffic.window_count();
        fitted
            .models
            .iter()
            .map(|(key, model)| {
                let forecast = model.rollout(windows, fitted.windows_per_day);
                (key.clone(), TimeSeries::from_values(forecast))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_metrics::{MetricsRegistry, ResourceKind};
    use deeprest_trace::window::WindowedTraces;
    use deeprest_trace::Interner;
    use deeprest_workload::ApiTraffic;

    /// A perfectly periodic utilization: the baseline should forecast it.
    fn setup(days: usize, wpd: usize) -> (ApiTraffic, MetricsRegistry) {
        let pattern: Vec<f64> = (0..wpd)
            .map(|w| 10.0 + 8.0 * (2.0 * std::f64::consts::PI * w as f64 / wpd as f64).sin())
            .collect();
        let mut cpu = Vec::new();
        for _ in 0..days {
            cpu.extend(pattern.iter());
        }
        let traffic = ApiTraffic::new(vec!["/a".into()], wpd, vec![vec![1.0]; days * wpd]);
        let mut metrics = MetricsRegistry::new();
        metrics.insert(
            MetricKey::new("C", ResourceKind::Cpu),
            TimeSeries::from_values(cpu),
        );
        (traffic, metrics)
    }

    #[test]
    fn forecasts_recurring_pattern() {
        let (traffic, metrics) = setup(6, 16);
        let traces = WindowedTraces::with_windows(1.0, 96);
        let interner = Interner::new();
        let mut b = ResourceAwareDl::new();
        b.fit(&LearnData {
            traffic: &traffic,
            traces: &traces,
            metrics: &metrics,
            interner: &interner,
        });
        // Query: one more day of the same pattern.
        let q = traffic.slice(0..16);
        let est = b.estimate(&QueryData {
            traffic: &q,
            traces: None,
            interner: None,
        });
        let pred = &est[&MetricKey::new("C", ResourceKind::Cpu)];
        let actual = metrics
            .get_parts("C", ResourceKind::Cpu)
            .unwrap()
            .slice(0..16);
        let m = deeprest_metrics::eval::mape(&actual, pred);
        assert!(m < 20.0, "periodic forecast MAPE {m:.1}%");
    }

    #[test]
    fn ignores_query_traffic_by_design() {
        let (traffic, metrics) = setup(6, 16);
        let traces = WindowedTraces::with_windows(1.0, 96);
        let interner = Interner::new();
        let mut b = ResourceAwareDl::new();
        b.fit(&LearnData {
            traffic: &traffic,
            traces: &traces,
            metrics: &metrics,
            interner: &interner,
        });
        let q1 = traffic.slice(0..16);
        let q3 = q1.scale(3.0);
        let e1 = b.estimate(&QueryData {
            traffic: &q1,
            traces: None,
            interner: None,
        });
        let e3 = b.estimate(&QueryData {
            traffic: &q3,
            traces: None,
            interner: None,
        });
        // Same forecast regardless of traffic volume — its defining flaw.
        assert_eq!(
            e1[&MetricKey::new("C", ResourceKind::Cpu)].values(),
            e3[&MetricKey::new("C", ResourceKind::Cpu)].values()
        );
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn estimate_before_fit_panics() {
        let (traffic, _) = setup(2, 4);
        let b = ResourceAwareDl::new();
        let _ = b.estimate(&QueryData {
            traffic: &traffic,
            traces: None,
            interner: None,
        });
    }

    /// `fit` trains on the process pool: the same seed must give the same
    /// bits every time, at whatever `DEEPREST_THREADS` the suite runs under.
    #[test]
    fn repeated_fits_are_bit_identical() {
        let (traffic, mut metrics) = setup(4, 8);
        // A second, different series, so there is more than one model to
        // spread over the pool.
        let ramp: Vec<f64> = (0..32)
            .map(|t| 3.0 + (t % 8) as f64 * (1.0 + 0.1 * t as f64))
            .collect();
        metrics.insert(
            MetricKey::new("D", ResourceKind::Memory),
            TimeSeries::from_values(ramp),
        );
        let traces = WindowedTraces::with_windows(1.0, 32);
        let interner = Interner::new();
        let query = traffic.slice(0..20);
        let forecast_bits = || {
            let mut b = ResourceAwareDl::new();
            b.fit(&LearnData {
                traffic: &traffic,
                traces: &traces,
                metrics: &metrics,
                interner: &interner,
            });
            let est = b.estimate(&QueryData {
                traffic: &query,
                traces: None,
                interner: None,
            });
            assert_eq!(est.len(), 2);
            est.values()
                .flat_map(|series| series.values().iter().map(|v| v.to_bits()))
                .collect::<Vec<u64>>()
        };
        let first = forecast_bits();
        assert_eq!(first.len(), 2 * 20);
        assert_eq!(first, forecast_bits());
    }

    #[test]
    #[should_panic(expected = "at least 2 whole learning days, got 1")]
    fn fit_rejects_a_single_learning_day() {
        let (traffic, metrics) = setup(1, 16);
        let traces = WindowedTraces::with_windows(1.0, 16);
        let interner = Interner::new();
        ResourceAwareDl::new().fit(&LearnData {
            traffic: &traffic,
            traces: &traces,
            metrics: &metrics,
            interner: &interner,
        });
    }
}
