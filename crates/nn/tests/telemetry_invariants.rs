//! Telemetry-backed invariants of the optimizers: step accounting and
//! warm-step allocation freedom, asserted through the in-memory sink.

use std::sync::Arc;

use deeprest_nn::{Adam, Sgd};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_tensor::{ParamStore, Pool, Tensor};

#[test]
fn optimizer_steps_are_counted_with_grad_norms() {
    let mut store = ParamStore::new();
    let id = store.add("theta", Tensor::scalar(0.0));
    let mut opt = Sgd::new(0.1, 0.0);

    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        for _ in 0..3 {
            let theta = store.value(id).data()[0];
            *store.grad_mut(id) = Tensor::scalar(2.0 * (theta - 1.0));
            opt.step(&mut store);
        }
    });
    assert_eq!(sink.counter("optim.steps"), 3);
    let norms = sink.gauges("optim.grad_norm");
    assert_eq!(norms.len(), 3);
    // Gradient of (θ-1)² shrinks as θ converges toward 1.
    assert!(norms.windows(2).all(|w| w[1] < w[0]), "norms {norms:?}");
    assert!(norms.iter().all(|&n| n > 0.0));
}

/// Optimizer state lives in each optimizer's [`BufferPool`], so the only
/// allocations an optimizer ever performs are the cold first-step moment
/// takes — visible as `kernel.alloc`. Warm steps must be allocation-free:
/// no moment growth, no per-step gradient-square tensor, no id scratch.
#[test]
fn warm_optimizer_steps_allocate_nothing() {
    fn build_store(params: usize) -> ParamStore {
        let mut store = ParamStore::new();
        for p in 0..params {
            store.add(
                format!("p{p}"),
                Tensor::from_vec(4, 3, (0..12).map(|i| (p * 12 + i) as f32 * 0.01).collect()),
            );
        }
        store
    }
    fn set_grads(store: &mut ParamStore) {
        for (i, g) in store.grads_mut().iter_mut().enumerate() {
            for (j, v) in g.data_mut().iter_mut().enumerate() {
                *v = ((i * 7 + j) as f32).sin() * 0.1;
            }
        }
    }

    let pool = Pool::with_threads(2);
    let params = 6;

    // Sgd with momentum: one velocity tensor per parameter, taken cold.
    let mut store = build_store(params);
    let mut sgd = Sgd::new(0.05, 0.9);
    let cold = Arc::new(MemorySink::new());
    telemetry::with_sink(cold.clone(), || {
        set_grads(&mut store);
        sgd.step_with(&mut store, &pool);
    });
    assert_eq!(
        cold.counter("kernel.alloc"),
        params as u64,
        "cold Sgd step takes exactly one velocity buffer per parameter"
    );
    let warm = Arc::new(MemorySink::new());
    telemetry::with_sink(warm.clone(), || {
        for _ in 0..10 {
            store.zero_grads();
            set_grads(&mut store);
            sgd.step_with(&mut store, &pool);
        }
    });
    assert_eq!(warm.counter("optim.steps"), 10);
    assert_eq!(
        warm.counter("kernel.alloc"),
        0,
        "warm Sgd steps must not allocate"
    );

    // Adam: two moment tensors per parameter, and the fused g² update must
    // not materialize a per-step tensor.
    let mut store = build_store(params);
    let mut adam = Adam::new(0.005);
    let cold = Arc::new(MemorySink::new());
    telemetry::with_sink(cold.clone(), || {
        set_grads(&mut store);
        adam.step_with(&mut store, &pool);
    });
    assert_eq!(
        cold.counter("kernel.alloc"),
        2 * params as u64,
        "cold Adam step takes exactly two moment buffers per parameter"
    );
    let warm = Arc::new(MemorySink::new());
    telemetry::with_sink(warm.clone(), || {
        for _ in 0..10 {
            store.zero_grads();
            set_grads(&mut store);
            adam.step_with(&mut store, &pool);
        }
    });
    assert_eq!(warm.counter("optim.steps"), 10);
    assert_eq!(
        warm.counter("kernel.alloc"),
        0,
        "warm Adam steps must not allocate"
    );
}
