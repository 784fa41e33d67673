//! Criterion micro-benchmarks of the ML substrate: surrogate training and
//! pool-scale prediction at the sizes the auto-tuner uses.

use ceal_ml::{
    BinnedDataset, Dataset, GbtParams, GradientBoosting, RandomForest, RandomForestParams,
    RegressionTree, Regressor, TreeParams, DEFAULT_MAX_BINS,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn tuning_dataset(rows: usize, features: usize) -> Dataset {
    let mut data = Dataset::new(features);
    for i in 0..rows {
        let row: Vec<f64> = (0..features)
            .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
            .collect();
        let y = row
            .iter()
            .enumerate()
            .map(|(j, x)| (j as f64 + 1.0) * x * x)
            .sum();
        data.push_row(&row, y);
    }
    data
}

fn bench_ml(c: &mut Criterion) {
    // Training at auto-tuner scale: 50 samples, 6 configuration params —
    // 200 trees grown on one workspace.
    let small = tuning_dataset(50, 6);
    c.bench_function("fit_50x6", |b| {
        b.iter_batched(
            || GradientBoosting::new(GbtParams::small_sample(0)),
            |mut m| {
                m.fit(black_box(&small));
                m
            },
            BatchSize::SmallInput,
        )
    });

    let big = tuning_dataset(500, 7);
    c.bench_function("gbt_fit_500x7", |b| {
        b.iter_batched(
            || GradientBoosting::new(GbtParams::small_sample(0)),
            |mut m| {
                m.fit(black_box(&big));
                m
            },
            BatchSize::SmallInput,
        )
    });

    // Pool scoring: predict 2000 configurations, on both sides of the
    // shape selection. The tuner's ensembles (at most 3 levels per tree)
    // are scored by the bin-space kernel; one deeper tree sends the batch
    // down the flattened-tree walk.
    let mut fitted = GradientBoosting::new(GbtParams::small_sample(0));
    fitted.fit(&small);
    assert!(fitted.trees().iter().all(|t| t.depth() <= 3));
    let mut deeper = GradientBoosting::new(GbtParams {
        tree: TreeParams {
            max_depth: 4,
            ..GbtParams::small_sample(0).tree
        },
        ..GbtParams::small_sample(0)
    });
    deeper.fit(&small);
    assert!(deeper.trees().iter().any(|t| t.depth() == 4));
    let pool = tuning_dataset(2000, 6);
    c.bench_function("pool_score_2000/kernel", |b| {
        b.iter(|| black_box(fitted.predict_batch(black_box(&pool))))
    });
    c.bench_function("pool_score_2000/walk", |b| {
        b.iter(|| black_box(deeper.predict_batch(black_box(&pool))))
    });

    c.bench_function("rf_fit_200x6", |b| {
        let data = tuning_dataset(200, 6);
        b.iter_batched(
            || {
                RandomForest::new(RandomForestParams {
                    n_trees: 50,
                    ..Default::default()
                })
            },
            |mut m| {
                m.fit(black_box(&data));
                m
            },
            BatchSize::SmallInput,
        )
    });

    // Single-tree split search: histogram path vs the exact-greedy
    // reference it replaced, at the acceptance-criterion dataset size.
    let wide = tuning_dataset(1000, 20);
    let grad: Vec<f64> = wide.targets().iter().map(|y| -y).collect();
    let hess = vec![1.0; wide.n_rows()];
    let rows: Vec<usize> = (0..wide.n_rows()).collect();
    let feats: Vec<usize> = (0..wide.n_features()).collect();
    let tp = TreeParams {
        max_depth: 6,
        ..Default::default()
    };
    c.bench_function("tree_fit_exact_1000x20", |b| {
        b.iter(|| {
            black_box(RegressionTree::fit_gradients_exact(
                black_box(&wide),
                &grad,
                &hess,
                &rows,
                &feats,
                tp,
            ))
        })
    });
    let binned_wide = BinnedDataset::from_dataset(&wide, DEFAULT_MAX_BINS);
    c.bench_function("tree_fit_binned_1000x20", |b| {
        b.iter(|| {
            black_box(RegressionTree::fit_binned(
                black_box(&binned_wide),
                &grad,
                &hess,
                &rows,
                &feats,
                tp,
            ))
        })
    });

    // Full boosted fit at the acceptance-criterion size.
    c.bench_function("gbt_fit_1000x20", |b| {
        b.iter_batched(
            || GradientBoosting::new(GbtParams::small_sample(0)),
            |mut m| {
                m.fit(black_box(&wide));
                m
            },
            BatchSize::SmallInput,
        )
    });

    // Batch pool prediction at medium and large pool sizes.
    for &pool_rows in &[10_000usize, 50_000] {
        let pool = tuning_dataset(pool_rows, 6);
        c.bench_function(&format!("gbt_predict_pool_{pool_rows}"), |b| {
            b.iter(|| black_box(fitted.predict_batch(black_box(&pool))))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_ml
}
criterion_main!(benches);
