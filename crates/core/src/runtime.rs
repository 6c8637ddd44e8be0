//! Multi-adapter runtime coordinator.
//!
//! The paper's runtime "ensures token-to-adapter consistency, manages
//! resource sharing, and tracks gradients across job boundaries"
//! (Section 4). This module implements that coordinator with *real*
//! arithmetic at laptop scale: a shared frozen base weight, several LoRA
//! adapters fine-tuned jointly on mixed-adapter microbatches, per-adapter
//! gradient accumulation respecting global-batch boundaries, and AdamW
//! updates on the adapter weights only.
//!
//! Each adapter learns a synthetic regression task (match a hidden target
//! weight); losses are exactly reproducible across executors, which is how
//! the integration tests demonstrate the optimizations are lossless end to
//! end.

use std::collections::BTreeMap;

use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::multi::MultiLoraLayer;
use lorafusion_kernels::{
    fused, multi, reference, AdapterWeights, LoraConfig, LoraGrads, Segment, TrafficModel,
};
use lorafusion_tensor::matmul::{gemm_windows_on, Epilogue, Layout, Prologue};
use lorafusion_tensor::ops::{scale, sub};
use lorafusion_tensor::{pool, Matrix, Pcg32};

use crate::optimizer::AdamW;

/// Which kernel executor runs the LoRA math.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Unfused Torch-LoRA reference (per adapter segment).
    Reference,
    /// FusedLoRA (per adapter segment).
    Fused,
    /// FusedMultiLoRA (one pass over the mixed-adapter microbatch).
    FusedMulti,
}

/// Trainer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Input feature dimension `k`.
    pub k: usize,
    /// Output dimension `n`.
    pub n: usize,
    /// Adapter configs, one per job.
    pub adapters: Vec<LoraConfig>,
    /// Learning rate for AdamW on `A`/`B`.
    pub learning_rate: f32,
    /// RNG seed for base weights, targets and inputs.
    pub seed: u64,
    /// Executor to use.
    pub executor: ExecutorKind,
}

impl TrainerConfig {
    /// A small default configuration with `jobs` rank-4 adapters.
    pub fn small(jobs: usize, executor: ExecutorKind) -> Self {
        Self {
            k: 24,
            n: 16,
            adapters: (0..jobs)
                .map(|i| LoraConfig {
                    rank: 4,
                    alpha: 1.0,
                    dropout: 0.0,
                    seed: 900 + i as u64,
                })
                .collect(),
            learning_rate: 2e-2,
            seed: 7,
            executor,
        }
    }
}

/// The multi-adapter trainer.
#[derive(Debug, Clone)]
pub struct MultiAdapterTrainer {
    /// Shared frozen base plus per-job adapters.
    pub layer: MultiLoraLayer,
    /// Per-adapter target weights (the synthetic task each job learns).
    pub targets: Vec<Matrix>,
    executor: ExecutorKind,
    traffic: TrafficModel,
    opt_a: Vec<AdamW>,
    opt_b: Vec<AdamW>,
    accum: BTreeMap<usize, LoraGrads>,
    accum_tokens: BTreeMap<usize, usize>,
    /// Per-adapter dropout-counter cursor (token-to-adapter consistency).
    dropout_cursor: Vec<usize>,
    rng: Pcg32,
    k: usize,
    n: usize,
    /// Step buffers reused across microbatches: the segment layout, the
    /// regression targets, the loss gradient and the FusedMultiLoRA
    /// workspace.
    segs: Vec<Segment>,
    y_true: Matrix,
    dy: Matrix,
    ws: multi::Workspace,
}

impl MultiAdapterTrainer {
    /// Builds a trainer from a configuration.
    pub fn new(config: &TrainerConfig) -> Self {
        let mut rng = Pcg32::seeded(config.seed);
        let std = 1.0 / (config.k as f32).sqrt();
        let w = Matrix::random_gaussian(config.k, config.n, std, &mut rng);
        let adapters: Vec<AdapterWeights> = config
            .adapters
            .iter()
            .map(|&cfg| AdapterWeights::init(config.k, config.n, cfg, &mut rng))
            .collect();
        // Each adapter's task: mimic `W + Delta_a` for a random low-rank
        // perturbation `Delta_a` (learnable by a rank-r adapter).
        let targets: Vec<Matrix> = adapters
            .iter()
            .map(|a| {
                let u = Matrix::random_gaussian(config.k, a.config.rank, std, &mut rng);
                let v = Matrix::random_gaussian(a.config.rank, config.n, std, &mut rng);
                let delta = lorafusion_tensor::matmul_nn(&u, &v).expect("shapes agree");
                let mut t = w.clone();
                lorafusion_tensor::ops::axpy(1.0, &delta, &mut t).expect("shapes agree");
                t
            })
            .collect();
        let opt_a = adapters
            .iter()
            .map(|a| AdamW::new(config.k, a.config.rank, config.learning_rate))
            .collect();
        let opt_b = adapters
            .iter()
            .map(|a| AdamW::new(a.config.rank, config.n, config.learning_rate))
            .collect();
        let n_adapters = adapters.len();
        Self {
            layer: MultiLoraLayer { w, adapters },
            targets,
            executor: config.executor,
            traffic: TrafficModel::for_device(&DeviceKind::H100Sxm.spec()),
            opt_a,
            opt_b,
            accum: BTreeMap::new(),
            accum_tokens: BTreeMap::new(),
            dropout_cursor: vec![0; n_adapters],
            rng,
            k: config.k,
            n: config.n,
            segs: Vec::new(),
            y_true: Matrix::zeros(0, 0),
            dy: Matrix::zeros(0, 0),
            ws: multi::Workspace::new(),
        }
    }

    /// Draws a deterministic input batch of `tokens` rows.
    pub fn sample_input(&mut self, tokens: usize) -> Matrix {
        Matrix::random_uniform(tokens, self.k, 1.0, &mut self.rng)
    }

    /// Runs forward + backward on a mixed-adapter microbatch and
    /// accumulates per-adapter gradients. Returns the mean squared error
    /// per adapter present in the microbatch.
    ///
    /// Segments are validated and assigned dropout offsets from each
    /// adapter's token cursor, guaranteeing token-to-adapter consistency
    /// regardless of how the scheduler sliced the jobs. Every executor
    /// normalises the loss per segment: a segment's gradient is that of
    /// its own mean squared error.
    pub fn step_microbatch(
        &mut self,
        x: &Matrix,
        segments: &[(usize, usize)], // (adapter, token count) runs.
    ) -> lorafusion_kernels::Result<BTreeMap<usize, f64>> {
        // Materialize segments with dropout offsets.
        self.segs.clear();
        let mut cursor = 0usize;
        for &(adapter, len) in segments {
            let offset = self.dropout_cursor.get(adapter).copied().unwrap_or(0);
            self.segs.push(Segment {
                adapter,
                start: cursor,
                end: cursor + len,
                dropout_row_offset: offset,
            });
            cursor += len;
        }
        multi::validate_segments(&self.segs, x.rows(), self.layer.adapters.len())?;
        if x.cols() != self.k {
            return Err(lorafusion_kernels::KernelError::ShapeMismatch {
                op: "step_microbatch",
                lhs: x.shape(),
                rhs: (x.rows(), self.k),
            });
        }
        for seg in &self.segs {
            self.dropout_cursor[seg.adapter] += seg.len();
        }

        // Targets, per segment on row windows: y_true = x_seg @ target_w.
        let (m, k, n) = (x.rows(), self.k, self.n);
        self.y_true.resize(m, n);
        for seg in &self.segs {
            gemm_windows_on(
                pool::current(),
                Layout::Nn,
                1.0,
                &x.as_slice()[seg.start * k..seg.end * k],
                self.targets[seg.adapter].as_slice(),
                &mut self.y_true.as_mut_slice()[seg.start * n..seg.end * n],
                seg.len(),
                k,
                n,
                Prologue::none(),
                Epilogue::Overwrite,
            )?;
        }

        // Forward, loss gradient and backward through the selected
        // executor, collecting each segment's MSE.
        let mut seg_mse = Vec::with_capacity(self.segs.len());
        match self.executor {
            ExecutorKind::FusedMulti => {
                self.ws.forward_into(&self.layer, x, &self.segs)?;
                self.dy.resize(m, n);
                for seg in &self.segs {
                    let (lo, hi) = (seg.start * n, seg.end * n);
                    seg_mse.push(mse_window(
                        &self.ws.y.as_slice()[lo..hi],
                        &self.y_true.as_slice()[lo..hi],
                        &mut self.dy.as_mut_slice()[lo..hi],
                    ));
                }
                self.ws.backward_into(&self.layer, &self.segs, &self.dy)?;
                for (adapter, g) in self.ws.grads() {
                    let entry = self
                        .accum
                        .entry(adapter)
                        .or_insert_with(|| LoraGrads::zeros(self.k, self.n, g.da.cols()));
                    entry.accumulate(g)?;
                }
            }
            ExecutorKind::Fused | ExecutorKind::Reference => {
                // Per-segment single-adapter execution.
                let mut grads: BTreeMap<usize, LoraGrads> = BTreeMap::new();
                for seg in &self.segs {
                    let single = self.layer.as_single(seg.adapter)?;
                    let x_seg = x.slice_rows(seg.start, seg.end)?;
                    let y_seg_true = &self.y_true.as_slice()[seg.start * n..seg.end * n];
                    let mut dy = Matrix::zeros(seg.len(), n);
                    let seg_grads = if self.executor == ExecutorKind::Fused {
                        let fwd =
                            fused::forward(&single, &x_seg, seg.dropout_row_offset, &self.traffic)?;
                        seg_mse.push(mse_window(fwd.y.as_slice(), y_seg_true, dy.as_mut_slice()));
                        fused::backward(&single, &fwd.saved, &dy, &self.traffic)?.grads
                    } else {
                        let fwd = reference::forward(
                            &single,
                            &x_seg,
                            seg.dropout_row_offset,
                            &self.traffic,
                        )?;
                        seg_mse.push(mse_window(fwd.y.as_slice(), y_seg_true, dy.as_mut_slice()));
                        reference::backward(&single, &fwd.saved, &dy, &self.traffic)?.grads
                    };
                    let entry = grads.entry(seg.adapter).or_insert_with(|| {
                        LoraGrads::zeros(k, n, self.layer.adapters[seg.adapter].config.rank)
                    });
                    entry.accumulate(&seg_grads)?;
                }
                for (adapter, g) in grads {
                    let entry = self.accum.entry(adapter).or_insert_with(|| {
                        LoraGrads::zeros(k, n, self.layer.adapters[adapter].config.rank)
                    });
                    entry.accumulate(&g)?;
                }
            }
        }

        // Per-adapter MSE of this microbatch.
        let mut losses = BTreeMap::new();
        for (seg, mse) in self.segs.iter().zip(seg_mse) {
            *self.accum_tokens.entry(seg.adapter).or_insert(0) += seg.len();
            *losses.entry(seg.adapter).or_insert(0.0) += mse;
        }
        Ok(losses)
    }

    /// Applies the accumulated gradients of `adapter` (its optimizer step
    /// at a global-batch boundary) and clears its accumulator.
    pub fn apply_adapter_step(&mut self, adapter: usize) {
        if let Some(g) = self.accum.remove(&adapter) {
            let tokens = self.accum_tokens.remove(&adapter).unwrap_or(1).max(1) as f32;
            let da = scale(1.0 / tokens, &g.da);
            let db = scale(1.0 / tokens, &g.db);
            self.opt_a[adapter].step(&mut self.layer.adapters[adapter].a, &da);
            self.opt_b[adapter].step(&mut self.layer.adapters[adapter].b, &db);
        }
    }

    /// Current loss of `adapter` on a fresh probe batch (no dropout, no
    /// state mutation).
    pub fn probe_loss(&self, adapter: usize, tokens: usize, seed: u64) -> f64 {
        let mut rng = Pcg32::seeded(seed);
        let x = Matrix::random_uniform(tokens, self.k, 1.0, &mut rng);
        let single = self.layer.as_single(adapter).expect("adapter exists");
        let w_eff = single.effective_weight().expect("shapes agree");
        let y = lorafusion_tensor::matmul_nn(&x, &w_eff).expect("shapes agree");
        let y_true =
            lorafusion_tensor::matmul_nn(&x, &self.targets[adapter]).expect("shapes agree");
        let err = sub(&y, &y_true).expect("shapes agree");
        lorafusion_tensor::ops::frobenius_norm(&err).powi(2) / err.len() as f64
    }
}

/// Mean squared error of one segment's output rows, and its gradient in
/// the same pass: writes `dy = (2 / N) * (y - y_true)` over the window's
/// `N` elements and returns `||y - y_true||² / N` — element for element
/// the expressions of `scale(2 / N, sub(y, y_true))` and of
/// `frobenius_norm(sub(y, y_true)).powi(2) / N`.
fn mse_window(y: &[f32], y_true: &[f32], dy: &mut [f32]) -> f64 {
    let len = y.len().max(1);
    let scale = 2.0 / len as f32;
    let mut sq = 0.0f64;
    for ((d, &p), &t) in dy.iter_mut().zip(y).zip(y_true) {
        let diff = p - t;
        *d = scale * diff;
        sq += (diff as f64) * (diff as f64);
    }
    sq.sqrt().powi(2) / len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_training(executor: ExecutorKind, steps: usize) -> (Vec<f64>, Vec<f64>) {
        run_segments(
            TrainerConfig::small(2, executor),
            &[(0, 12), (1, 12)],
            steps,
        )
    }

    /// Trains `steps` microbatches laid out as `segments`, stepping every
    /// adapter after each, and returns the probe losses before and after.
    fn run_segments(
        config: TrainerConfig,
        segments: &[(usize, usize)],
        steps: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let adapters = config.adapters.len();
        let tokens = segments.iter().map(|&(_, len)| len).sum();
        let mut trainer = MultiAdapterTrainer::new(&config);
        let before: Vec<f64> = (0..adapters)
            .map(|a| trainer.probe_loss(a, 64, 99))
            .collect();
        for _ in 0..steps {
            let x = trainer.sample_input(tokens);
            trainer.step_microbatch(&x, segments).unwrap();
            for a in 0..adapters {
                trainer.apply_adapter_step(a);
            }
        }
        let after: Vec<f64> = (0..adapters)
            .map(|a| trainer.probe_loss(a, 64, 99))
            .collect();
        (before, after)
    }

    #[test]
    fn training_reduces_loss_for_every_adapter() {
        let (before, after) = run_training(ExecutorKind::FusedMulti, 120);
        for a in 0..2 {
            assert!(
                after[a] < before[a] * 0.5,
                "adapter {a}: {} -> {}",
                before[a],
                after[a]
            );
        }
    }

    #[test]
    fn executors_reach_the_same_losses() {
        // The losslessness claim, end-to-end: reference, fused and
        // fused-multi executors produce the same training trajectory.
        let (_, ref_after) = run_training(ExecutorKind::Reference, 40);
        let (_, fused_after) = run_training(ExecutorKind::Fused, 40);
        let (_, multi_after) = run_training(ExecutorKind::FusedMulti, 40);
        for a in 0..2 {
            assert!(
                (ref_after[a] - fused_after[a]).abs() < 1e-6 * (1.0 + ref_after[a]),
                "fused diverged: {} vs {}",
                ref_after[a],
                fused_after[a]
            );
            assert!(
                (ref_after[a] - multi_after[a]).abs() < 1e-6 * (1.0 + ref_after[a]),
                "multi diverged: {} vs {}",
                ref_after[a],
                multi_after[a]
            );
        }
    }

    /// Unequal segments with a repeated adapter: every executor must
    /// normalise the loss per segment, so the fused multi-adapter
    /// trajectory matches the reference one. (Normalising over the whole
    /// microbatch instead weights a segment's gradient by its share of the
    /// tokens, which equal-length segments cannot reveal.)
    #[test]
    fn executors_agree_on_unequal_segments_with_a_repeated_adapter() {
        let segments = [(0, 5), (1, 19), (0, 7)];
        for dropout in [0.0f32, 0.1] {
            let run = |executor| {
                let mut config = TrainerConfig::small(2, executor);
                for a in &mut config.adapters {
                    a.dropout = dropout;
                }
                run_segments(config, &segments, 40)
            };
            let (ref_before, ref_after) = run(ExecutorKind::Reference);
            let (_, multi_after) = run(ExecutorKind::FusedMulti);
            for a in 0..2 {
                assert!(
                    ref_after[a] < ref_before[a],
                    "adapter {a} did not train: {} -> {}",
                    ref_before[a],
                    ref_after[a]
                );
                assert!(
                    (ref_after[a] - multi_after[a]).abs() < 1e-6 * (1.0 + ref_after[a]),
                    "dropout {dropout}, adapter {a}: multi {} vs reference {}",
                    multi_after[a],
                    ref_after[a]
                );
            }
        }
    }

    /// A segment layout that does not cover the batch is rejected before
    /// any dropout cursor advances; a valid one then steps normally.
    #[test]
    fn invalid_segments_are_rejected_without_advancing_cursors() {
        let mut trainer =
            MultiAdapterTrainer::new(&TrainerConfig::small(2, ExecutorKind::FusedMulti));
        let x = trainer.sample_input(10);
        assert!(trainer.step_microbatch(&x, &[(0, 4), (1, 5)]).is_err());
        assert!(trainer.step_microbatch(&x, &[(0, 4), (2, 6)]).is_err());
        assert_eq!(trainer.dropout_cursor, vec![0, 0]);
        let losses = trainer.step_microbatch(&x, &[(0, 4), (1, 6)]).unwrap();
        assert_eq!(losses.len(), 2);
        assert!(losses.values().all(|l| l.is_finite()));
    }

    #[test]
    fn gradient_accumulation_respects_global_batches() {
        let config = TrainerConfig::small(1, ExecutorKind::FusedMulti);
        let mut trainer = MultiAdapterTrainer::new(&config);
        // `B` starts at zero (identity residual), so the first visible
        // update lands on `B`.
        let b_before = trainer.layer.adapters[0].b.clone();
        // Two microbatches without an optimizer step: weights unchanged.
        for _ in 0..2 {
            let x = trainer.sample_input(8);
            trainer.step_microbatch(&x, &[(0, 8)]).unwrap();
        }
        assert_eq!(trainer.layer.adapters[0].b, b_before);
        // The step applies the accumulated gradient.
        trainer.apply_adapter_step(0);
        assert_ne!(trainer.layer.adapters[0].b, b_before);
    }

    #[test]
    fn dropout_cursor_advances_per_adapter() {
        let mut config = TrainerConfig::small(2, ExecutorKind::FusedMulti);
        for a in &mut config.adapters {
            a.dropout = 0.2;
        }
        let mut trainer = MultiAdapterTrainer::new(&config);
        let x = trainer.sample_input(10);
        trainer.step_microbatch(&x, &[(0, 4), (1, 6)]).unwrap();
        assert_eq!(trainer.dropout_cursor, vec![4, 6]);
        let x2 = trainer.sample_input(5);
        trainer.step_microbatch(&x2, &[(1, 5)]).unwrap();
        assert_eq!(trainer.dropout_cursor, vec![4, 11]);
    }
}
