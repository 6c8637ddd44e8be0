//! FusedMultiLoRA — tile-level routing of heterogeneous adapters (Fig. 11).
//!
//! A microbatch produced by the multi-LoRA scheduler contains contiguous
//! token *segments* belonging to different fine-tuning jobs. The frozen
//! base computation (`X W`, `dY Wᵀ`) is shared across all tokens; adapter
//! specific work (dropout seed, rank, scaling, `A`/`B` weights, gradient
//! routing) is selected per tile from a lookup table. This module models
//! that behaviour functionally per segment and lowers the whole microbatch
//! to *one* kernel launch per fusion site, with the tile-routing overhead
//! captured by [`lorafusion_gpu::KernelClass::FusedGemm`]'s `adapters`
//! field.

use std::collections::BTreeMap;

use lorafusion_gpu::{KernelClass, KernelProfile};
use lorafusion_tensor::matmul::{gemm_fused, gemm_windows_on, Epilogue, Layout, Prologue};
use lorafusion_tensor::pool;
use lorafusion_tensor::{DropoutSpec, Matrix};

use crate::lora::{AdapterWeights, LoraGrads, LoraLayer};
use crate::traffic::TrafficModel;
use crate::{KernelError, Result};

/// A contiguous run of tokens belonging to one adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index into [`MultiLoraLayer::adapters`].
    pub adapter: usize,
    /// First token row (inclusive).
    pub start: usize,
    /// Last token row (exclusive).
    pub end: usize,
    /// Position of this segment within the adapter's own dropout counter
    /// stream, so the realized mask equals the single-job mask.
    pub dropout_row_offset: usize,
}

impl Segment {
    /// Number of tokens in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A base weight shared by several LoRA adapters.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLoraLayer {
    /// Frozen pre-trained weight of shape `(k, n)`.
    pub w: Matrix,
    /// The adapters sharing `w`.
    pub adapters: Vec<AdapterWeights>,
}

impl MultiLoraLayer {
    /// Builds a multi-adapter layer from single-adapter layers sharing the
    /// same base weight.
    ///
    /// Returns an error if the base weights differ in shape.
    pub fn from_layers(layers: &[LoraLayer]) -> Result<Self> {
        let first = layers.first().ok_or(KernelError::InvalidParameter {
            name: "layers",
            reason: "at least one adapter is required",
        })?;
        for layer in layers {
            if layer.w.shape() != first.w.shape() {
                return Err(KernelError::ShapeMismatch {
                    op: "multi_lora_base",
                    lhs: first.w.shape(),
                    rhs: layer.w.shape(),
                });
            }
        }
        Ok(Self {
            w: first.w.clone(),
            adapters: layers.iter().map(|l| l.adapter.clone()).collect(),
        })
    }

    /// Input dimension `k`.
    pub fn k(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension `n`.
    pub fn n(&self) -> usize {
        self.w.cols()
    }

    /// View of adapter `idx` as a single-adapter layer (for equivalence
    /// testing against FusedLoRA).
    pub fn as_single(&self, idx: usize) -> Result<LoraLayer> {
        let adapter = self
            .adapters
            .get(idx)
            .ok_or(KernelError::InvalidParameter {
                name: "idx",
                reason: "adapter index out of range",
            })?;
        Ok(LoraLayer {
            w: self.w.clone(),
            adapter: adapter.clone(),
        })
    }
}

/// Checks that `segments` are contiguous, non-empty, cover `[0, m)` and
/// reference valid adapters.
pub fn validate_segments(segments: &[Segment], m: usize, adapters: usize) -> Result<()> {
    let mut cursor = 0usize;
    for seg in segments {
        if seg.is_empty() || seg.start != cursor {
            return Err(KernelError::InvalidParameter {
                name: "segments",
                reason: "segments must be contiguous, non-empty and ordered",
            });
        }
        if seg.adapter >= adapters {
            return Err(KernelError::InvalidParameter {
                name: "segments",
                reason: "segment references an unknown adapter",
            });
        }
        cursor = seg.end;
    }
    if cursor != m {
        return Err(KernelError::InvalidParameter {
            name: "segments",
            reason: "segments must cover all token rows",
        });
    }
    Ok(())
}

/// Activations saved by the multi-adapter forward pass.
///
/// No masks are stored: each segment's dropout mask is a pure function of
/// its adapter's [`DropoutSpec`] and `dropout_row_offset`, so the backward
/// `dX` epilogue regenerates it analytically per tile.
#[derive(Debug, Clone)]
pub struct Saved {
    /// Segment layout of the microbatch.
    pub segments: Vec<Segment>,
    /// Masked input `X̂` of the whole microbatch (emitted by K1 alongside
    /// `S`); segment `i`'s rows are the row window `start..end`.
    pub x_hat: Matrix,
    /// Low-rank intermediates of all segments back to back, in segment
    /// order: each segment's row-major `len x rank` block.
    pub s: Vec<f32>,
}

/// Length of a buffer that stores every segment's row-major `len x rank`
/// block back to back.
fn rank_blocks_len(layer: &MultiLoraLayer, segments: &[Segment]) -> usize {
    segments
        .iter()
        .map(|seg| seg.len() * layer.adapters[seg.adapter].config.rank)
        .sum()
}

/// Forward result of the multi-adapter executor.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Layer output for the whole microbatch.
    pub y: Matrix,
    /// Saved activations.
    pub saved: Saved,
    /// Kernel profiles (one launch per fusion site).
    pub kernels: Vec<KernelProfile>,
}

/// Backward result of the multi-adapter executor.
#[derive(Debug, Clone)]
pub struct BackwardOutput {
    /// Gradient w.r.t. the microbatch input.
    pub dx: Matrix,
    /// Accumulated adapter gradients keyed by adapter index.
    pub grads: BTreeMap<usize, LoraGrads>,
    /// Kernel profiles (one launch per fusion site).
    pub kernels: Vec<KernelProfile>,
}

fn distinct_adapters(segments: &[Segment]) -> u32 {
    let mut ids: Vec<usize> = segments.iter().map(|s| s.adapter).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u32
}

/// Kernel lowering of the multi-adapter forward pass (profiles only).
pub fn forward_profiles(
    layer: &MultiLoraLayer,
    segments: &[Segment],
    t: &TrafficModel,
) -> Vec<KernelProfile> {
    let m: usize = segments.iter().map(Segment::len).sum();
    let (k, n) = (layer.k(), layer.n());
    let adapters = distinct_adapters(segments);
    let (mf, kf, nf) = (m as f64, k as f64, n as f64);

    let mut down_flops = mf * kf; // Dropout.
    let mut s_elems = 0usize;
    let mut a_elems = 0usize;
    let mut b_elems = 0usize;
    let mut up_flops = 0.0f64;
    for seg in segments {
        let r = layer.adapters[seg.adapter].config.rank;
        down_flops += 2.0 * seg.len() as f64 * kf * r as f64;
        up_flops += 2.0 * seg.len() as f64 * r as f64 * nf;
        s_elems += seg.len() * r;
        a_elems += k * r;
        b_elems += r * n;
    }

    vec![
        KernelProfile {
            name: "fused_multi_fwd_dropout_down".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: k as u64,
                n: 16, // Rank-sized output; exact rank varies per tile.
                adapters,
            },
            flops: down_flops,
            bytes_read: t.read_cold(m * k) + t.read_cold(a_elems),
            bytes_written: t.write(s_elems) + t.write(m * k) + t.write_mask(m * k),
        },
        KernelProfile {
            name: "fused_multi_fwd_base_epilogue".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: k as u64,
                n: n as u64,
                adapters,
            },
            flops: 2.0 * mf * kf * nf + up_flops + mf * nf,
            bytes_read: t.read_gemm_input(m * k, n)
                + t.read_gemm_input(k * n, n)
                + t.read_hot(s_elems)
                + t.read_cold(b_elems),
            bytes_written: t.write(m * n),
        },
    ]
}

/// Kernel lowering of the multi-adapter backward pass (profiles only).
pub fn backward_profiles(
    layer: &MultiLoraLayer,
    segments: &[Segment],
    t: &TrafficModel,
) -> Vec<KernelProfile> {
    let m: usize = segments.iter().map(Segment::len).sum();
    let (k, n) = (layer.k(), layer.n());
    let adapters = distinct_adapters(segments);
    let (mf, kf, nf) = (m as f64, k as f64, n as f64);

    let mut s_elems = 0usize;
    let mut a_elems = 0usize;
    let mut b_elems = 0usize;
    let mut rank_flops = 0.0f64;
    for seg in segments {
        let r = layer.adapters[seg.adapter].config.rank;
        rank_flops += 2.0 * seg.len() as f64 * nf * r as f64;
        s_elems += seg.len() * r;
        a_elems += k * r;
        b_elems += r * n;
    }

    vec![
        KernelProfile {
            name: "fused_multi_bwd_ds_db".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: n as u64,
                n: 16,
                adapters,
            },
            flops: 2.0 * rank_flops,
            bytes_read: t.read_cold(m * n) + t.read_cold(b_elems) + t.read_cold(s_elems),
            // dB gradients are accumulated per adapter, which costs one
            // extra read-modify-write of each `B`-sized gradient buffer.
            bytes_written: t.write(s_elems) + 2 * t.write(b_elems),
        },
        KernelProfile {
            name: "fused_multi_bwd_da".into(),
            class: KernelClass::FusedGemm {
                m: k as u64,
                k: m as u64,
                n: 16,
                adapters,
            },
            flops: 2.0 * mf * kf * 16.0,
            // Reads the stored masked input X̂.
            bytes_read: t.read_cold(m * k) + t.read_hot(s_elems),
            bytes_written: 2 * t.write(a_elems),
        },
        KernelProfile {
            name: "fused_multi_bwd_dx_epilogue".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: n as u64,
                n: k as u64,
                adapters,
            },
            flops: 2.0 * mf * kf * nf + 2.0 * mf * kf * 16.0 + mf * kf,
            bytes_read: t.read_gemm_input(m * n, k)
                + t.read_gemm_input(k * n, k)
                + t.read_cold(s_elems)
                + t.read_cold(a_elems)
                + t.mask(m * k),
            bytes_written: t.write(m * k),
        },
    ]
}

/// Reusable buffers for the allocation-free multi-adapter training step,
/// the FusedMultiLoRA counterpart of [`crate::fused::Workspace`].
///
/// Every tensor a forward+backward step touches lives here and is
/// `resize`d (capacity-reusing) at the start of each pass: `y`, `X̂` and
/// `dX` for the whole microbatch, the rank-`r` `S` and `dS` blocks of all
/// segments back to back, and one gradient pair per adapter of the layer.
/// Segment windows are row windows of the batch tensors, so no segment is
/// ever copied out. Once warmed up at a segment layout, further steps
/// perform no heap allocation: the workspace reuses its buffers and the
/// GEMM engine its thread-local arena.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Layer output `Y` (`m x n`).
    pub y: Matrix,
    /// Masked input `X̂` (`m x k`), emitted by K1's pack prologue.
    pub x_hat: Matrix,
    /// Input gradient `dX` (`m x k`).
    pub dx: Matrix,
    /// Low-rank intermediates `S`, one `len x rank` block per segment.
    s: Vec<f32>,
    /// Low-rank gradients `dS`, laid out like `s`.
    ds: Vec<f32>,
    /// Per-adapter gradients, indexed by adapter; valid for the adapters
    /// the last backward pass saw (`present`).
    grads: Vec<LoraGrads>,
    present: Vec<bool>,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            y: Matrix::zeros(0, 0),
            x_hat: Matrix::zeros(0, 0),
            dx: Matrix::zeros(0, 0),
            s: Vec::new(),
            ds: Vec::new(),
            grads: Vec::new(),
            present: Vec::new(),
        }
    }

    /// Gradients of the adapters present in the last
    /// [`Workspace::backward_into`], in ascending adapter order. Segments
    /// of the same adapter are accumulated in segment order.
    pub fn grads(&self) -> impl Iterator<Item = (usize, &LoraGrads)> {
        self.grads
            .iter()
            .enumerate()
            .filter(|&(a, _)| self.present.get(a).copied().unwrap_or(false))
    }

    /// Allocation-free FusedMultiLoRA forward step into the workspace.
    ///
    /// The shared base GEMM `Y = X W` covers every token. Then, segment by
    /// segment on row windows of `X` and `Y`: K1 computes `S = X̂ A` with
    /// dropout applied as `X` is read and `X̂` emitted from the same pass,
    /// and K2 accumulates `alpha * S B` into `Y` through the `AddScaled`
    /// tile store. The per-segment `dropout_row_offset` positions the
    /// counter stream so each window's mask is bit-identical to the
    /// adapter's whole-batch mask. Segments run in order, each GEMM
    /// spreading its macro-tiles over the pool, so results are identical
    /// at any thread count.
    pub fn forward_into(
        &mut self,
        layer: &MultiLoraLayer,
        x: &Matrix,
        segments: &[Segment],
    ) -> Result<()> {
        let _span =
            lorafusion_trace::span!("multi.forward", m = x.rows(), segments = segments.len());
        validate_segments(segments, x.rows(), layer.adapters.len())?;
        let (m, k, n) = (x.rows(), layer.k(), layer.n());
        self.y.resize(m, n);
        self.x_hat.resize(m, k);
        self.s.resize(rank_blocks_len(layer, segments), 0.0);

        // Shared base computation for all tokens.
        gemm_fused(
            Layout::Nn,
            1.0,
            x,
            &layer.w,
            &mut self.y,
            Prologue::none(),
            Epilogue::Overwrite,
        )?;

        let current = pool::current();
        let mut s_rest = self.s.as_mut_slice();
        for seg in segments {
            let _span =
                lorafusion_trace::span!("multi.segment", adapter = seg.adapter, rows = seg.len());
            let adapter = &layer.adapters[seg.adapter];
            let cfg = adapter.config;
            let spec =
                DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(seg.dropout_row_offset);
            let rows = seg.len();
            let (s, rest) = s_rest.split_at_mut(rows * cfg.rank);
            s_rest = rest;

            // K1 on the window: S = X̂ A with dropout applied in the pack and
            // X̂ emitted — one read of the segment's input, no mask tensor.
            gemm_windows_on(
                current,
                Layout::Nn,
                1.0,
                &x.as_slice()[seg.start * k..seg.end * k],
                adapter.a.as_slice(),
                s,
                rows,
                k,
                cfg.rank,
                Prologue {
                    dropout: (!spec.is_identity()).then_some(spec),
                    softmax_grad: None,
                    emit: Some(&mut self.x_hat.as_mut_slice()[seg.start * k..seg.end * k]),
                },
                Epilogue::Overwrite,
            )?;

            // K2 epilogue: the segment's output rows gain alpha * S B in the
            // tile store, written straight through the row window.
            gemm_windows_on(
                current,
                Layout::Nn,
                1.0,
                s,
                adapter.b.as_slice(),
                &mut self.y.as_mut_slice()[seg.start * n..seg.end * n],
                rows,
                cfg.rank,
                n,
                Prologue::none(),
                Epilogue::AddScaled(cfg.alpha),
            )?;
        }
        Ok(())
    }

    /// Allocation-free FusedMultiLoRA backward step into the workspace.
    ///
    /// Requires a preceding [`Workspace::forward_into`] with the same
    /// `segments` (it consumes the saved `X̂` and `S`).
    pub fn backward_into(
        &mut self,
        layer: &MultiLoraLayer,
        segments: &[Segment],
        dy: &Matrix,
    ) -> Result<()> {
        let _span =
            lorafusion_trace::span!("multi.backward", m = dy.rows(), segments = segments.len());
        validate_segments(segments, dy.rows(), layer.adapters.len())?;
        check_saved(layer, segments, &self.x_hat, &self.s)?;
        let (m, k) = (dy.rows(), layer.k());
        self.dx.resize(m, k);
        self.ds.resize(self.s.len(), 0.0);
        let adapters = layer.adapters.len();
        if self.grads.len() < adapters {
            self.grow_grads(adapters);
        }
        self.present.clear();
        self.present.resize(adapters, false);
        for seg in segments {
            if !self.present[seg.adapter] {
                self.present[seg.adapter] = true;
                let g = &mut self.grads[seg.adapter];
                let r = layer.adapters[seg.adapter].config.rank;
                g.da.resize(k, r);
                g.da.as_mut_slice().fill(0.0);
                g.db.resize(r, layer.n());
                g.db.as_mut_slice().fill(0.0);
            }
        }
        backward_core(
            layer,
            segments,
            &self.x_hat,
            &self.s,
            dy,
            &mut self.ds,
            &mut self.dx,
            &mut self.grads,
        )
    }

    /// Extends the per-adapter gradient table to `adapters` entries. Runs
    /// only while a workspace warms up on a layer; the shapes are set by
    /// `backward_into`.
    fn grow_grads(&mut self, adapters: usize) {
        while self.grads.len() < adapters {
            self.grads.push(LoraGrads::zeros(0, 0, 0));
        }
    }
}

/// Checks that saved activations match the segment layout they are about
/// to be read with.
fn check_saved(
    layer: &MultiLoraLayer,
    segments: &[Segment],
    x_hat: &Matrix,
    s: &[f32],
) -> Result<()> {
    let rows = segments.last().map_or(0, |seg| seg.end);
    if x_hat.shape() != (rows, layer.k()) || s.len() != rank_blocks_len(layer, segments) {
        return Err(KernelError::InvalidParameter {
            name: "saved",
            reason: "saved activations do not match the segment layout",
        });
    }
    Ok(())
}

/// The shared backward graph (K3..K5) over pre-shaped outputs: `ds` laid
/// out like `s`, `dx` of shape `m x k`, and zeroed gradients for every
/// adapter a segment references.
///
/// `alpha` folds into the tile stores of `dS` and `dB`, and the `dX`
/// adapter term re-applies the segment's dropout mask analytically in the
/// `AddMasked` store — no mask tensors, no extra elementwise passes.
/// `dA`/`dB` accumulate straight into the adapter's gradients through the
/// `Add`/`AddScaled` stores, in segment order: `g + p` and
/// `g + alpha * p` are exactly the per-element expressions of computing a
/// segment's gradient alone and then accumulating it.
#[allow(clippy::too_many_arguments)] // the saved activations plus every output
fn backward_core(
    layer: &MultiLoraLayer,
    segments: &[Segment],
    x_hat: &Matrix,
    s: &[f32],
    dy: &Matrix,
    ds: &mut [f32],
    dx: &mut Matrix,
    grads: &mut [LoraGrads],
) -> Result<()> {
    let (k, n) = (layer.k(), layer.n());
    // Shared base input gradient.
    gemm_fused(
        Layout::Nt,
        1.0,
        dy,
        &layer.w,
        dx,
        Prologue::none(),
        Epilogue::Overwrite,
    )?;

    let current = pool::current();
    let dys = dy.as_slice();
    let mut offset = 0usize;
    for seg in segments {
        let _span =
            lorafusion_trace::span!("multi.segment", adapter = seg.adapter, rows = seg.len());
        let adapter = &layer.adapters[seg.adapter];
        let cfg = adapter.config;
        let r = cfg.rank;
        let spec = DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(seg.dropout_row_offset);
        let rows = seg.len();
        let dy_win = &dys[seg.start * n..seg.end * n];
        let s = &s[offset..offset + rows * r];
        let ds = &mut ds[offset..offset + rows * r];
        offset += rows * r;
        let g = &mut grads[seg.adapter];

        // K3: ds = alpha * dY Bᵀ, and db += alpha * Sᵀ dY, alpha applied in
        // the tile store.
        gemm_windows_on(
            current,
            Layout::Nt,
            1.0,
            dy_win,
            adapter.b.as_slice(),
            ds,
            rows,
            n,
            r,
            Prologue::none(),
            Epilogue::Scaled(cfg.alpha),
        )?;
        gemm_windows_on(
            current,
            Layout::Tn,
            1.0,
            s,
            dy_win,
            g.db.as_mut_slice(),
            r,
            rows,
            n,
            Prologue::none(),
            Epilogue::AddScaled(cfg.alpha),
        )?;

        // K4: da += X̂ᵀ ds.
        gemm_windows_on(
            current,
            Layout::Tn,
            1.0,
            &x_hat.as_slice()[seg.start * k..seg.end * k],
            ds,
            g.da.as_mut_slice(),
            k,
            rows,
            r,
            Prologue::none(),
            Epilogue::Add,
        )?;

        // K5 epilogue: the segment's dx rows gain (ds Aᵀ) ⊙ mask via the
        // masked tile store, written straight through the row window.
        gemm_windows_on(
            current,
            Layout::Nt,
            1.0,
            ds,
            adapter.a.as_slice(),
            &mut dx.as_mut_slice()[seg.start * k..seg.end * k],
            rows,
            r,
            k,
            Prologue::none(),
            if spec.is_identity() {
                Epilogue::Add
            } else {
                Epilogue::AddMasked(spec)
            },
        )?;
    }
    Ok(())
}

/// Functional + profiled multi-adapter forward pass: a wrapper over
/// [`Workspace::forward_into`] that hands out the workspace's buffers and
/// attaches the kernel lowering.
pub fn forward(
    layer: &MultiLoraLayer,
    x: &Matrix,
    segments: &[Segment],
    t: &TrafficModel,
) -> Result<ForwardOutput> {
    let mut ws = Workspace::new();
    ws.forward_into(layer, x, segments)?;
    let Workspace { y, x_hat, s, .. } = ws;
    Ok(ForwardOutput {
        y,
        saved: Saved {
            segments: segments.to_vec(),
            x_hat,
            s,
        },
        kernels: forward_profiles(layer, segments, t),
    })
}

/// Functional + profiled multi-adapter backward pass (a wrapper over the
/// core of [`Workspace::backward_into`]).
///
/// Gradients of adapters appearing in several segments are accumulated;
/// this is the "tracks gradients across job boundaries" behaviour of the
/// runtime coordinator (Section 4).
pub fn backward(
    layer: &MultiLoraLayer,
    saved: &Saved,
    dy: &Matrix,
    t: &TrafficModel,
) -> Result<BackwardOutput> {
    let _span = lorafusion_trace::span!(
        "multi.backward",
        m = dy.rows(),
        segments = saved.segments.len()
    );
    validate_segments(&saved.segments, dy.rows(), layer.adapters.len())?;
    check_saved(layer, &saved.segments, &saved.x_hat, &saved.s)?;
    let mut grads: Vec<LoraGrads> = layer
        .adapters
        .iter()
        .map(|a| LoraGrads::zeros(layer.k(), layer.n(), a.config.rank))
        .collect();
    let mut ds = vec![0.0f32; saved.s.len()];
    let mut dx = Matrix::zeros(dy.rows(), layer.k());
    backward_core(
        layer,
        &saved.segments,
        &saved.x_hat,
        &saved.s,
        dy,
        &mut ds,
        &mut dx,
        &mut grads,
    )?;
    let grads = grads
        .into_iter()
        .enumerate()
        .filter(|(a, _)| saved.segments.iter().any(|seg| seg.adapter == *a))
        .collect();
    Ok(BackwardOutput {
        dx,
        grads,
        kernels: backward_profiles(layer, &saved.segments, t),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_gpu::DeviceKind;
    use lorafusion_tensor::ops::all_close;
    use lorafusion_tensor::Pcg32;

    use crate::fused;
    use crate::lora::LoraConfig;

    fn traffic() -> TrafficModel {
        TrafficModel::for_device(&DeviceKind::H100Sxm.spec())
    }

    fn make_layer(k: usize, n: usize, ranks: &[usize], seed: u64) -> MultiLoraLayer {
        let mut rng = Pcg32::seeded(seed);
        let w = Matrix::random_gaussian(k, n, 0.2, &mut rng);
        let adapters = ranks
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let cfg = LoraConfig {
                    seed: 1000 + i as u64,
                    ..LoraConfig::with_rank(r)
                };
                AdapterWeights::init_nonzero(k, n, cfg, &mut rng)
            })
            .collect();
        MultiLoraLayer { w, adapters }
    }

    #[test]
    fn segment_validation() {
        let seg = |a, s, e| Segment {
            adapter: a,
            start: s,
            end: e,
            dropout_row_offset: 0,
        };
        assert!(validate_segments(&[seg(0, 0, 4), seg(1, 4, 8)], 8, 2).is_ok());
        // Gap.
        assert!(validate_segments(&[seg(0, 0, 3), seg(1, 4, 8)], 8, 2).is_err());
        // Not covering.
        assert!(validate_segments(&[seg(0, 0, 4)], 8, 2).is_err());
        // Unknown adapter.
        assert!(validate_segments(&[seg(5, 0, 8)], 8, 2).is_err());
        // Empty segment.
        assert!(validate_segments(&[seg(0, 0, 0), seg(0, 0, 8)], 8, 1).is_err());
    }

    #[test]
    fn single_adapter_matches_fused_lora() {
        let layer = make_layer(24, 18, &[4], 50);
        let single = layer.as_single(0).unwrap();
        let mut rng = Pcg32::seeded(51);
        let x = Matrix::random_uniform(16, 24, 1.0, &mut rng);
        let t = traffic();
        let segs = [Segment {
            adapter: 0,
            start: 0,
            end: 16,
            dropout_row_offset: 0,
        }];
        let multi = forward(&layer, &x, &segs, &t).unwrap();
        let fused = fused::forward(&single, &x, 0, &t).unwrap();
        assert!(all_close(&multi.y, &fused.y, 1e-5));

        let dy = Matrix::random_uniform(16, 18, 1.0, &mut rng);
        let multi_bwd = backward(&layer, &multi.saved, &dy, &t).unwrap();
        let fused_bwd = fused::backward(&single, &fused.saved, &dy, &t).unwrap();
        assert!(all_close(&multi_bwd.dx, &fused_bwd.dx, 1e-5));
        let g = &multi_bwd.grads[&0];
        assert!(all_close(&g.da, &fused_bwd.grads.da, 1e-5));
        assert!(all_close(&g.db, &fused_bwd.grads.db, 1e-5));
    }

    #[test]
    fn segments_match_independent_single_jobs() {
        // Running adapters jointly in one microbatch must produce exactly
        // what each job would have produced alone on its own tokens.
        let layer = make_layer(20, 16, &[4, 8], 60);
        let mut rng = Pcg32::seeded(61);
        let x = Matrix::random_uniform(14, 20, 1.0, &mut rng);
        let t = traffic();
        let segs = [
            Segment {
                adapter: 0,
                start: 0,
                end: 6,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 1,
                start: 6,
                end: 14,
                dropout_row_offset: 0,
            },
        ];
        let multi = forward(&layer, &x, &segs, &t).unwrap();

        for (idx, seg) in segs.iter().enumerate() {
            let single = layer.as_single(seg.adapter).unwrap();
            let x_seg = x.slice_rows(seg.start, seg.end).unwrap();
            let solo = fused::forward(&single, &x_seg, seg.dropout_row_offset, &t).unwrap();
            let joint = multi.y.slice_rows(seg.start, seg.end).unwrap();
            assert!(all_close(&joint, &solo.y, 1e-5), "segment {idx} diverged");
        }
    }

    #[test]
    fn gradients_accumulate_across_segments_of_same_adapter() {
        let layer = make_layer(12, 10, &[4], 70);
        let mut rng = Pcg32::seeded(71);
        let x = Matrix::random_uniform(10, 12, 1.0, &mut rng);
        let dy = Matrix::random_uniform(10, 10, 1.0, &mut rng);
        let t = traffic();
        // Same adapter split over two segments (consecutive in its stream).
        let segs = [
            Segment {
                adapter: 0,
                start: 0,
                end: 4,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 0,
                start: 4,
                end: 10,
                dropout_row_offset: 4,
            },
        ];
        let multi = forward(&layer, &x, &segs, &t).unwrap();
        let bwd = backward(&layer, &multi.saved, &dy, &t).unwrap();

        // Reference: one segment covering everything.
        let whole = [Segment {
            adapter: 0,
            start: 0,
            end: 10,
            dropout_row_offset: 0,
        }];
        let multi_whole = forward(&layer, &x, &whole, &t).unwrap();
        let bwd_whole = backward(&layer, &multi_whole.saved, &dy, &t).unwrap();

        assert!(all_close(&multi.y, &multi_whole.y, 1e-5));
        assert!(all_close(&bwd.dx, &bwd_whole.dx, 1e-5));
        assert!(all_close(&bwd.grads[&0].da, &bwd_whole.grads[&0].da, 1e-4));
        assert!(all_close(&bwd.grads[&0].db, &bwd_whole.grads[&0].db, 1e-4));
    }

    #[test]
    fn segment_offsets_reproduce_whole_batch_masks_bitwise() {
        // The counter-based dropout stream is positioned per segment via
        // `dropout_row_offset`, so a split batch must regenerate exactly the
        // masks the whole batch would have drawn. Row-local quantities
        // (x_hat, s, y, dx) are bitwise identical — each output row's GEMM
        // reduction touches only its own segment's rows. Cross-row grad
        // reductions (da, db) differ in association when split, so those
        // are only close.
        let layer = make_layer(12, 10, &[4], 110);
        let mut rng = Pcg32::seeded(111);
        let x = Matrix::random_uniform(11, 12, 1.0, &mut rng);
        let dy = Matrix::random_uniform(11, 10, 1.0, &mut rng);
        let t = traffic();
        let seg = |start, end, off| Segment {
            adapter: 0,
            start,
            end,
            dropout_row_offset: off,
        };
        let split = [seg(0, 3, 0), seg(3, 7, 3), seg(7, 11, 7)];
        let whole = [seg(0, 11, 0)];

        let fwd_split = forward(&layer, &x, &split, &t).unwrap();
        let fwd_whole = forward(&layer, &x, &whole, &t).unwrap();
        assert_eq!(fwd_split.y.as_slice(), fwd_whole.y.as_slice());
        assert_eq!(
            fwd_split.saved.x_hat.as_slice(),
            fwd_whole.saved.x_hat.as_slice()
        );

        let bwd_split = backward(&layer, &fwd_split.saved, &dy, &t).unwrap();
        let bwd_whole = backward(&layer, &fwd_whole.saved, &dy, &t).unwrap();
        assert_eq!(bwd_split.dx.as_slice(), bwd_whole.dx.as_slice());
        assert!(all_close(
            &bwd_split.grads[&0].da,
            &bwd_whole.grads[&0].da,
            1e-4
        ));
        assert!(all_close(
            &bwd_split.grads[&0].db,
            &bwd_whole.grads[&0].db,
            1e-4
        ));
    }

    #[test]
    fn heterogeneous_ranks_are_supported() {
        let layer = make_layer(16, 12, &[2, 4, 8], 80);
        let mut rng = Pcg32::seeded(81);
        let x = Matrix::random_uniform(12, 16, 1.0, &mut rng);
        let t = traffic();
        let segs = [
            Segment {
                adapter: 2,
                start: 0,
                end: 3,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 0,
                start: 3,
                end: 8,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 1,
                start: 8,
                end: 12,
                dropout_row_offset: 0,
            },
        ];
        let fwd = forward(&layer, &x, &segs, &t).unwrap();
        let dy = Matrix::random_uniform(12, 12, 1.0, &mut rng);
        let bwd = backward(&layer, &fwd.saved, &dy, &t).unwrap();
        assert_eq!(bwd.grads.len(), 3);
        assert_eq!(bwd.grads[&0].da.shape(), (16, 2));
        assert_eq!(bwd.grads[&1].da.shape(), (16, 4));
        assert_eq!(bwd.grads[&2].da.shape(), (16, 8));
    }

    #[test]
    fn lowering_is_single_launch_per_site() {
        let layer = make_layer(16, 12, &[4, 4], 90);
        let segs = [
            Segment {
                adapter: 0,
                start: 0,
                end: 8,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 1,
                start: 8,
                end: 16,
                dropout_row_offset: 0,
            },
        ];
        let t = traffic();
        assert_eq!(forward_profiles(&layer, &segs, &t).len(), 2);
        assert_eq!(backward_profiles(&layer, &segs, &t).len(), 3);
    }
}
