//! Steady-state allocation gate for the fused executors.
//!
//! A fused forward+backward step through [`fused::Workspace`], and a
//! multi-segment FusedMultiLoRA step through [`multi::Workspace`], must not
//! touch the heap once warmed up: workspace tensors are `resize`d in
//! place, GEMM packing buffers come from the thread-local arena, and the
//! serial pool path dispatches inline. This test installs a counting
//! global allocator and asserts *zero* allocations and *zero* arena
//! growth events for a warmed step.
//!
//! The step is instrumented with `lorafusion-trace` spans and registry
//! counters, so this gate also proves the *disabled*-tracing path costs
//! nothing on the heap: span guards must be inert and counter handles
//! must be resolved (and their one-time registration allocations paid)
//! during warm-up, never in the steady state.
//!
//! The allocator counts per thread, and a gate reads only its own
//! thread's count: tests running concurrently on sibling threads of this
//! binary (including the one that allocates on purpose) cannot leak
//! allocations into another test's measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::multi::{self, MultiLoraLayer, Segment};
use lorafusion_kernels::{fused, AdapterWeights};
use lorafusion_kernels::{LoraConfig, LoraLayer, TrafficModel};
use lorafusion_tensor::ops::all_close;
use lorafusion_tensor::pool::with_pool;
use lorafusion_tensor::{Matrix, Pcg32, Pool};

struct CountingAlloc;

thread_local! {
    /// Heap operations performed by the current thread. Const-initialized
    /// and destructor-free, so reading it from inside the allocator never
    /// allocates or fails.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Heap operations the current thread has performed so far.
fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method delegates to `System`, adding only a thread-local
// counter bump; layout and pointer contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; `layout` is forwarded.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: our caller upholds `GlobalAlloc::alloc`'s contract
        // (non-zero layout), which is exactly what `System` requires.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`, forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: caller-supplied layout forwarded verbatim to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`, forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator (which is `System`
        // underneath) with `layout`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System::dealloc`, forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` via this wrapper with
        // the same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_step_performs_no_heap_allocation() {
    let t = TrafficModel::for_device(&DeviceKind::H100Sxm.spec());
    let mut rng = Pcg32::seeded(42);
    let cfg = LoraConfig {
        rank: 8,
        alpha: 1.5,
        dropout: 0.25,
        seed: 42,
    };
    let layer = LoraLayer::init_nonzero(96, 80, cfg, &mut rng);
    let x = Matrix::random_uniform(64, 96, 1.0, &mut rng);
    let dy = Matrix::random_uniform(64, 80, 1.0, &mut rng);

    // Tracing must be off: this gate covers the disabled path that every
    // production step takes when LORAFUSION_TRACE is unset.
    lorafusion_trace::disable();
    assert!(!lorafusion_trace::enabled());

    // The serial pool dispatches inline; multi-threaded dispatch allocates
    // job state inside the pool (outside the per-layer numeric path this
    // gate covers).
    let pool = Pool::new(1);
    with_pool(&pool, || {
        let mut ws = fused::Workspace::new();

        // Warm up: first steps size the workspace tensors and the packing
        // arena, and resolve the trace counter handles (their one-time
        // registration allocates); a second round proves sizing is stable.
        for _ in 0..2 {
            ws.forward_into(&layer, &x, 0).unwrap();
            ws.backward_into(&layer, &dy).unwrap();
        }

        let allocs_before = thread_allocations();
        let growth_before = lorafusion_tensor::arena::growth_events();

        // A disabled span guard in the measured region must be free.
        {
            let _span = lorafusion_trace::span!("zero_alloc.step", m = x.rows());
            ws.forward_into(&layer, &x, 0).unwrap();
            ws.backward_into(&layer, &dy).unwrap();
        }

        let allocs = thread_allocations() - allocs_before;
        let growth = lorafusion_tensor::arena::growth_events() - growth_before;
        assert_eq!(
            allocs, 0,
            "warmed fused step touched the global allocator {allocs} times"
        );
        assert_eq!(growth, 0, "warmed fused step grew the arena {growth} times");

        // The warmed step still computes the right thing.
        let reference = fused::forward(&layer, &x, 0, &t).unwrap();
        assert_eq!(ws.y.as_slice(), reference.y.as_slice());
        let ref_bwd = fused::backward(&layer, &reference.saved, &dy, &t).unwrap();
        assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-6));
    });
}

#[test]
fn steady_state_multi_segment_step_performs_no_heap_allocation() {
    let t = TrafficModel::for_device(&DeviceKind::H100Sxm.spec());
    let mut rng = Pcg32::seeded(43);
    let (k, n) = (96, 80);
    let w = Matrix::random_gaussian(k, n, 0.2, &mut rng);
    let adapters = [(8, 0.25), (16, 0.0), (4, 0.1)]
        .into_iter()
        .enumerate()
        .map(|(i, (rank, dropout))| {
            let cfg = LoraConfig {
                rank,
                alpha: 1.5,
                dropout,
                seed: 50 + i as u64,
            };
            AdapterWeights::init_nonzero(k, n, cfg, &mut rng)
        })
        .collect();
    let layer = MultiLoraLayer { w, adapters };
    // Ragged segment lengths, an adapter repeated out of order, and a
    // segment longer than a macro-tile row block and than one `KC`
    // reduction block (its weight-gradient GEMMs park accumulators).
    let seg = |adapter, start, end, off| Segment {
        adapter,
        start,
        end,
        dropout_row_offset: off,
    };
    let segments = [
        seg(0, 0, 13, 0),
        seg(2, 13, 40, 0),
        seg(1, 40, 640, 0),
        seg(0, 640, 647, 13),
    ];
    let x = Matrix::random_uniform(647, k, 1.0, &mut rng);
    let dy = Matrix::random_uniform(647, n, 1.0, &mut rng);

    lorafusion_trace::disable();
    assert!(!lorafusion_trace::enabled());

    let pool = Pool::new(1);
    with_pool(&pool, || {
        let mut ws = multi::Workspace::new();
        for _ in 0..2 {
            ws.forward_into(&layer, &x, &segments).unwrap();
            ws.backward_into(&layer, &segments, &dy).unwrap();
        }

        let allocs_before = thread_allocations();
        let growth_before = lorafusion_tensor::arena::growth_events();
        {
            let _span = lorafusion_trace::span!("zero_alloc.multi_step", m = x.rows());
            ws.forward_into(&layer, &x, &segments).unwrap();
            ws.backward_into(&layer, &segments, &dy).unwrap();
        }
        let allocs = thread_allocations() - allocs_before;
        let growth = lorafusion_tensor::arena::growth_events() - growth_before;
        assert_eq!(
            allocs, 0,
            "warmed multi-segment step touched the global allocator {allocs} times"
        );
        assert_eq!(
            growth, 0,
            "warmed multi-segment step grew the arena {growth} times"
        );

        // The warmed step still computes what the allocating wrappers do.
        let fwd = multi::forward(&layer, &x, &segments, &t).unwrap();
        assert_eq!(ws.y.as_slice(), fwd.y.as_slice());
        assert_eq!(ws.x_hat.as_slice(), fwd.saved.x_hat.as_slice());
        let bwd = multi::backward(&layer, &fwd.saved, &dy, &t).unwrap();
        assert_eq!(ws.dx.as_slice(), bwd.dx.as_slice());
        let grads: Vec<_> = ws.grads().collect();
        assert_eq!(grads.len(), bwd.grads.len());
        for (adapter, g) in grads {
            assert_eq!(g.da.as_slice(), bwd.grads[&adapter].da.as_slice());
            assert_eq!(g.db.as_slice(), bwd.grads[&adapter].db.as_slice());
        }
    });
}

#[test]
fn seeded_allocation_is_caught_by_the_counting_allocator() {
    // The static mirror of this gate is the `alloc-in-hot-path` lint
    // rule; its positive fixture (`crates/lint/fixtures/hot_alloc_pos.rs`)
    // seeds a per-step staging buffer into a hot entry point. This test
    // performs that exact pattern inside the measured window and proves
    // the dynamic gate would catch the same bug the lint flags: the two
    // enforcement tiers agree on what "allocation on the hot path" means.
    let mut rng = Pcg32::seeded(7);
    let cfg = LoraConfig {
        rank: 8,
        alpha: 1.5,
        dropout: 0.25,
        seed: 7,
    };
    let layer = LoraLayer::init_nonzero(96, 80, cfg, &mut rng);
    let x = Matrix::random_uniform(64, 96, 1.0, &mut rng);

    lorafusion_trace::disable();
    let pool = Pool::new(1);
    with_pool(&pool, || {
        let mut ws = fused::Workspace::new();
        for _ in 0..2 {
            ws.forward_into(&layer, &x, 0).unwrap();
        }

        let allocs_before = thread_allocations();

        // The seeded defect from the lint fixture: stage the output
        // through a freshly allocated buffer instead of writing in place.
        ws.forward_into(&layer, &x, 0).unwrap();
        let mut staging = Vec::with_capacity(ws.y.as_slice().len());
        for &v in ws.y.as_slice() {
            staging.push(v);
        }
        std::hint::black_box(&staging);

        let allocs = thread_allocations() - allocs_before;
        assert!(
            allocs > 0,
            "the counting allocator must observe the seeded staging buffer"
        );
    });
}
