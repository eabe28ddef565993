//! Cycle-level SIMT GPU simulator — the Vulkan-Sim substitute of the TTA
//! reproduction.
//!
//! The paper evaluates its accelerators on Vulkan-Sim, a cycle-level GPU
//! simulator; no equivalent exists in Rust, so this crate provides one with
//! the pieces the paper's conclusions rest on:
//!
//! * a mini-ISA ([`isa`]) and structured [`kernel::KernelBuilder`] in which
//!   the baseline "CUDA" traversal kernels are written;
//! * SIMT execution with PDOM reconvergence ([`simt`]), GTO warp scheduling
//!   and scoreboarding ([`sm`]) — the source of the SIMT-efficiency numbers
//!   of Fig. 1;
//! * an analytic memory hierarchy ([`mem`]) with per-SM L1s, a shared L2,
//!   MSHRs and channelled DRAM bandwidth accounting — the source of the
//!   DRAM-utilization numbers of Figs. 1 and 13;
//! * an accelerator attachment point ([`accel`]) through which the baseline
//!   RTA (`tta-rta`) and TTA/TTA+ (`tta`) plug in, one per SM;
//! * run statistics ([`stats`]) for every figure of the paper;
//! * an abstract-interpretation analysis core ([`absint`]) that proves
//!   kernel memory safety, race freedom, SIMT-stack bounds, and loop
//!   termination, with a runtime shadow checker
//!   ([`absint::ShadowChecker`]) and a dynamic race sanitizer
//!   ([`race::RaceSanitizer`]) gating its own soundness.
//!
//! # Examples
//!
//! ```
//! use tta_gpu_sim::{Gpu, GpuConfig};
//! use tta_gpu_sim::kernel::KernelBuilder;
//! use tta_gpu_sim::isa::SReg;
//!
//! let mut k = KernelBuilder::new("noop");
//! let r = k.reg();
//! k.mov_sreg(r, SReg::ThreadId);
//! k.exit();
//! let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 16);
//! let stats = gpu.launch(&k.build(), 64, &[]);
//! assert!(stats.cycles > 0);
//! ```

pub mod absint;
pub mod accel;
pub mod config;
pub mod gpu;
pub mod hash;
pub mod isa;
pub mod kernel;
pub mod mem;
pub mod race;
pub mod simt;
pub mod sm;
pub mod snapshot;
pub mod stats;
pub mod verify;

pub use accel::{AccelCtx, Accelerator, LaneTraversal, TraversalRequest};
pub use config::{GpuConfig, MemConfig, SchedulerKind};
pub use gpu::Gpu;
pub use kernel::{DecodedInstr, DecodedKernel, Kernel, KernelBuilder};
pub use mem::{GlobalMemory, MemorySystem};
pub use snapshot::{BagError, SnapValue, StateBag};
pub use stats::{InstrMix, SimStats};
