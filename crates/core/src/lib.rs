//! WCET-safe software prefetch insertion for unlocked instruction caches —
//! the primary contribution of *"Reconciling real-time guarantees and
//! energy efficiency through unlocked-cache prefetching"* (Wuerges, de
//! Oliveira, dos Santos — DAC 2013).
//!
//! # The technique
//!
//! Starting from a program whose WCET was bounded by classical analysis
//! (`rtpf-wcet`), the optimizer walks the acyclic reference graph in
//! **reverse execution order**, detecting cache replacements (the paper's
//! Property 3). For a replacement of block `s'` at reference `r_i` whose
//! next use is `r_j`, it considers inserting a software prefetch `π_s'` at
//! program point `(r_i, r_{i+1})` and accepts when the **joint improvement
//! criterion** (Eq. 9) holds:
//!
//! * **effective** — the prefetch latency `Λ` fits in the worst-case time
//!   between `r_{i+1}` and `r_{j−1}` (Definition 10), so the block arrives
//!   before its use on the WCET path;
//! * **profitable** — the removed miss is worth more than the prefetch
//!   instruction's own fetch plus the now-hit access
//!   (`mcost − pcost > 0`, Eqs. 6–7);
//! * **relocation-safe** — shifting the upstream code by one instruction
//!   slot does not increase the WCET (`rcost ≤ 0`, Eq. 8 / Lemma 2).
//!
//! The relocation model anchors the already-analysed suffix: code before
//! the insertion point shifts down one slot ([`rtpf_isa::Layout::anchored`]).
//!
//! # Faithfulness and the verification loop
//!
//! The paper evaluates `rcost` incrementally during the reverse pass; this
//! implementation instead *verifies each accepted batch end-to-end*: after
//! inserting a round of prefetches it re-runs the full WCET analysis and
//! rolls the round back (falling back to one-at-a-time insertion) if
//! `τ_w` increased or the WCET-path misses did not drop. The accepted
//! transformation therefore satisfies Theorem 1 **by construction**, not
//! just by argument — [`verify::check`] re-proves it for any pair of
//! programs. Iteration continues while the joint criterion finds work,
//! matching the paper's iterative-improvement design (§4).
//!
//! # Example
//!
//! ```
//! use rtpf_cache::CacheConfig;
//! use rtpf_core::{OptimizeParams, Optimizer};
//! use rtpf_isa::shape::Shape;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A branchy loop slightly exceeding the cache: prime prefetch territory.
//! let p = Shape::seq([
//!     Shape::code(30),
//!     Shape::loop_(20, Shape::seq([
//!         Shape::code(10),
//!         Shape::if_else(2, Shape::code(16), Shape::code(8)),
//!         Shape::if_then(2, Shape::code(12)),
//!     ])),
//!     Shape::code(14),
//! ]).compile("compress-mini");
//! let config = CacheConfig::new(2, 16, 128)?;
//! let result = Optimizer::new(config, OptimizeParams::default()).run(&p)?;
//! assert!(result.report.inserted > 0);
//! assert!(result.report.wcet_after < result.report.wcet_before);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod candidates;
pub mod optimizer;
pub mod path;
pub mod verify;

pub use candidates::{Candidate, JoinPolicy};
pub use optimizer::{OptimizeParams, OptimizeReport, OptimizeResult, Optimizer};
pub use path::WcetPath;
pub use verify::{check, prefetch_equivalent, TheoremReport};
