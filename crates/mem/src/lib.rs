//! # mcsim-mem — the coherent memory system
//!
//! The paper's techniques lean on specific memory-system machinery (§3.2,
//! §4.1): *hardware-coherent caches*, a *high-bandwidth pipelined memory
//! system with lockup-free caches* able to sustain several outstanding
//! requests, and (for write prefetching) an *invalidation-based* coherence
//! scheme. This crate builds all of it:
//!
//! * [`cache`] — per-processor set-associative caches with
//!   Invalid/Shared/Exclusive line states, LRU replacement that never
//!   victimizes a line with an outstanding access (footnote 3 of the
//!   paper), and word-granularity data so litmus tests observe real values.
//! * [`mshr`] — miss-status holding registers making the cache lockup-free
//!   (Kroft; Scheurich & Dubois): multiple outstanding misses, and
//!   *merging* of a demand reference into an outstanding prefetch so "the
//!   reference completes as soon as the prefetch result returns" (§3.2).
//! * [`directory`] — a directory (DASH-style) serializing transactions
//!   per line, collecting invalidation acknowledgements before granting
//!   exclusive ownership, and forwarding dirty data. The sharer set is
//!   pluggable ([`config::DirFormat`]): full-map, coarse vector, or
//!   limited pointers with broadcast/invalidate overflow — the
//!   scalability knob for 64–256-core machines.
//! * [`system`] — [`MemorySystem`], the facade the processor's load/store
//!   unit talks to: one port per processor per cycle, demand reads/writes,
//!   read and read-exclusive prefetches, and an event stream carrying
//!   completions *and* the coherence traffic (invalidations, updates,
//!   replacements) that the speculative-load buffer monitors (§4.2).
//!
//! Two protocols are provided ([`config::Protocol`]): the default
//! **invalidation** protocol, and an **update** protocol variant under
//! which read-exclusive prefetching is impossible — reproducing the §3.1
//! observation that "in update-based schemes, it is difficult to partially
//! service a write operation without making the new value available to
//! other processors".
//!
//! ## Timing
//!
//! A clean miss costs `hop + svc + hop` cycles end-to-end
//! ([`config::MemTimings`]); the paper-calibrated default is
//! `49 + 2 + 49 = 100` with 1-cycle hits, matching §3.3's "cache hit
//! latency of 1 cycle and cache miss latency of 100 cycles". Transactions
//! that must invalidate sharers or fetch dirty data from a remote owner
//! pay an extra round trip (`2 * hop`). The directory starts one
//! transaction per cycle (pipelined), so independent misses from one
//! processor complete 1 cycle apart — the pipelining the techniques
//! exploit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod directory;
pub mod msg;
pub mod mshr;
pub mod stats;
pub mod system;

pub use cache::CacheFault;
pub use config::{CacheConfig, DirFormat, MemConfig, MemTimings, OverflowPolicy, Protocol};
pub use msg::{DemandToken, IssueResult, MemEvent, PrefetchResult, ProbeResult, TxnId, WriteOp};
pub use mshr::MshrFault;
pub use stats::MemStats;
pub use system::MemorySystem;
