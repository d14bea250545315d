//! # mcsim-consistency — memory consistency models as delay arcs
//!
//! Section 2 / Figure 1 of Gharachorloo, Gupta & Hennessy (ICPP 1991)
//! presents each consistency model as a set of *delay arcs*: access `v` may
//! not perform until access `u` (earlier in program order) has performed.
//! This crate encodes those arcs for the four models the paper discusses:
//!
//! * **SC** — sequential consistency (Lamport): every access delayed for
//!   every earlier access; shared accesses perform in program order.
//! * **PC** — processor consistency (Goodman): reads may bypass earlier
//!   writes; writes stay ordered behind everything.
//! * **WC** — weak consistency, the paper's `WCsc` variant (Dubois et al.):
//!   ordinary accesses between synchronization points are unordered;
//!   synchronization accesses are full barriers.
//! * **RC** — release consistency, the paper's `RCpc` variant: accesses
//!   after an *acquire* wait for it; a *release* waits for everything
//!   before it; special (sync) accesses obey PC among themselves.
//!
//! The conventional implementation of a model *enforces* these arcs by
//! stalling issue; the paper's two techniques instead let accesses proceed
//! and detect/correct the rare violations. Both the conventional issue
//! logic (`mcsim-proc`'s baseline mode) and the speculative-load buffer's
//! retirement conditions are driven by the [`must_delay`] relation defined
//! here, so the simulator cannot drift from the model definitions.
//! [`must_order`] adds per-location program order to the arcs; the
//! oracle and the store buffer ask it, so same-address order has one
//! home too.
//!
//! [`must_delay`]: Model::must_delay
//! [`must_order`]: Model::must_order

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod model;
pub mod table;

pub use access::AccessClass;
pub use model::Model;
