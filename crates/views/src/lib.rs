//! # anonet-views
//!
//! Local views `L_d(v)`, view-equivalence via color refinement, the finite
//! view graph `G_*` (the paper's quotient construction), the canonical
//! total order on `V_*`, and Norris-depth computations.
//!
//! ## Views and refinement
//!
//! The paper's depth-`d` local view `L_d(v)` (Section 1.1, Figure 1) is a
//! rooted tree capturing everything a deterministic algorithm at `v` could
//! learn in `d` rounds. Explicit view trees grow like `Δ^d`, so this crate
//! provides them ([`ViewTree`]) only for small depths — Figure 1, tests,
//! and exact cross-checks — and uses **color refinement** everywhere else:
//! the partition of nodes by depth-`d` view equality is exactly the
//! partition computed by `d` rounds of refinement, and refinement is
//! linear-time per round.
//!
//! ## Port decoration
//!
//! The paper's views carry node labels only. Its model, however, is
//! port-numbered, and lifting *arbitrary* (port-sensitive) algorithms
//! between a graph and its quotient requires the quotient map to preserve
//! ports. We therefore support both equivalences ([`ViewMode`]):
//!
//! * [`ViewMode::Portless`] (default) — the paper's literal notion and
//!   what the derandomization machinery uses, paired with *port-oblivious*
//!   algorithms. Port-oblivious algorithms lose no power on 2-hop colored
//!   graphs: the sender's color identifies the edge, as the paper's
//!   Section 1.3 remark notes.
//! * [`ViewMode::PortAware`] — views additionally record, per port, the
//!   port through which each neighbor sees the node. This equivalence is
//!   strictly finer (adversarial port numberings break symmetry that
//!   labels cannot see); the quotient of a 2-hop colored graph under it is
//!   still simple and its projection is a **port-preserving** factorizing
//!   map, along which executions of arbitrary port-sensitive algorithms
//!   lift. Used by the experiments that isolate the role of ports.
//!
//! ## Example
//!
//! ```
//! use anonet_graph::generators;
//! use anonet_views::{quotient, ViewMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Figure 2: colored C6 has quotient C3.
//! let c6 = generators::cycle(6)?.with_labels(vec![1u32, 2, 3, 1, 2, 3])?;
//! let q = quotient(&c6, ViewMode::Portless)?;
//! assert_eq!(q.graph().node_count(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod cover;
mod error;
mod folded;
mod interner;
pub mod norris;
mod order;
mod quotient;
mod refinement;
mod view_tree;

pub use arena::{canonical_view_encoding, ArenaStats, ViewArena, ViewNode};
pub use error::ViewError;
pub use folded::FoldedView;
pub use interner::{Interner, Sym};
pub use order::{canonical_encoding, canonical_order, update_graph_cmp};
pub use quotient::{quotient, ViewQuotient};
pub use refinement::{Refinement, ViewMode};
pub use view_tree::ViewTree;

/// Convenient alias for results with [`ViewError`].
pub type Result<T> = std::result::Result<T, ViewError>;
