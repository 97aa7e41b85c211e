//! # cqap-store
//!
//! Disk-resident S-views: the paper's space budget `S` spent on a second
//! storage tier.
//!
//! * [`format`](mod@format) — the on-disk view format: each S-view
//!   serialized as a sorted run of `(key, tuple-block)` records, probed
//!   via an in-memory *key filter* (a key the run does not hold costs no
//!   I/O) and a sparse *fence index* (binary search over the fences, then
//!   one contiguous file read), with an LSM-style delta overlay that
//!   compacts into a fresh run. Plain `std` files, no serialization or
//!   mmap dependency.
//! * [`StoredViews`] — the spilled views of one PMTD plan behind the
//!   online phase's [`SViewProbe`](cqap_yannakakis::SViewProbe) seam.
//!   `cqap-panda`'s `CqapIndex::spill` writes one for its plan and
//!   answers through it with the same compiled plan, so a spilled index
//!   answers exactly like the resident one.
//!
//! ## Worked example: write a run, probe it
//!
//! ```
//! use cqap_common::{Tuple, VarSet};
//! use cqap_relation::Relation;
//! use cqap_store::format::write_view;
//! use cqap_store::{scratch_dir, StoredView};
//!
//! // A view over (x1, x4), keyed by x1.
//! let view = Relation::binary("S14", 0, 3, [(1, 4), (1, 5), (2, 4)]);
//! let dir = scratch_dir("doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("s14.sview");
//! write_view(&path, &view, VarSet::from_iter([0])).unwrap();
//!
//! let mut run = StoredView::open(&path).unwrap();
//! run.delete_on_drop();
//! assert_eq!(run.stored_values(), view.stored_values());
//! assert_eq!(run.probe(&Tuple::from_slice(&[1])).unwrap().len(), 2);
//! assert!(!run.contains_key(&Tuple::from_slice(&[3])).unwrap());
//!
//! // Dropping the view deletes its file; the directory is the caller's.
//! drop(run);
//! std::fs::remove_dir(&dir).unwrap();
//! ```

#![deny(missing_docs)]

pub mod format;
pub mod stored;

pub use format::StoredView;
pub use stored::{scratch_dir, StoredViews};
